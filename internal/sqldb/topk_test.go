package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Tests for ORDER BY … LIMIT folded into the scan (vecops.go, parallel.go):
// row-for-row equivalence of the serial fold, the pooled fold and the full
// stable sort cut to the window over a corpus built to tie, the error and
// cancellation paths, the accounting, and the point of it all — memory in
// proportion to k, not to n.

// topkDB builds t with n rows whose keys tie heavily (k has 7 values, f 40)
// and whose n column is NULL one row in five; BOOM_IF(x, y) fails when x = y.
func topkDB(t testing.TB, n int, opts ...Option) *Database {
	t.Helper()
	db := NewDatabase(opts...)
	db.SetFuncs(funcMap{"BOOM_IF": {MaxArgs: -1, Scalar: func(args []Value) (Value, error) {
		if args[0].AsInt() == args[1].AsInt() {
			return Null, errf(ErrMisuse, "boom at %d", args[0].AsInt())
		}
		return Bool(true), nil
	}}})
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, f REAL, n INTEGER, c TEXT)")
	r := rand.New(rand.NewSource(11))
	rows := make([][]any, n)
	for i := range rows {
		var nv any = r.Intn(30)
		if r.Intn(5) == 0 {
			nv = nil
		}
		rows[i] = []any{i, r.Intn(7), float64(r.Intn(40)) / 4, nv, strings.Repeat("x", r.Intn(4)) + fmt.Sprint(i%13)}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// topkCorpus: folded marks the statements whose sort the scan can take.
var topkCorpus = []struct {
	sql    string
	args   []any
	folded bool
}{
	{"SELECT id, k FROM t ORDER BY k LIMIT 10", nil, true},
	{"SELECT id, k, f FROM t ORDER BY k DESC, f ASC LIMIT 25 OFFSET 7", nil, true},
	{"SELECT id, n FROM t ORDER BY n, k DESC LIMIT 40", nil, true},
	{"SELECT id, n FROM t ORDER BY n DESC, f, id DESC LIMIT 40", nil, true},
	{"SELECT id, k * 2 AS kk FROM t WHERE f > 3 ORDER BY kk DESC, 1 LIMIT 15", nil, true},
	{"SELECT id FROM t WHERE n IS NOT NULL ORDER BY k + f DESC, n LIMIT 12 OFFSET 30", nil, true},
	{"SELECT id AS k, k AS x FROM t ORDER BY t.k DESC, k LIMIT 10", nil, true}, // t.k is the column, k the output
	{"SELECT id, k FROM t ORDER BY k LIMIT 0", nil, true},
	{"SELECT id, k FROM t WHERE id < 50 ORDER BY k DESC LIMIT 1000", nil, true}, // k > n
	{"SELECT id FROM t ORDER BY f LIMIT 100000", nil, true},
	{"SELECT id, f FROM t ORDER BY f DESC LIMIT ? OFFSET ?", []any{5, 3}, true},
	// A function call keeps the scan off the pool, not out of the fold.
	{"SELECT id, UPPER(c) AS u FROM t ORDER BY LENGTH(c) DESC, k, id LIMIT 9", nil, true},
	// Shapes that keep today's plan.
	{"SELECT DISTINCT k, n FROM t ORDER BY n DESC, k LIMIT 6", nil, false},
	{"SELECT id, k * 2 AS kk FROM t ORDER BY kk + f, id LIMIT 6", nil, false},
	{"SELECT id FROM t ORDER BY (SELECT 3) - k, id LIMIT 6", nil, false},
	{"SELECT k, COUNT(*) AS c FROM t GROUP BY k ORDER BY c DESC, k LIMIT 3", nil, false},
	{"SELECT id, k FROM t ORDER BY k, id", nil, false},
}

// fullSort runs a statement with its LIMIT/OFFSET window taken off — a full
// stable sort above the scan, which no scan folds — and cuts its rows to the
// window: the definition a folded top-K must meet, ties included.
func fullSort(db *Database, sql string, args ...any) ([]string, QueryStats, error) {
	m := regexp.MustCompile(` LIMIT (\S+)(?: OFFSET (\S+))?$`).FindStringSubmatch(sql)
	if m == nil {
		return topkRun(db, sql, args...)
	}
	bound := func(s string) int {
		if s == "?" {
			v := args[0].(int)
			args = args[1:]
			return v
		}
		v, _ := strconv.Atoi(s)
		return v
	}
	limit, offset := bound(m[1]), 0
	if m[2] != "" {
		offset = bound(m[2])
	}
	if limit == 0 {
		return nil, QueryStats{}, nil // an empty window reads nothing
	}
	rows, stats, err := topkRun(db, strings.TrimSuffix(sql, m[0]), args...)
	rows = rows[min(offset, len(rows)):]
	return rows[:min(limit, len(rows))], stats, err
}

// topkRun collects a statement's rows and its own counters.
func topkRun(db *Database, sql string, args ...any) ([]string, QueryStats, error) {
	rows, err := db.QueryRows(context.Background(), sql, args...)
	if err != nil {
		return nil, QueryStats{}, err
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		out = append(out, fmt.Sprint(rows.Row()))
	}
	return out, rows.Stats(), rows.Err()
}

// TestTopKFoldEquivalence: over 3×morselMinRows rows — heap-resident and
// sealed, with deleted rows a pinned snapshot keeps visible to the vacuum —
// the serial fold, the pooled fold and the full sort cut to the window return
// the same rows in the same order and bill the same rows and tombstones.
func TestTopKFoldEquivalence(t *testing.T) {
	n := 3 * morselMinRows
	for _, sealed := range []bool{false, true} {
		ser, par := topkDB(t, n, WithMaxWorkers(1)), topkDB(t, n, WithMaxWorkers(4))
		for _, db := range []*Database{ser, par} {
			if sealed {
				db.Seal()
			}
			defer db.Begin().Rollback() // pins the vacuum horizon below the deletes
			db.MustExec("DELETE FROM t WHERE id % 11 = 3")
		}
		for _, c := range topkCorpus {
			want, wantStats, err := fullSort(ser, c.sql, c.args...)
			if err != nil {
				t.Fatalf("full sort %q: %v", c.sql, err)
			}
			for name, db := range map[string]*Database{"serial": ser, "pooled": par} {
				lines, err := db.Explain(c.sql, c.args...)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range lines {
					if strings.Contains(l, "sort by") && strings.HasSuffix(l, "(folded in scan)") != c.folded {
						t.Errorf("%s %q: folded = %v, want %v:\n%s", name, c.sql, !c.folded, c.folded, strings.Join(lines, "\n"))
					}
				}
				got, stats, err := topkRun(db, c.sql, c.args...)
				if err != nil {
					t.Fatalf("%s %q: %v", name, c.sql, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("sealed=%v %s %q:\n got %v\nwant %v", sealed, name, c.sql, got, want)
				}
				if stats.RowsScanned != wantStats.RowsScanned || stats.TombstonesSkipped != wantStats.TombstonesSkipped ||
					stats.RowsEmitted != uint64(len(want)) {
					t.Errorf("sealed=%v %s %q: scanned/tombstones/emitted = %d/%d/%d, full sort %d/%d/%d", sealed, name, c.sql,
						stats.RowsScanned, stats.TombstonesSkipped, stats.RowsEmitted,
						wantStats.RowsScanned, wantStats.TombstonesSkipped, len(want))
				}
			}
		}
		assertNoWorkerLeak(t)
	}
}

// TestTopKFoldErrorsAsTheFullSort: the fold still runs every morsel and
// evaluates every survivor's items and keys, so a failure on a late morsel —
// in the predicate, or in an item of a row that would never have entered the
// heap — is the error the full sort raises.
func TestTopKFoldErrorsAsTheFullSort(t *testing.T) {
	n := 3 * morselMinRows
	db := topkDB(t, n, WithMaxWorkers(4))
	late := n - 17
	for _, sql := range []string{
		fmt.Sprintf("SELECT id FROM t WHERE BOOM_IF(id, %d) ORDER BY k, id LIMIT 5", late),
		fmt.Sprintf("SELECT id, BOOM_IF(id, %d) FROM t ORDER BY k, id LIMIT 5", late),
		fmt.Sprintf("SELECT f FROM t ORDER BY BOOM_IF(id, %d), id LIMIT 5", late),
		// Two failing rows, a morsel apart: the earlier one is reported.
		fmt.Sprintf("SELECT id, BOOM_IF(id, %d) FROM t WHERE BOOM_IF(id, %d) ORDER BY k LIMIT 1", late-morselSize, late),
	} {
		_, wantStats, want := fullSort(db, sql)
		lines, err := db.Explain(sql)
		if err != nil || !strings.Contains(strings.Join(lines, "\n"), "(folded in scan)") {
			t.Fatalf("%q is not folded (%v):\n%s", sql, err, strings.Join(lines, "\n"))
		}
		_, stats, got := topkRun(db, sql)
		if CodeOf(want) != ErrMisuse || got == nil || got.Error() != want.Error() {
			t.Errorf("%q: err = %v, full sort %v", sql, got, want)
		}
		// The fold bills whole batches, so it stops short of the failing one.
		if stats.RowsScanned < uint64(late-2*morselSize) || wantStats.RowsScanned < uint64(late-morselSize) {
			t.Errorf("%q: scanned %d (full sort %d) before a failure at row %d", sql, stats.RowsScanned, wantStats.RowsScanned, late)
		}
	}
	if db.LiveSnapshots() != 0 {
		t.Errorf("LiveSnapshots = %d after failed statements, want 0", db.LiveSnapshots())
	}
}

// TestTopKFoldCancellation: a context cancelled mid-scan stops the fold —
// deterministically from inside a serial one, and from outside a pooled one,
// which may also finish first — and nothing is left behind either way.
func TestTopKFoldCancellation(t *testing.T) {
	n := 3 * morselMinRows
	db := topkDB(t, n, WithMaxWorkers(4))
	ctx, cancel := context.WithCancel(context.Background())
	// Bound to the statement's context, over the database's own BOOM_IF.
	ctx = WithFuncs(ctx, funcMap{"CANCEL_AT": {MaxArgs: -1, Scalar: func(args []Value) (Value, error) {
		if args[0].AsInt() == int64(n/2) {
			cancel()
		}
		return Bool(true), nil
	}}})
	rows, err := db.QueryRows(ctx, "SELECT id FROM t WHERE CANCEL_AT(id) ORDER BY k, id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Next() || CodeOf(rows.Err()) != ErrCanceled {
		t.Fatalf("serial fold: Err() = %v, want ErrCanceled", rows.Err())
	}
	if got := rows.Stats().RowsScanned; got >= uint64(n) {
		t.Errorf("serial fold scanned all %d rows after the cancel at row %d", got, n/2)
	}

	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			runtime.Gosched()
			cancel()
		}()
		rows, err := db.QueryRows(ctx, "SELECT id, f FROM t ORDER BY f DESC, id LIMIT 5")
		if err == nil {
			for rows.Next() {
			}
			err = rows.Err()
			rows.Close()
		}
		<-done
		if err != nil && CodeOf(err) != ErrCanceled {
			t.Fatalf("pooled fold: err = %v, want nil or ErrCanceled", err)
		}
	}
	assertNoWorkerLeak(t)
	if got := db.LiveSnapshots(); got != 0 {
		t.Fatalf("LiveSnapshots = %d after cancelled folds, want 0", got)
	}
	if got := db.Stats().OpenCursors; got != 0 {
		t.Fatalf("OpenCursors = %d, want 0", got)
	}
}

// TestTopKAllocatesForKNotN: the bytes a folded ORDER BY … LIMIT 100
// allocates barely move when the table grows fourfold, because the only rows
// ever built are the ones that enter a heap. (A sort above the scan builds a
// row per input row: 4× the table, 4× the bytes.)
func TestTopKAllocatesForKNotN(t *testing.T) {
	measure := func(n int) uint64 {
		db := NewDatabase()
		db.MustExec("CREATE TABLE items (id INTEGER PRIMARY KEY, cat_id INTEGER, name TEXT, price REAL, qty INTEGER)")
		r := rand.New(rand.NewSource(2))
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{i, r.Intn(100), fmt.Sprintf("item-%d", i), float64(r.Intn(10000)) / 100, r.Intn(50)}
		}
		if err := db.InsertRows("items", rows); err != nil {
			t.Fatal(err)
		}
		db.Seal()
		const q = "SELECT id, price FROM items ORDER BY price DESC, id LIMIT 100"
		// The median, not the minimum: the first runs warm the plan cache and
		// the batch pool, and the rare run in which one worker claims every
		// morsel of the small table fills one heap of rows instead of two.
		runs := make([]uint64, 7)
		for i := range runs {
			var a, b runtime.MemStats
			runtime.ReadMemStats(&a)
			res, err := db.Query(q)
			runtime.ReadMemStats(&b)
			if err != nil || len(res.Rows) != 100 {
				t.Fatalf("%d rows, err %v", len(res.Rows), err)
			}
			runs[i] = b.TotalAlloc - a.TotalAlloc
		}
		sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
		return runs[len(runs)/2]
	}
	small, large := measure(3*morselMinRows), measure(12*morselMinRows)
	t.Logf("ORDER BY … LIMIT 100 allocates %d B over %d rows, %d B over %d rows", small, 3*morselMinRows, large, 12*morselMinRows)
	if float64(large) >= 1.5*float64(small) {
		t.Errorf("4× the rows cost %.2f× the bytes (%d -> %d), want < 1.5×", float64(large)/float64(small), small, large)
	}
}
