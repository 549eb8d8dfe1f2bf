package sqldb

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"unsafe"
)

// handoverDB holds t (5,000 rows, five morsels) and u (3,000 rows), sealed,
// with the pool's gate lowered, so a single-table statement's scan runs on
// the pool unless an index serves it. Only full blocks seal: each table
// keeps its last rows in the heap.
func handoverDB(t *testing.T) *Database {
	t.Helper()
	lowerMorselMinRows(t, 8)
	db := NewDatabase(WithMaxWorkers(4))
	db.MustExec("CREATE TABLE t (id INTEGER, k INTEGER, v INTEGER)")
	db.MustExec("CREATE TABLE u (id INTEGER, w INTEGER)")
	tr, ur := make([][]any, 5000), make([][]any, 3000)
	for i := range tr {
		tr[i] = []any{i, i % 37, (i * 7919) % 101}
	}
	for i := range ur {
		ur[i] = []any{2 * i, i % 11}
	}
	if err := db.InsertRows("t", tr); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("u", ur); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	db.MustExec("CREATE INDEX t_k ON t (k)")
	return db
}

// nextLoop runs q through a cursor's Next loop and returns its rows and
// the statement's RowsEmitted.
func nextLoop(t *testing.T, db *Database, q string) ([]Row, uint64) {
	t.Helper()
	rows, err := db.QueryRows(context.Background(), q)
	if err != nil {
		t.Fatalf("QueryRows(%q): %v", q, err)
	}
	var out []Row
	for rows.Next() {
		out = append(out, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return out, rows.Stats().RowsEmitted
}

// TestCollectHandoverMatchesNext: Collect takes what a full sort, a GROUP
// BY or the pooled scan already holds (rest) instead of pulling it row by
// row; for every root shape that hands over, it returns what a Next loop
// returns, row for row, with the same RowsEmitted, in a slice with no spare
// capacity wherever the size is known — and a cursor advanced k rows and
// then collected returns exactly the rows after the k-th.
func TestCollectHandoverMatchesNext(t *testing.T) {
	db := handoverDB(t)
	if u := db.tableMap()["u"]; u.block(1) == nil || u.block(2) != nil {
		t.Fatal("u is not two sealed blocks and a heap tail")
	}
	for _, c := range []struct {
		name, q string
		plan    string // lines EXPLAIN must show: the shape is the one named
		exact   bool   // the handed-over size is known: cap == len
	}{
		{"full sort", "SELECT * FROM t WHERE v > 3 ORDER BY v, id", "sort by v ASC, id ASC\n  project 3 column(s)\n    batch seq scan t (as t) workers=4", true},
		{"full sort of built rows", "SELECT id, k FROM t ORDER BY v, id", "sort by v ASC, id ASC\n  project 2 column(s)\n    batch seq scan t (as t) workers=4", false},
		{"presorted sort", "SELECT k, v, id FROM t ORDER BY k, v", "sort by k ASC, v ASC\n  project 3 column(s)\n    batch ordered index scan t (as t): by k", false},
		{"group by", "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k", "hash aggregate by k (folded in scan)\n  batch seq scan t (as t) workers=4", true},
		{"group by having", "SELECT k, SUM(v) AS s FROM t GROUP BY k HAVING SUM(v) > 5000", "hash aggregate by k (folded in scan)\n  batch seq scan t (as t) workers=4", false},
		{"fused projection", "SELECT id, v + 1 FROM t WHERE v > 3", "project 2 column(s) (fused in scan)\n  batch seq scan t (as t) workers=4", true},
		{"identity projection", "SELECT * FROM t WHERE v > 3", "project 3 column(s)\n  batch seq scan t (as t) workers=4", true},
		// u's first two morsels are sealed blocks, whose rows the scan
		// decodes and builds, and its third is heap rows, which it hands up
		// as they are: one gather holds both kinds of part.
		{"sealed and heap parts", "SELECT * FROM u WHERE w > 2", "project 2 column(s)\n  batch seq scan u (as u) workers=4", true},
		{"derived table", "SELECT * FROM (SELECT id, v * 2 AS s FROM t WHERE v < 50) d", "materialised rows", false},
		// A join's inputs never run on the pool (planScan pools single-table
		// statements only), so the build side is drained row by row.
		{"hash join build", "SELECT t.id, u.w FROM t JOIN u ON t.id = u.id WHERE u.w > 5", "build side", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan, err := db.Explain(c.q)
			if err != nil {
				t.Fatal(err)
			}
			if text := strings.Join(plan, "\n"); !strings.Contains(text, c.plan) {
				t.Fatalf("%q does not plan as a %s:\n%s", c.q, c.name, text)
			}
			want, emitted := nextLoop(t, db, c.q)
			if len(want) < 2 {
				t.Fatalf("%q: %d rows, want a result to hand over", c.q, len(want))
			}
			for _, k := range []int{0, 1, min(1500, len(want)-1)} {
				rows, err := db.QueryRows(context.Background(), c.q)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					if !rows.Next() {
						t.Fatalf("Next() = false at row %d: %v", i, rows.Err())
					}
				}
				res, err := rows.Collect()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rowsToStrings(res.Rows), rowsToStrings(want[k:])) {
					t.Fatalf("after %d rows, Collect returned %d rows that differ from the Next loop's last %d", k, len(res.Rows), len(want)-k)
				}
				if got := rows.Stats().RowsEmitted; got != emitted {
					t.Errorf("after %d rows, RowsEmitted = %d, the Next loop's %d", k, got, emitted)
				}
				if c.exact && cap(res.Rows) != len(res.Rows) {
					t.Errorf("after %d rows, Collect returned %d rows in a slice of capacity %d", k, len(res.Rows), cap(res.Rows))
				}
			}
		})
	}
	if n := db.LiveSnapshots(); n != 0 {
		t.Errorf("LiveSnapshots() = %d, want 0", n)
	}
	assertNoWorkerLeak(t)
}

// TestGatherDropsFailingRow: a pooled projection that fails on one row in
// the middle of a morsel streams what the serial scan streams, the rows
// before that one and then its error, and Collect fails with that error.
// A function call keeps a scan off the pool (parallelSafe), so no statement
// the planner pools fails inside a row: the pooled plan gets the failing
// select list after planning, and its workers compile theirs from it
// (workerCopy). ABS() with no argument fails where it is evaluated, here on
// id 2,500 only, row 452 of morsel 2.
func TestGatherDropsFailingRow(t *testing.T) {
	db := handoverDB(t)
	const fails = "SELECT id, CASE WHEN id = 2500 THEN ABS() ELSE v END FROM t"
	rows, err := db.QueryRows(context.Background(), fails)
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	for rows.Next() {
		want = append(want, rows.Row())
	}
	wantErr := rows.Err()
	if len(want) != 2500 || CodeOf(wantErr) != ErrMisuse {
		t.Fatalf("serial scan: %d rows, then %v; want 2500, then ErrMisuse", len(want), wantErr)
	}
	stmt, err := Parse(fails)
	if err != nil {
		t.Fatal(err)
	}
	pooled := func() *Rows {
		rows, err := db.QueryRows(context.Background(), "SELECT id, v FROM t")
		if err != nil {
			t.Fatal(err)
		}
		p, _ := rows.root.(*projectOp)
		if p == nil || !p.fused {
			t.Fatalf("the projection is not fused: %T", rows.root)
		}
		g, ok := p.child.(*gatherOp)
		if !ok {
			t.Fatalf("the fused projection runs on a %T, not a gather", p.child)
		}
		g.scan.items = stmt.(*SelectStmt).Items
		return rows
	}
	rows = pooled()
	var got []Row
	for rows.Next() {
		got = append(got, rows.Row())
	}
	if err := rows.Err(); err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("pooled Next loop ends with %v, want %v", err, wantErr)
	}
	if !reflect.DeepEqual(rowsToStrings(got), rowsToStrings(want)) {
		t.Fatalf("pooled Next loop returned %d rows that differ from the serial scan's %d", len(got), len(want))
	}
	if res, err := pooled().Collect(); res != nil || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("Collect: %v, %v; want %v", res, err, wantErr)
	}
	if n := db.LiveSnapshots(); n != 0 {
		t.Errorf("LiveSnapshots() = %d, want 0", n)
	}
	assertNoWorkerLeak(t)
}

// cancelAfter is a context whose Err reports context.Canceled from its nth
// call on: a cancellation that lands at a fixed point of a statement's run.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestCollectHandoverErrorsAndCancel: a context cancelled while Collect
// drains a pooled scan fails it with ErrCanceled; a corrupt block in a later
// morsel of a pooled projection fails Collect with the error, and the
// RowsEmitted, the Next loop reaches. Neither leaves a snapshot or a worker.
func TestCollectHandoverErrorsAndCancel(t *testing.T) {
	lowerMorselMinRows(t, 8)
	const blocks = 16
	db := NewDatabase(WithMaxWorkers(4))
	db.MustExec("CREATE TABLE s (id INTEGER, a INTEGER)")
	data := make([][]any, blocks*segBlockSlots)
	for i := range data {
		data[i] = []any{i, i % 97}
	}
	if err := db.InsertRows("s", data); err != nil {
		t.Fatal(err)
	}
	db.Seal()

	// The context is checked at admission and as Collect starts, then by the
	// workers, once before each claim: the sixth check stops the pool after
	// three morsels.
	ctx := &cancelAfter{Context: context.Background(), n: 6}
	rows, err := db.QueryRows(ctx, "SELECT id, a FROM s WHERE id >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Collect(); CodeOf(err) != ErrCanceled {
		t.Fatalf("Collect under a cancelled context: %v, want ErrCanceled", err)
	}
	if got := rows.Stats().RowsScanned; got != 3*segBlockSlots {
		t.Errorf("RowsScanned = %d, want the %d rows of three morsels", got, 3*segBlockSlots)
	}

	for _, c := range db.tableMap()["s"].block(10).cols {
		for i := range c.data {
			c.data[i] = 0xFF
		}
	}
	// A worker stops before it claims, never after, so no run drops a
	// morsel below block 10 that a worker claimed after block 10 failed.
	const q = "SELECT id, a + 1 FROM s"
	var loopErr error
	var loopEmitted uint64
	for run := 0; run < 50; run++ {
		if rows, err = db.QueryRows(context.Background(), q); err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		loopErr, loopEmitted = rows.Err(), rows.Stats().RowsEmitted
		if CodeOf(loopErr) != ErrCorrupt || n != 10*segBlockSlots {
			t.Fatalf("Next loop, run %d: %d rows, then %v; want %d, then ErrCorrupt", run, n, loopErr, 10*segBlockSlots)
		}
	}
	if rows, err = db.QueryRows(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if res, err := rows.Collect(); res != nil || err == nil || err.Error() != loopErr.Error() {
		t.Fatalf("Collect: %v, %v; want the Next loop's %v", res, err, loopErr)
	}
	if got := rows.Stats().RowsEmitted; got != loopEmitted {
		t.Errorf("Collect's RowsEmitted = %d, the Next loop's %d", got, loopEmitted)
	}
	if n := db.LiveSnapshots(); n != 0 {
		t.Errorf("LiveSnapshots() = %d, want 0", n)
	}
	assertNoWorkerLeak(t)
}

// TestCollectAllocatesOnce: Query of a pooled projection of 65,536 rows
// allocates its values, in one run a morsel, and one result slice of the
// final size, whose headers are cut from the runs — one row header a row —
// and a constant: the plan, the runs' slack and the morsels' batch buffers.
// A morsel slice of headers beside the result, or a result grown by
// doubling, would add a header a row and fail it.
func TestCollectAllocatesOnce(t *testing.T) {
	lowerMorselMinRows(t, 8)
	const n = 1 << 16
	db := NewDatabase(WithMaxWorkers(4))
	db.MustExec("CREATE TABLE t (id INTEGER, v INTEGER, w INTEGER)")
	data := make([][]any, n)
	for i := range data {
		data[i] = []any{i, i % 1000, i % 7}
	}
	if err := db.InsertRows("t", data); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	db.vacWG.Wait() // no sealer runs while the runs are measured
	const q = "SELECT id, v + w FROM t"
	runs := make([]uint64, 5)
	for i := range runs {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		res, err := db.Query(q)
		runtime.ReadMemStats(&b)
		if err != nil || len(res.Rows) != n {
			t.Fatalf("%q: %d rows, %v", q, len(res.Rows), err)
		}
		runs[i] = b.TotalAlloc - a.TotalAlloc
	}
	slices.Sort(runs)
	const valueSize, headerSize, constant = float64(unsafe.Sizeof(Value{})), 24, 512 << 10
	perRow := float64(runs[len(runs)/2]) / n
	limit := 2*valueSize + headerSize + float64(constant)/n
	t.Logf("%q: %.1f B a row (limit %.1f)", q, perRow, limit)
	if perRow > limit {
		t.Errorf("%q allocates %.1f B a row, want <= %.1f: two values, one row header and %d KB", q, perRow, limit, constant>>10)
	}
}
