package sqldb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// Tests for the identity projection and the sort keys read in place
// (stream.go): SELECT *, t.* and a.*, b.* hand their input rows up unbuilt —
// the table's own row, a copy decoded out of a sealed block, or, under a
// consumer that drops what it reads, the producer's reused buffer — a sort
// key that is an output column is read where it sits, and Collect adopts a
// full sort's slice.

// identityDB is a table t(id, k, v, s) of n rows on a serial database,
// sealed when sealed is set.
func identityDB(t testing.TB, n int, sealed bool) *Database {
	t.Helper()
	db := NewDatabase(WithMaxWorkers(1))
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER, s TEXT)")
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i, i % 7, i * 7919 % 1000, fmt.Sprint("s", i%13)}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	if sealed {
		db.Seal()
	}
	return db
}

// identityRow is row i of identityDB, as the engine prints it.
func identityRow(i int) string {
	return fmt.Sprint(Row{Int(int64(i)), Int(int64(i % 7)), Int(int64(i * 7919 % 1000)), Text(fmt.Sprint("s", i%13))})
}

// explainPasses fails the test unless sql plans an identity projection: the
// projection node stays, not fused into the scan.
func explainPasses(t *testing.T, db *Database, sql string, width int) string {
	t.Helper()
	lines, err := db.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan := strings.Join(lines, "\n")
	if !strings.Contains(plan, fmt.Sprintf("project %d column(s)\n", width)) {
		t.Fatalf("%s: no unfused %d-column projection in\n%s", sql, width, plan)
	}
	return plan
}

// TestIdentityProjectionSealedRows: over a sealed table, SELECT * through
// Query returns each decoded row as a copy of its own, and through a lent
// cursor (queryRows with lend) the scan's reused rows, which a later batch
// overwrites.
func TestIdentityProjectionSealedRows(t *testing.T) {
	const n = 3*morselSize + 100
	db := identityDB(t, n, true)
	for _, sql := range []string{"SELECT * FROM t", "SELECT t.* FROM t WHERE v >= 0"} {
		explainPasses(t, db, sql, 4)
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != n {
			t.Fatalf("%s: %d rows, want %d", sql, len(res.Rows), n)
		}
		for i, r := range res.Rows {
			if got := fmt.Sprint(r); got != identityRow(i) {
				t.Fatalf("%s: Query row %d = %s, want %s (a reused buffer reached a caller that keeps rows)", sql, i, got, identityRow(i))
			}
		}
		rows, err := db.queryRows(context.Background(), mustSelect(t, db, sql), nil, nil, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		var held []Row
		for rows.Next() {
			held = append(held, rows.Row())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		stale := 0
		for i, r := range held {
			if fmt.Sprint(r) != identityRow(i) {
				stale++
			}
		}
		if len(held) != n || stale == 0 {
			t.Errorf("%s: the lent cursor handed out %d rows, %d of them since overwritten; want %d, and the scan's buffers reused", sql, len(held), stale, n)
		}
	}
}

// TestIdentityJoinLentMatchesQuery: a.*, b.* over a hash join and over an
// index join hands the join's rows up unbuilt; a lent cursor's Collect copies
// them and matches Query.
func TestIdentityJoinLentMatchesQuery(t *testing.T) {
	d := genRowlifeData(3)
	for _, c := range []struct {
		indexed bool
		join    string
	}{{false, "hash join"}, {true, "index nested loop join"}} {
		db := d.load(t, c.indexed, WithMaxWorkers(1))
		for _, sql := range []string{
			"SELECT a.*, b.* FROM a JOIN b ON a.k = b.k WHERE a.id < 400",
			"SELECT a.*, b.* FROM a JOIN b ON a.k = b.k ORDER BY b.v DESC, 1, b.id",
			"SELECT a.*, b.* FROM a JOIN b ON a.k = b.k WHERE a.v > 10 LIMIT 50 OFFSET 5",
		} {
			if plan := explainPasses(t, db, sql, 7); !strings.Contains(plan, c.join) {
				t.Fatalf("%s does not plan a %s:\n%s", sql, c.join, plan)
			}
			want, err := db.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := db.queryRows(context.Background(), mustSelect(t, db, sql), nil, nil, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rows.Collect()
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Rows) < 20 || !identical(got.Rows, want.Rows) {
				t.Errorf("indexed=%v %s: lent Collect differs from Query (%d rows, want %d)", c.indexed, sql, len(got.Rows), len(want.Rows))
			}
		}
	}
}

// TestCollectAdoptsFullSort: Collect takes a full sort's slice, rows cut back
// to the output width, and still counts each row it returns; EXPLAIN ANALYZE,
// whose root is not the sort, counts the same rows; and a cursor whose
// context is cancelled before its first Next reports the cancellation.
func TestCollectAdoptsFullSort(t *testing.T) {
	const n = 500
	db := identityDB(t, n, false)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	v := func(i int) int { return i * 7919 % 1000 }
	for _, c := range []struct {
		sql   string
		less  func(a, b int) bool
		width int
	}{
		// An identity projection, its key read in place.
		{"SELECT * FROM t ORDER BY v DESC, t.id", func(a, b int) bool { return v(a) > v(b) || v(a) == v(b) && a < b }, 4},
		// A key appended after the output, stripped from the adopted rows.
		{"SELECT id, s FROM t ORDER BY k, v DESC", func(a, b int) bool { return a%7 < b%7 || a%7 == b%7 && v(a) > v(b) }, 2},
	} {
		sort.SliceStable(ids, func(x, y int) bool { return c.less(ids[x], ids[y]) })
		rows, err := db.QueryRows(context.Background(), c.sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if got := rows.Stats().RowsEmitted; got != uint64(len(res.Rows)) || len(res.Rows) != n {
			t.Errorf("%s: %d rows, RowsEmitted %d; want %d of each", c.sql, len(res.Rows), got, n)
		}
		for i, r := range res.Rows {
			if len(r) != c.width || cap(r) != c.width || r[0].AsInt() != int64(ids[i]) {
				t.Fatalf("%s: row %d = %v (cap %d), want id %d and %d columns", c.sql, i, r, cap(r), ids[i], c.width)
			}
		}
		aq, err := db.ExplainAnalyze(context.Background(), c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if aq.rootRows() != n {
			t.Errorf("%s: analyzed root emitted %d rows, want %d", c.sql, aq.rootRows(), n)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryRows(ctx, "SELECT * FROM t ORDER BY v")
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if res, err := rows.Collect(); !errors.Is(err, context.Canceled) {
		t.Errorf("Collect after cancel = %v, %v; want context.Canceled", res, err)
	}
}

// TestSortedIdentityBuildsNoRow: SELECT t.* … ORDER BY t.v over 1,000 heap
// rows builds no row. The sort holds the table's own rows, its key read in
// place, and Collect adopts its slice: a run allocates 68 KB, the plan and
// the sort slice (49 KB as it doubles to 1,024 entries). Building a widened
// copy of every row and appending them all again cost 307 KB; a built row
// costs 160 B, so the ceiling, 80 KB, holds no more than 75 of them.
func TestSortedIdentityBuildsNoRow(t *testing.T) {
	db := identityDB(t, 1000, false)
	const sql = "SELECT t.* FROM t ORDER BY t.v"
	explainPasses(t, db, sql, 4)
	b := bytesPerRun(func() {
		if res, err := db.Query(sql); err != nil || len(res.Rows) != 1000 {
			t.Fatalf("%s: %v", sql, err)
		}
	})
	if b > 80<<10 {
		t.Errorf("%s: %d B a run, ceiling %d: rows are being built", sql, b, 80<<10)
	}
}
