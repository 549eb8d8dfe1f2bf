package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestConcurrentQueriesShareCachedPlans(t *testing.T) {
	db := testDB(t)
	queries := []string{
		"SELECT m.title, COUNT(r.id) FROM movies m JOIN reviews r ON m.id = r.movie_id GROUP BY m.title ORDER BY 2 DESC",
		"SELECT * FROM movies WHERE id = 3",
		"SELECT DISTINCT genre FROM movies ORDER BY genre",
		"SELECT title FROM movies WHERE revenue > (SELECT AVG(revenue) FROM movies)",
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				for _, q := range queries {
					if _, err := db.Query(q); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentOrderedBuildsCursorStatsAndAnalyze interleaves the
// surfaces the race detector guards after the analyze work: DML
// invalidates every ordered view, then concurrent readers race to
// trigger the first lazy rebuild while streaming cursors mutate their
// own per-query stats recorders (Rows.Stats mid-iteration), Stats()
// snapshots the aggregate, and ExplainAnalyze runs fully instrumented
// executions alongside.
func TestConcurrentOrderedBuildsCursorStatsAndAnalyze(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
	db.MustExec("CREATE INDEX idx_t_k ON t (k)")
	rows := make([][]any, 2000)
	for i := range rows {
		rows[i] = []any{i, i % 97}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 10; round++ {
		// Invalidate the ordered views so the readers below race to build.
		db.MustExec("UPDATE t SET k = k + 1 WHERE id % 7 = ?", round%7)
		var wg sync.WaitGroup
		for w := 0; w < 6; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if _, err := db.Query("SELECT id FROM t WHERE k > 3 ORDER BY k LIMIT 5"); err != nil {
					t.Error(err)
					return
				}
				rows, err := db.QueryRows(ctx, "SELECT id, k FROM t WHERE k > ?", w)
				if err != nil {
					t.Error(err)
					return
				}
				for rows.Next() {
					_ = rows.Stats()
				}
				if err := rows.Err(); err != nil {
					t.Error(err)
				}
				_ = rows.Stats()
				rows.Close()
				db.Stats()
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := db.ExplainAnalyze(ctx,
				"SELECT id FROM t WHERE k > 2 ORDER BY k DESC LIMIT 3"); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
	}
}

func TestConcurrentCursorsAndStats(t *testing.T) {
	// Streaming cursors on many goroutines share the read lock while
	// Stats() snapshots counters concurrently — the surface the race
	// detector watches.
	db := testDB(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rows, err := db.QueryRows(ctx, "SELECT title, revenue FROM movies WHERE revenue > ?", i%200)
				if err != nil {
					t.Error(err)
					return
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					t.Error(err)
				}
				rows.Close()
				db.Stats()
			}
		}()
	}
	wg.Wait()
}

// TestSealedReadersAcrossSealAndRehydrate: readers holding old snapshots —
// open transactions, half-drained cursors, the block arrays their scans
// captured — run while a writer seals, moves value between rows of sealed
// blocks (rehydrating them), rolls some of that back and vacuums. Every
// read must see whole, consistent state: the row count, the sum the
// transfers conserve, one row per id, a range's every row, and a join's
// every match; the indexes end exact. Its proof (recorded with the change):
// unpublishing a block before its rehydrated heads are installed fails it.
// The subtests pin the directory's publish orders one step at a time.
func TestSealedReadersAcrossSealAndRehydrate(t *testing.T) {
	t.Run("cursor captured before the seal", sealedCursorKeepsSnapshot)
	t.Run("sealed morsels hold no run", sealDropsRuns)
	const rows, each = 4 * segBlockSlots, 10
	db := NewDatabase(WithMaxWorkers(2))
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, s TEXT)")
	db.MustExec("CREATE TABLE u (id INTEGER PRIMARY KEY)")
	data := make([][]any, rows)
	for i := range data {
		data[i] = []any{i, each, fmt.Sprint("s", i%7)}
	}
	if err := db.InsertRows("t", data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i += 41 {
		db.MustExec("INSERT INTO u VALUES (?)", i)
	}
	db.Seal()
	ctx := context.Background()
	fail := func(format string, args ...any) { t.Errorf(format, args...) }
	got := func(q *Result) []Row {
		if q == nil {
			return nil
		}
		return q.Rows
	}
	whole := func(q *Result, err error) {
		if err != nil || len(q.Rows) != 1 || q.Rows[0][0].AsInt() != rows || q.Rows[0][1].AsInt() != rows*each {
			fail("whole-table read = %v (%v), want [[%d %d]]", got(q), err, rows, rows*each)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; !stop.Load() && !t.Failed(); i++ {
				id := r.Intn(rows - 100)
				switch i % 5 {
				case 0:
					whole(db.Query("SELECT COUNT(*), SUM(v) FROM t"))
				case 1:
					if q, err := db.Query("SELECT v, s FROM t WHERE id = ?", id); err != nil || len(q.Rows) != 1 {
						fail("point read of %d = %v (%v), want one row", id, got(q), err)
					}
				case 2:
					if q, err := db.Query("SELECT COUNT(*) FROM t WHERE id BETWEEN ? AND ?", id, id+99); err != nil || q.Rows[0][0].AsInt() != 100 {
						fail("range read at %d = %v (%v), want 100 rows", id, got(q), err)
					}
				case 3:
					if q, err := db.Query("SELECT COUNT(*) FROM u JOIN t ON u.id = t.id"); err != nil || q.Rows[0][0].AsInt() != (rows+40)/41 {
						fail("join = %v (%v), want %d matches", got(q), err, (rows+40)/41)
					}
				default: // an old snapshot and a half-drained cursor outlive the writer's next moves
					tx := db.Begin()
					whole(tx.Query("SELECT COUNT(*), SUM(v) FROM t"))
					cur, err := db.QueryRows(ctx, "SELECT id, v FROM t")
					n, sum := 0, int64(0)
					for err == nil && cur.Next() {
						if n, sum = n+1, sum+cur.Row()[1].AsInt(); n == rows/2 {
							time.Sleep(time.Millisecond)
						}
					}
					if err == nil {
						err = cur.Close()
					}
					if err != nil || n != rows || sum != rows*each {
						fail("a cursor across the writer read %d rows summing %d (%v), want %d summing %d", n, sum, err, rows, rows*each)
					}
					whole(tx.Query("SELECT COUNT(*), SUM(v) FROM t"))
					_ = tx.Rollback()
				}
			}
		}(w)
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 150 && !t.Failed(); i++ {
		a, b, x := r.Intn(rows), r.Intn(rows), 1+r.Intn(5)
		tx := db.Begin()
		if _, err := tx.Exec("UPDATE t SET v = v - ? WHERE id = ?", x, a); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec("UPDATE t SET v = v + ? WHERE id = ?", x, b); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			_ = tx.Rollback()
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		// Seal again: once the readers' snapshots have moved past the moves,
		// the vacuum leaves one version a slot and the blocks freeze.
		for try := 0; i%4 == 3 && try < 100; try++ {
			if db.Vacuum(); db.Seal() > 0 {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("sealed %d blocks, rehydrated %d", db.Stats().SegmentsSealed, rehydrations(db))
	if db.Stats().SegmentsSealed <= rows/segBlockSlots || rehydrations(db) == 0 {
		t.Fatalf("the writer sealed %d blocks and rehydrated %d: it must do both", db.Stats().SegmentsSealed, rehydrations(db))
	}
	if err := checkIndexesExact(db, "t"); err != nil {
		t.Fatal(err)
	}
}

// sealedCursorKeepsSnapshot: a serial scan captures the directory — a run
// for every morsel — and reads one row; then every morsel is sealed, one
// is rehydrated by an UPDATE, one by a DELETE, one by a transaction that
// rolls back, and the heap tail loses a row. The scan reads on through the
// runs it captured and must see exactly its snapshot: every id once, in
// order, with its first value; a fresh read sees every committed change.
func sealedCursorKeepsSnapshot(t *testing.T) {
	const rows, each = 3*segBlockSlots + 100, 10
	db := NewDatabase(WithMaxWorkers(1))
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	data := make([][]any, rows)
	for i := range data {
		data[i] = []any{i, each}
	}
	if err := db.InsertRows("t", data); err != nil {
		t.Fatal(err)
	}
	cur, err := db.QueryRows(context.Background(), "SELECT id, v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Next() {
		t.Fatal("the cursor read no first row")
	}
	n, sum := 1, cur.Row()[1].AsInt()
	if sealed := db.Seal(); sealed != 3*segBlockSlots {
		t.Fatalf("Seal() sealed %d rows under the open cursor, want %d", sealed, 3*segBlockSlots)
	}
	db.MustExec("UPDATE t SET v = v + 5 WHERE id = ?", segBlockSlots+1)
	db.MustExec("DELETE FROM t WHERE id = ?", 2*segBlockSlots+7)
	tx := db.Begin()
	if _, err := tx.Exec("UPDATE t SET v = 0 WHERE id < 100"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	db.MustExec("DELETE FROM t WHERE id = ?", rows-1)
	if rehydrations(db) != 3 {
		t.Fatalf("rehydrated %d blocks, want 3", rehydrations(db))
	}
	for cur.Next() {
		if id := cur.Row()[0].AsInt(); id != int64(n) {
			t.Fatalf("the cursor read id %d as its row %d", id, n)
		}
		n, sum = n+1, sum+cur.Row()[1].AsInt()
	}
	if err := cur.Err(); err != nil || n != rows || sum != rows*each {
		t.Fatalf("the cursor read %d rows summing %d (%v), want %d summing %d", n, sum, err, rows, rows*each)
	}
	got := queryStrings(t, db, "SELECT COUNT(*), SUM(v) FROM t")
	if want := fmt.Sprint(rows-2, " ", (rows-2)*each+5); got[0][0]+" "+got[0][1] != want {
		t.Fatalf("a fresh read = %v, want %s", got, want)
	}
}

// sealDropsRuns: after Seal() every full morsel's run is nil and the heap
// tail keeps its own; one UPDATE gives exactly its morsel a run again.
func sealDropsRuns(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	data := make([][]any, 3*segBlockSlots+10)
	for i := range data {
		data[i] = []any{i, i}
	}
	if err := db.InsertRows("t", data); err != nil {
		t.Fatal(err)
	}
	db.Seal()
	tbl := db.tableMap()["t"]
	runs := func(want ...bool) {
		t.Helper()
		dir, _ := tbl.loadSlots()
		for m, run := range dir {
			if (run != nil) != want[m] {
				t.Fatalf("morsel %d has a run: %v, want %v", m, run != nil, want[m])
			}
		}
	}
	runs(false, false, false, true)
	db.MustExec("UPDATE t SET v = -1 WHERE id = ?", segBlockSlots+3)
	runs(false, true, false, true)
	if sealedBlocks(tbl) != 2 || tbl.block(1) != nil {
		t.Fatal("the UPDATE did not unpublish exactly block 1")
	}
}
