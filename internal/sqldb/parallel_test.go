package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Tests for morsel-driven parallel execution (parallel.go): cancellation
// and cursor-abandonment worker hygiene, EXPLAIN ANALYZE worker annotations
// and the accounting property under parallelism, plus the satellite fast
// paths that rode along (range-shaped DML WHERE, index-served multi-key
// ORDER BY).

// lowerMorselMinRows drops the one size gate so small test corpora take
// the worker pool on a pooled database, restoring it afterwards.
func lowerMorselMinRows(t testing.TB, n int) {
	t.Helper()
	old := morselMinRows
	morselMinRows = n
	t.Cleanup(func() { morselMinRows = old })
}

// assertNoWorkerLeak asserts every spawned worker goroutine has exited.
// The counter is engine-wide and counts the workers of background sealing
// passes too, so it first waits for the background runs in flight — of
// any database, since the suite leaves some open — to end. The suite does
// not run tests in parallel, so zero then means no pool outlived its
// statement.
func assertNoWorkerLeak(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); maintenanceRuns.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := parallelWorkersActive.Load(); n != 0 {
		t.Fatalf("parallelWorkersActive = %d, want 0 (worker goroutines leaked)", n)
	}
}

// bigParallelDB builds a table large enough to parallelize at the default
// threshold, with a worker pool forced on.
func bigParallelDB(t testing.TB, n int) *Database {
	t.Helper()
	db := NewDatabase(WithMaxWorkers(4))
	db.MustExec("CREATE TABLE big (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		db.MustExec("INSERT INTO big VALUES (?, ?, ?)", i, r.Intn(100), r.Intn(1000))
	}
	return db
}

// TestParallelScanCancellation: cancelling the context mid-iteration of a
// parallel scan surfaces ErrCanceled and stops every worker; after Close
// no goroutine lingers and the read lock is released.
func TestParallelScanCancellation(t *testing.T) {
	db := bigParallelDB(t, 8192)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryRows(ctx, "SELECT id, a FROM big WHERE b >= 0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !rows.Next() {
			t.Fatalf("Next() = false at warm-up row %d: %v", i, rows.Err())
		}
	}
	cancel()
	for rows.Next() {
	}
	if CodeOf(rows.Err()) != ErrCanceled {
		t.Fatalf("Err() = %v, want ErrCanceled", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoWorkerLeak(t)
	// The read lock must be free again: a write would deadlock otherwise.
	db.MustExec("INSERT INTO big VALUES (8192, 1, 1)")
}

// TestParallelScanAbandonedCursor: closing a cursor after a partial read
// of a parallel scan stops the pool (no goroutine leak, bounded buffered
// morsels) and releases the lock.
func TestParallelScanAbandonedCursor(t *testing.T) {
	db := bigParallelDB(t, 8192)
	rows, err := db.QueryRows(context.Background(), "SELECT id FROM big WHERE b >= 0")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("Next() = false at row %d: %v", i, rows.Err())
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoWorkerLeak(t)
	db.MustExec("DELETE FROM big WHERE id = 0")
	if got := db.Stats().OpenCursors; got != 0 {
		t.Fatalf("OpenCursors = %d, want 0", got)
	}
}

// TestPooledCursorHoldsNoWorkers: a cursor over a pooled scan gathers the
// whole scan at its first Next, and the pool is joined inside that call, so
// no worker lives while the cursor stays open.
func TestPooledCursorHoldsNoWorkers(t *testing.T) {
	db := bigParallelDB(t, 8192)
	const q = "SELECT id, a FROM big WHERE b >= 0"
	lines, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if text := strings.Join(lines, "\n"); !strings.Contains(text, "workers=4") {
		t.Fatalf("%q must run on the pool:\n%s", q, text)
	}
	rows, err := db.QueryRows(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; i < 100; i++ {
		if !rows.Next() {
			t.Fatalf("Next() = false at row %d: %v", i, rows.Err())
		}
		if n := LiveParallelWorkers(); n != 0 {
			t.Fatalf("LiveParallelWorkers() = %d after Next %d, want 0", n, i+1)
		}
	}
}

// TestHotStructsStayInSizeClass: scanOp, queryCtx and Rows are allocated
// once per statement — a cursor's queryCtx inside its Rows, a write's
// alone — so a field that moves one into the next allocation size class
// shows in the per-statement bytes of a point-read workload (oltp_durable
// bytes_per_op). 352, 256 and 352 bytes are the classes they fill.
func TestHotStructsStayInSizeClass(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, cls uintptr
	}{{"scanOp", unsafe.Sizeof(scanOp{}), 352}, {"queryCtx", unsafe.Sizeof(queryCtx{}), 256}, {"Rows", unsafe.Sizeof(Rows{}), 352}} {
		if c.size > c.cls {
			t.Errorf("%s is %d B, above the %d-byte size class: oltp_durable bytes_per_op grows with it", c.name, c.size, c.cls)
		}
	}
}

// TestParallelExplainAnalyzeWorkersAndAccounting: EXPLAIN ANALYZE renders
// workers=N on pooled batch scans, and the per-operator accounting
// property — the sum of per-operator scanned counts equals the per-query
// RowsScanned — holds when the rows were scanned by a worker pool.
func TestParallelExplainAnalyzeWorkersAndAccounting(t *testing.T) {
	db := bigParallelDB(t, 8192)
	ctx := context.Background()

	a, err := db.ExplainAnalyze(ctx, "SELECT id, a FROM big WHERE b > 100")
	if err != nil {
		t.Fatal(err)
	}
	plan := strings.Join(a.Plan, "\n")
	// One node kind: the pool and the kernels annotate the same line.
	if !strings.Contains(plan, "batch seq scan big (as big) workers=4 vectorized 3/3") {
		t.Fatalf("analyzed plan missing the pooled, vectorized batch scan line:\n%s", plan)
	}
	if !strings.Contains(plan, "batches=") {
		t.Fatalf("analyzed plan missing batches= accounting:\n%s", plan)
	}
	if a.Stats.VectorBatches == 0 {
		t.Fatal("pooled scan ran no vector batches")
	}
	if !strings.Contains(plan, "scanned=") {
		t.Fatalf("analyzed plan missing scanned= accounting:\n%s", plan)
	}
	if got, want := a.scannedTotal(), a.Stats.RowsScanned; got != want {
		t.Fatalf("scan: per-operator scanned %d != per-query RowsScanned %d", got, want)
	}
	if a.Stats.RowsScanned == 0 {
		t.Fatal("parallel scan recorded zero scanned rows")
	}

	a, err = db.ExplainAnalyze(ctx, "SELECT a, COUNT(*), SUM(b) FROM big GROUP BY a")
	if err != nil {
		t.Fatal(err)
	}
	plan = strings.Join(a.Plan, "\n")
	// The aggregate is folded inside the scan's workers; the aggregate
	// node no longer claims "parallel" or "vectorized" for itself.
	if !strings.Contains(plan, "(folded in scan)") ||
		!strings.Contains(plan, "batch seq scan big (as big) workers=4 vectorized 2/2") ||
		strings.Contains(plan, "(parallel") || strings.Contains(plan, "(vectorized)") {
		t.Fatalf("analyzed aggregate plan missing the folded pooled scan:\n%s", plan)
	}
	if a.Stats.VectorBatches == 0 {
		t.Fatal("pooled aggregation ran no vector batches")
	}
	if got, want := a.scannedTotal(), a.Stats.RowsScanned; got != want {
		t.Fatalf("agg: per-operator scanned %d != per-query RowsScanned %d", got, want)
	}
	assertNoWorkerLeak(t)
}

// TestPooledJoinMatchesSerial: a database with a worker pool joins exactly
// as one without — identical output (values and order) over a build side
// above the size gate, NULL build keys dropped, computed build keys. (The
// hash table is built on the owner goroutine either way; the partitioned
// parallel build this test was written for is gone.)
func TestPooledJoinMatchesSerial(t *testing.T) {
	lowerMorselMinRows(t, 64)
	par := NewDatabase(WithMaxWorkers(4))
	ser := NewDatabase(WithMaxWorkers(1))
	r := rand.New(rand.NewSource(13))
	for _, db := range []*Database{par, ser} {
		db.MustExec("CREATE TABLE orders (id INTEGER PRIMARY KEY, cust INTEGER, amt INTEGER)")
		db.MustExec("CREATE TABLE custs (cid INTEGER, region INTEGER)")
	}
	for i := 0; i < 900; i++ {
		var cid any = i % 300
		if i%37 == 0 {
			cid = nil // NULL build keys never join
		}
		region := r.Intn(10)
		for _, db := range []*Database{par, ser} {
			db.MustExec("INSERT INTO custs VALUES (?, ?)", cid, region)
		}
	}
	for i := 0; i < 600; i++ {
		cust, amt := r.Intn(320), r.Intn(500)
		for _, db := range []*Database{par, ser} {
			db.MustExec("INSERT INTO orders VALUES (?, ?, ?)", i, cust, amt)
		}
	}
	queries := []string{
		"SELECT o.id, o.cust, c.region FROM orders o JOIN custs c ON o.cust = c.cid",
		"SELECT o.id, c.region FROM orders o LEFT JOIN custs c ON o.cust = c.cid",
		"SELECT o.id, c.region FROM orders o JOIN custs c ON o.cust = c.cid + 0", // computed build key
	}
	for _, q := range queries {
		want := queryStrings(t, ser, q)
		got := queryStrings(t, par, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("parallel join build diverged on %q (%d vs %d rows)", q, len(got), len(want))
		}
	}
	assertNoWorkerLeak(t)
}

// TestDMLRangeFastPath pins the satellite range-shaped DML WHERE path:
// an UPDATE/DELETE whose WHERE is a range over an indexed column is
// served from the index's ordered view (IndexRangeScans ticks, FullScans
// does not) and mutates exactly the rows the heap walk would.
func TestDMLRangeFastPath(t *testing.T) {
	indexed := NewDatabase()
	plain := NewDatabase()
	indexed.MustExec("CREATE TABLE d (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	indexed.MustExec("CREATE INDEX idx_d_a ON d (a)")
	plain.MustExec("CREATE TABLE d (id INTEGER, a INTEGER, b INTEGER)")
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		var a any = r.Intn(60)
		if r.Intn(9) == 0 {
			a = nil
		}
		b := r.Intn(100)
		indexed.MustExec("INSERT INTO d VALUES (?, ?, ?)", i, a, b)
		plain.MustExec("INSERT INTO d VALUES (?, ?, ?)", i, a, b)
	}
	check := func(dml string, params ...any) {
		t.Helper()
		before := indexed.Stats()
		ni, erri := indexed.Exec(dml, params...)
		after := indexed.Stats()
		np, errp := plain.Exec(dml, params...)
		if erri != nil || errp != nil || ni != np {
			t.Fatalf("%q: indexed (%d, %v) vs plain (%d, %v)", dml, ni, erri, np, errp)
		}
		if got := after.IndexRangeScans - before.IndexRangeScans; got != 1 {
			t.Fatalf("%q: IndexRangeScans delta = %d, want 1 (fast path not taken)", dml, got)
		}
		if after.FullScans != before.FullScans {
			t.Fatalf("%q: FullScans moved %d -> %d, want unchanged", dml, before.FullScans, after.FullScans)
		}
		want := queryStrings(t, plain, "SELECT id, a, b FROM d")
		got := queryStrings(t, indexed, "SELECT id, a, b FROM d")
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%q: table contents diverged", dml)
		}
	}
	check("UPDATE d SET b = b + 1 WHERE a > 40")
	check("UPDATE d SET b = b - 1 WHERE a >= ? AND a < ?", 10, 25)
	check("DELETE FROM d WHERE a BETWEEN 5 AND 9")
	check("DELETE FROM d WHERE ? <= a AND a <= ?", 50, 55)
	check("UPDATE d SET a = a + 1 WHERE a > 57") // SET touches the range column itself

	// A NULL bound matches nothing, on both engines, without a scan.
	before := indexed.Stats()
	ni, err := indexed.Exec("DELETE FROM d WHERE a < ?", nil)
	if err != nil || ni != 0 {
		t.Fatalf("NULL-bound DELETE: (%d, %v), want (0, nil)", ni, err)
	}
	np, err := plain.Exec("DELETE FROM d WHERE a < ?", nil)
	if err != nil || np != 0 {
		t.Fatalf("NULL-bound DELETE (plain): (%d, %v), want (0, nil)", np, err)
	}
	after := indexed.Stats()
	if after.FullScans != before.FullScans || after.RowsScanned != before.RowsScanned {
		t.Fatalf("NULL-bound DELETE walked the heap (FullScans %d -> %d, RowsScanned %d -> %d)",
			before.FullScans, after.FullScans, before.RowsScanned, after.RowsScanned)
	}

	// A range conjunct among others takes the index and filters the rest;
	// a shape no index serves (OR) walks the heap. Both stay equivalent.
	check("UPDATE d SET b = 0 WHERE a > 10 AND b > 90")
	before = indexed.Stats()
	dml := "DELETE FROM d WHERE a > 55 OR b > 95"
	ni, erri := indexed.Exec(dml)
	np, errp := plain.Exec(dml)
	if erri != nil || errp != nil || ni != np {
		t.Fatalf("%q: indexed (%d, %v) vs plain (%d, %v)", dml, ni, erri, np, errp)
	}
	if got := indexed.Stats().IndexRangeScans - before.IndexRangeScans; got != 0 {
		t.Fatalf("non-range DML took the range path (delta %d)", got)
	}
}

// TestOrderByTieSortFromIndex pins the satellite multi-key ORDER BY
// path: `ORDER BY a, b` with an index on a streams the index order and
// tie-sorts runs, so a LIMIT k reads O(k + one run) rows instead of the
// table — while producing exactly the full sort's output.
func TestOrderByTieSortFromIndex(t *testing.T) {
	indexed := NewDatabase()
	plain := NewDatabase()
	indexed.MustExec("CREATE TABLE s (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
	indexed.MustExec("CREATE INDEX idx_s_a ON s (a)")
	plain.MustExec("CREATE TABLE s (id INTEGER, a INTEGER, b INTEGER)")
	r := rand.New(rand.NewSource(5))
	const rows, groups = 2000, 50
	for i := 0; i < rows; i++ {
		var a any = r.Intn(groups)
		if r.Intn(40) == 0 {
			a = nil
		}
		b := r.Intn(10) // small domain: real ties on (a, b) too
		indexed.MustExec("INSERT INTO s VALUES (?, ?, ?)", i, a, b)
		plain.MustExec("INSERT INTO s VALUES (?, ?, ?)", i, a, b)
	}
	for _, q := range []string{
		"SELECT id, a, b FROM s ORDER BY a, b",
		"SELECT id, a, b FROM s ORDER BY a DESC, b",
		"SELECT id, a, b FROM s ORDER BY a, b DESC, id",
		"SELECT id, a, b FROM s ORDER BY a, b LIMIT 17",
		"SELECT id, a, b FROM s ORDER BY a DESC, b DESC LIMIT 9 OFFSET 4",
	} {
		want := queryStrings(t, plain, q)
		got := queryStrings(t, indexed, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("tie-sort diverged on %q", q)
		}
	}
	// The O(k)-ish scan bound: LIMIT 17 must read at most a handful of
	// runs (expected run length rows/groups = 40), nowhere near the table.
	rs, err := indexed.QueryRows(context.Background(), "SELECT id, a, b FROM s ORDER BY a, b LIMIT 17")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rs.Next() {
		n++
	}
	st := rs.Stats()
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 17 {
		t.Fatalf("LIMIT 17 returned %d rows", n)
	}
	if st.OrderedIndexOrders != 1 {
		t.Fatalf("OrderedIndexOrders = %d, want 1 (index did not serve the leading key)", st.OrderedIndexOrders)
	}
	// Two full runs (~80 rows) plus slack is ample; the table is 2000.
	if limit := uint64(rows / 4); st.RowsScanned > limit {
		t.Fatalf("RowsScanned = %d for LIMIT 17, want <= %d (tie-sort not streaming)", st.RowsScanned, limit)
	}
	// The single-key elision must still skip the sort entirely (no
	// regression from widening the gate).
	plan, err := indexed.Explain("SELECT id, a FROM s ORDER BY a LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(plan, "\n")
	if strings.Contains(text, "sort by") || !strings.Contains(text, "ordered index scan") {
		t.Fatalf("single-key ORDER BY regressed:\n%s", text)
	}
	// Multi-key keeps a sort node — but a streaming, presorted one over
	// the ordered scan.
	plan, err = indexed.Explain("SELECT id, a, b FROM s ORDER BY a, b")
	if err != nil {
		t.Fatal(err)
	}
	text = strings.Join(plan, "\n")
	if !strings.Contains(text, "sort by") || !strings.Contains(text, "ordered index scan") {
		t.Fatalf("multi-key ORDER BY did not combine ordered scan + tie-sort:\n%s", text)
	}
}

// TestConcurrentParallelQueries drives several goroutines through
// pooled scans, aggregations and cursors concurrently (with -race in CI)
// while asserting nothing leaks.
func TestConcurrentParallelQueries(t *testing.T) {
	db := bigParallelDB(t, 8192)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch (g + i) % 3 {
				case 0:
					if _, err := db.Query("SELECT id FROM big WHERE b > ?", i*50); err != nil {
						errs <- err
					}
				case 1:
					if _, err := db.Query("SELECT a, COUNT(*), SUM(b) FROM big GROUP BY a"); err != nil {
						errs <- err
					}
				default:
					rows, err := db.QueryRows(ctx, "SELECT id, a FROM big WHERE b >= 0")
					if err != nil {
						errs <- err
						continue
					}
					for j := 0; j < 5 && rows.Next(); j++ {
					}
					if err := rows.Close(); err != nil {
						errs <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	assertNoWorkerLeak(t)
}

// TestParallelFloatAggEquivalence pins the float SUM/AVG parallel path
// (the ROADMAP carried-forward gap). Float addition is not associative,
// so the engine defines its summation order — left-to-right within each
// morsel, then morsels folded in ascending order — making results
// deterministic regardless of worker count or scheduling. On
// exactly-representable values (quarters), every association is exact,
// so serial and parallel results must additionally be bit-identical.
func TestParallelFloatAggEquivalence(t *testing.T) {
	lowerMorselMinRows(t, 8)
	par := NewDatabase(WithMaxWorkers(4))
	ser := NewDatabase(WithMaxWorkers(1))
	r := rand.New(rand.NewSource(17))
	for _, db := range []*Database{par, ser} {
		db.MustExec("CREATE TABLE f (id INTEGER PRIMARY KEY, g INTEGER, v REAL)")
	}
	for i := 0; i < 5000; i++ {
		g := r.Intn(60)
		// Quarters up to ~2^12: sums stay far below 2^53, so every
		// addition order yields the same float64.
		var v any = float64(r.Intn(1<<14)-1<<13) / 4
		if r.Intn(13) == 0 {
			v = nil
		}
		for _, db := range []*Database{par, ser} {
			db.MustExec("INSERT INTO f VALUES (?, ?, ?)", i, g, v)
		}
	}
	// Sanity: the pooled db must actually take the parallel aggregate path
	// for a float SUM, or this property tests nothing.
	plan, err := par.Explain("SELECT SUM(v) FROM f")
	if err != nil {
		t.Fatal(err)
	}
	if text := strings.Join(plan, "\n"); !strings.Contains(text, "(folded in scan)") || !strings.Contains(text, "workers=4") {
		t.Fatalf("float SUM did not plan pooled partial aggregation:\n%s", strings.Join(plan, "\n"))
	}
	queries := []string{
		"SELECT SUM(v), AVG(v), TOTAL(v) FROM f",
		"SELECT g, SUM(v), AVG(v) FROM f GROUP BY g",
		"SELECT g % 7, SUM(v), COUNT(v) FROM f WHERE v > 0 GROUP BY g % 7",
		"SELECT SUM(v) FROM f WHERE id % 3 = 1",
	}
	for _, q := range queries {
		want := queryStrings(t, ser, q)
		got := queryStrings(t, par, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("float aggregation diverged serial vs parallel on %q:\n got %v\nwant %v", q, got, want)
		}
		// Determinism: repeated parallel runs (different morsel claim
		// interleavings) must reproduce the same bits every time.
		for run := 0; run < 4; run++ {
			if again := queryStrings(t, par, q); fmt.Sprint(again) != fmt.Sprint(got) {
				t.Fatalf("float aggregation nondeterministic on %q:\n got %v\nthen %v", q, got, again)
			}
		}
	}
	assertNoWorkerLeak(t)
}

// TestSumOrderOverMixedColumn pins what SUM and TOTAL define for a column
// holding both integers and inexact reals: the exact integer sum, then the
// float parts — left to right within a morsel, morsels in ascending order —
// whatever the worker count and scheduling. An all-integer column keeps no
// float parts at all: SUM stays an exact INTEGER and TOTAL is its REAL image.
func TestSumOrderOverMixedColumn(t *testing.T) {
	lowerMorselMinRows(t, 8)
	par := NewDatabase(WithMaxWorkers(4))
	ser := NewDatabase(WithMaxWorkers(1))
	const n = 3*morselSize + 500
	r := rand.New(rand.NewSource(23))
	rows := make([][]any, n)
	var ints int64
	var serial float64                       // the floats, left to right
	parts := make([]float64, n/morselSize+1) // ... and per morsel
	for i := range rows {
		var v any
		switch r.Intn(4) {
		case 0:
			v = nil
		case 1:
			f := float64(r.Intn(1000))/10 + 0.1 // tenths: inexact in binary
			v, serial = f, serial+f
			parts[i/morselSize] += f
		default:
			iv := r.Intn(1 << 20)
			v, ints = iv, ints+int64(iv)
		}
		rows[i] = []any{i, v, r.Intn(1 << 20)}
	}
	for _, db := range []*Database{par, ser} {
		db.MustExec("CREATE TABLE m (id INTEGER PRIMARY KEY, v INTEGER, w INTEGER)") // INTEGER affinity keeps 0.1 a REAL
		if err := db.InsertRows("m", rows); err != nil {
			t.Fatal(err)
		}
	}
	pooled := float64(ints)
	for _, p := range parts {
		pooled += p
	}
	if pooled == float64(ints)+serial {
		t.Log("this corpus does not tell the two summation orders apart")
	}
	const q = "SELECT SUM(v), TOTAL(v), SUM(w), TOTAL(w) FROM m"
	plan, err := par.Explain(q)
	if err != nil || !strings.Contains(strings.Join(plan, "\n"), "workers=4") {
		t.Fatalf("not a pooled fold (%v):\n%s", err, strings.Join(plan, "\n"))
	}
	for run := 0; run < 5; run++ {
		res, err := par.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0]; !identical(got[0], Float(pooled)) || !identical(got[1], Float(pooled)) {
			t.Fatalf("pooled SUM/TOTAL over the mixed column = %v / %v, want %v (integer sum, then float parts by morsel)", got[0], got[1], pooled)
		}
	}
	res, err := ser.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Rows[0], Float(float64(ints)+serial); !identical(got[0], want) || !identical(got[1], want) {
		t.Fatalf("serial SUM/TOTAL over the mixed column = %v / %v, want %v (integer sum, then the floats in scan order)", got[0], got[1], want)
	}
	for _, db := range []*Database{par, ser} {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0]; got[2].Kind() != KindInt || !identical(got[3], Float(float64(got[2].AsInt()))) {
			t.Fatalf("all-integer SUM/TOTAL = %v / %v, want an exact INTEGER and its REAL image", got[2], got[3])
		}
	}
}
