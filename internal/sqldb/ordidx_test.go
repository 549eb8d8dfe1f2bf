package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Tests for the order-aware planner: ordered/range index scans, sort
// elision, predicate pushdown, index joins, and the correlated-subplan
// cache. Their equivalence under interleaved DML — indexed vs plain vs the
// interpreted reference — is TestDifferential's.

// TestOrderByIndexedLimitScansExactlyK is the acceptance regression: an
// ORDER BY over an indexed column under LIMIT k must stream from index
// order and read exactly the rows it returns — no full sort, no full
// scan. Asserted through the Stats rows-scanned counter, and — the scan
// reading the walk a run at a time — through its batches: the first run is
// the window the LIMIT asks for.
func TestOrderByIndexedLimitScansExactlyK(t *testing.T) {
	db := bigDB(t, 100000)

	before := db.Stats()
	res, err := db.Query("SELECT id FROM big ORDER BY id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"0"}, {"1"}, {"2"}, {"3"}, {"4"}}
	if got := rowsToStrings(res.Rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("ordered limit rows = %v, want %v", got, want)
	}
	if scanned := db.Stats().RowsScanned - before.RowsScanned; scanned != 5 {
		t.Errorf("ORDER BY indexed LIMIT 5 scanned %d rows, want exactly 5", scanned)
	}
	if batches := db.Stats().VectorBatches - before.VectorBatches; batches != 1 {
		t.Errorf("ORDER BY indexed LIMIT 5 read %d runs of the walk, want 1", batches)
	}

	// Range + ORDER BY on the same indexed column: still O(k).
	before = db.Stats()
	res, err = db.Query("SELECT id FROM big WHERE id > 500 ORDER BY id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	want = [][]string{{"501"}, {"502"}, {"503"}, {"504"}, {"505"}}
	if got := rowsToStrings(res.Rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("range+ordered rows = %v, want %v", got, want)
	}
	if scanned := db.Stats().RowsScanned - before.RowsScanned; scanned != 5 {
		t.Errorf("range + ORDER BY LIMIT 5 scanned %d rows, want exactly 5", scanned)
	}

	// DESC walks the ordered view backwards, still O(k).
	before = db.Stats()
	res, err = db.Query("SELECT id FROM big ORDER BY id DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	want = [][]string{{"99999"}, {"99998"}, {"99997"}}
	if got := rowsToStrings(res.Rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("desc ordered rows = %v, want %v", got, want)
	}
	if scanned := db.Stats().RowsScanned - before.RowsScanned; scanned != 3 {
		t.Errorf("ORDER BY DESC LIMIT 3 scanned %d rows, want exactly 3", scanned)
	}

	// OFFSET widens the window but stays O(offset+k).
	before = db.Stats()
	if _, err := db.Query("SELECT id FROM big ORDER BY id LIMIT 5 OFFSET 7"); err != nil {
		t.Fatal(err)
	}
	if scanned := db.Stats().RowsScanned - before.RowsScanned; scanned != 12 {
		t.Errorf("ORDER BY LIMIT 5 OFFSET 7 scanned %d rows, want 12", scanned)
	}
	if batches := db.Stats().VectorBatches - before.VectorBatches; batches != 1 {
		t.Errorf("ORDER BY LIMIT 5 OFFSET 7 read %d runs of the walk, want 1", batches)
	}

	// Under a conjunct the runs double until the window fills: ids 0..4,
	// then 5..14, hold the even ids 0 to 8.
	before = db.Stats()
	if got := queryStrings(t, db, "SELECT id FROM big WHERE id % 2 = 0 ORDER BY id LIMIT 5"); len(got) != 5 || got[4][0] != "8" {
		t.Fatalf("filtered ordered limit rows = %v, want 0, 2, 4, 6, 8", got)
	}
	if batches := db.Stats().VectorBatches - before.VectorBatches; batches != 2 {
		t.Errorf("filtered ORDER BY LIMIT 5 read %d runs of the walk, want 2 (5 then 10 ids)", batches)
	}

	s := db.Stats()
	if s.OrderedIndexOrders == 0 {
		t.Error("OrderedIndexOrders counter did not move")
	}
	if s.IndexRangeScans == 0 {
		t.Error("IndexRangeScans counter did not move")
	}
}

// TestRangeScanReadsOnlyMatchingRows: a range predicate over an indexed
// column must touch only the rows inside the bounds.
func TestRangeScanReadsOnlyMatchingRows(t *testing.T) {
	db := bigDB(t, 100000)
	before := db.Stats()
	res, err := db.Query("SELECT id FROM big WHERE id BETWEEN 100 AND 149")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("BETWEEN returned %d rows, want 50", len(res.Rows))
	}
	if scanned := db.Stats().RowsScanned - before.RowsScanned; scanned != 50 {
		t.Errorf("range scan touched %d rows, want 50", scanned)
	}
	if got := db.Stats().IndexRangeScans - before.IndexRangeScans; got != 1 {
		t.Errorf("IndexRangeScans moved by %d, want 1", got)
	}
}

// TestRangeIDsSizedByRange: a range's ids are collected into one slice
// sized by the ids its entries file, so a sealed 1,000-id range makes that
// allocation of 8,000 B (the 8 KiB size class) and the block's seek
// position. The parent grew the slice from 16 by append: 9 allocations,
// 25 KB.
func TestRangeIDsSizedByRange(t *testing.T) {
	db := bigDB(t, 20000)
	db.Seal()
	db.vacWG.Wait()
	tab := db.tableMap()["big"]
	idx := tab.idxs()[tab.ColumnIndex("id")]
	spec := rangeSpec{lo: &rangeBound{val: Int(5000), incl: true}, hi: &rangeBound{val: Int(5999), incl: true}}
	collect := func() {
		ids, _, err := collectRangeIDs(tab, idx, spec, nil)
		if err != nil || len(ids) != 1000 {
			t.Fatalf("collected %d ids (%v), want 1000", len(ids), err)
		}
	}
	collect() // builds the ordered view
	if raceDetector {
		t.Skip("the race detector's runtime books allocations of its own")
	}
	if n := testing.AllocsPerRun(20, collect); n != 2 {
		t.Errorf("a 1,000-id range allocates %.0f times, want twice", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	collect()
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 8<<10+128 {
		t.Errorf("a 1,000-id range allocates %d B, want at most 8 KiB and a seek position", b)
	}
}

// TestRangeScanPoolGateCountsIDs: an unordered index range is sized by the
// ids its entries file, not by its table, so a range under the morselMinRows
// gate on a 20,000-row table runs serial and one above it on the pool. Both
// return the unindexed filter's rows, in its order.
func TestRangeScanPoolGateCountsIDs(t *testing.T) {
	// Built with four workers, not set after: the seal the load started
	// reads maxWorkers in the background.
	db := bigDB(t, 20000, WithMaxWorkers(4))
	for _, c := range []struct {
		hi     int
		pooled bool
	}{{1099, false}, {100 + morselMinRows + 100, true}} {
		sql := fmt.Sprintf("SELECT id, v FROM big WHERE id BETWEEN 100 AND %d", c.hi)
		lines, err := db.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan := strings.Join(lines, "\n")
		if !strings.Contains(plan, "index range scan") || strings.Contains(plan, "workers=") != c.pooled {
			t.Errorf("%s: pooled=%v wanted, plan:\n%s", sql, c.pooled, plan)
		}
		got, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Query(fmt.Sprintf("SELECT id, v FROM big WHERE id + 0 BETWEEN 100 AND %d", c.hi))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != c.hi-99 || !identical(got.Rows, want.Rows) {
			t.Errorf("%s: %d rows differ from the unindexed filter's %d", sql, len(got.Rows), len(want.Rows))
		}
	}
}

// Fault injection: the property suite must demonstrably fail when the
// incremental-maintenance invariants are broken — otherwise it is not
// actually pinning them (coverage of behaviors under mutation, not lines).

// TestOrderedViewMaintainedAcrossDML: index-order results always reflect
// the heap after each kind of mutation — and the ordered view is
// maintained in place (splice, move, tombstone-skip), never dropped and
// rebuilt between these statements.
func TestOrderedViewMaintainedAcrossDML(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
	db.MustExec("CREATE INDEX idx_k ON t (k)")
	db.MustExec("INSERT INTO t VALUES (1, 10), (2, 30), (3, 20)")

	get := func() [][]string {
		return queryStrings(t, db, "SELECT id FROM t ORDER BY k")
	}
	if got := get(); !reflect.DeepEqual(got, [][]string{{"1"}, {"3"}, {"2"}}) {
		t.Fatalf("initial order = %v", got)
	}
	// White box: the first ordered query built the view; from here on
	// every mutation must maintain that same live view, not invalidate it.
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	idx := tbl.idxs()[tbl.ColumnIndex("k")]
	if idx.ord.Load() == nil {
		t.Fatal("ordered view not built by the first ordered query")
	}

	before := db.Stats()
	db.MustExec("INSERT INTO t VALUES (4, 15)") // lands in the middle
	if got := get(); !reflect.DeepEqual(got, [][]string{{"1"}, {"4"}, {"3"}, {"2"}}) {
		t.Fatalf("after insert = %v", got)
	}
	db.MustExec("UPDATE t SET k = 5 WHERE id = 2") // moves to the front
	if got := get(); !reflect.DeepEqual(got, [][]string{{"2"}, {"1"}, {"4"}, {"3"}}) {
		t.Fatalf("after update = %v", got)
	}
	db.MustExec("DELETE FROM t WHERE id = 4")
	if got := get(); !reflect.DeepEqual(got, [][]string{{"2"}, {"1"}, {"3"}}) {
		t.Fatalf("after delete = %v", got)
	}
	if idx.ord.Load() == nil {
		t.Error("DML invalidated the ordered view instead of maintaining it")
	}
	s := db.Stats()
	if got := s.OrdMaintains - before.OrdMaintains; got < 2 {
		t.Errorf("OrdMaintains moved by %d, want >= 2 (insert splice + update move)", got)
	}
	if got := s.TombstonesSkipped - before.TombstonesSkipped; got == 0 {
		t.Error("TombstonesSkipped did not move across the post-delete ordered scan")
	}
	_, n := tbl.loadSlots()
	dead := 0
	for id := 0; id < n; id++ {
		if latestRow(tbl.head(id)) == nil {
			dead++
		}
	}
	if dead != 1 || n != 4 {
		t.Errorf("heap = %d slots / %d dead, want 4 slots with 1 tombstone (stable ids, no renumbering)",
			n, dead)
	}
}

// TestVacuumReclaimsTombstones: deleted versions invisible to every live
// snapshot are reclaimed by the vacuum — row ids stay stable (slots are
// emptied, never renumbered), the VacuumRuns/VersionsReclaimed counters
// move, and results are unchanged either side of the pass.
func TestVacuumReclaimsTombstones(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
	db.MustExec("CREATE INDEX idx_t_k ON t (k)")
	rows := make([][]any, 400)
	for i := range rows {
		rows[i] = []any{i, i % 37}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	// Delete 75% of the table in stripes; 300 dead versions cross the
	// background-vacuum threshold, and the explicit pass below makes the
	// reclamation deterministic regardless of goroutine scheduling.
	for m := 0; m < 3; m++ {
		db.MustExec("DELETE FROM t WHERE id % 4 = ?", m)
	}
	db.Vacuum()
	s := db.Stats()
	if s.VacuumRuns == before.VacuumRuns {
		t.Error("VacuumRuns did not move after an explicit Vacuum")
	}
	if got := s.VersionsReclaimed - before.VersionsReclaimed; got != 300 {
		t.Errorf("VersionsReclaimed moved by %d, want 300 (one per deleted row)", got)
	}
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	_, n := tbl.loadSlots()
	if n != 400 {
		t.Errorf("slot count = %d after vacuum, want 400 (stable row ids)", n)
	}
	empty := 0
	for id := 0; id < n; id++ {
		if tbl.head(id) == nil {
			empty++
		}
	}
	if empty != 300 {
		t.Errorf("emptied slots = %d, want 300 (all reclaimed chains)", empty)
	}
	got := queryStrings(t, db, "SELECT COUNT(*) FROM t")
	if !reflect.DeepEqual(got, [][]string{{"100"}}) {
		t.Fatalf("live rows after vacuum = %v, want 100", got)
	}
	// Ordered results reflect exactly the survivors.
	res := queryStrings(t, db, "SELECT id FROM t WHERE k = 3 ORDER BY id")
	want := [][]string{}
	for i := 3; i < 400; i += 37 {
		if i%4 == 3 {
			want = append(want, []string{fmt.Sprint(i)})
		}
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("post-vacuum equality scan = %v, want %v", res, want)
	}
}

// TestIndexEqualityNullLiteralNeverMatches pins the `col = NULL` bug the
// NoREC metamorphic property found: the indexed access path used to
// serve the NULL key's rows for an equality whose comparand is NULL,
// while SQL says the predicate is never true of any row.
func TestIndexEqualityNullLiteralNeverMatches(t *testing.T) {
	indexed := NewDatabase()
	indexed.MustExec("CREATE TABLE z (id INTEGER PRIMARY KEY, k INTEGER)")
	indexed.MustExec("CREATE INDEX idx_z_k ON z (k)")
	plain := NewDatabase()
	plain.MustExec("CREATE TABLE z (id INTEGER, k INTEGER)")
	for _, db := range []*Database{indexed, plain} {
		db.MustExec("INSERT INTO z VALUES (1, NULL), (2, 5), (3, NULL)")
	}
	for _, sql := range []string{
		"SELECT id FROM z WHERE k = NULL",
		"SELECT COUNT(*) FROM z WHERE k = NULL",
		"SELECT id FROM z WHERE k = NULL AND id > 0",
	} {
		gi := queryStrings(t, indexed, sql)
		gp := queryStrings(t, plain, sql)
		if !reflect.DeepEqual(gi, gp) {
			t.Errorf("%q: indexed %v vs plain %v", sql, gi, gp)
		}
	}
	// And through the DML fast path: `= NULL` must delete nothing.
	if n, err := indexed.Exec("DELETE FROM z WHERE k = ?", nil); err != nil || n != 0 {
		t.Errorf("DELETE WHERE k = NULL affected %d rows (err %v), want 0", n, err)
	}
}

// TestLeftJoinRightPredicateNotPushed: predicates over the nullable side
// of a LEFT JOIN must evaluate after NULL extension. Pushing `r.v IS
// NULL` below the join would empty the right input and NULL-extend every
// left row — the classic pushdown bug.
func TestLeftJoinRightPredicateNotPushed(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE l (k INTEGER PRIMARY KEY)")
	db.MustExec("CREATE TABLE r (k INTEGER PRIMARY KEY, v INTEGER)")
	db.MustExec("INSERT INTO l VALUES (1), (2), (3)")
	db.MustExec("INSERT INTO r VALUES (1, 10)")

	got := queryStrings(t, db, "SELECT l.k, r.v FROM l LEFT JOIN r ON l.k = r.k WHERE r.v IS NULL ORDER BY l.k")
	want := [][]string{{"2", "NULL"}, {"3", "NULL"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("IS NULL over LEFT JOIN right side = %v, want %v", got, want)
	}

	got = queryStrings(t, db, "SELECT l.k, r.v FROM l LEFT JOIN r ON l.k = r.k WHERE r.v > 5")
	want = [][]string{{"1", "10"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("right-side range over LEFT JOIN = %v, want %v", got, want)
	}

	// Left-side predicates are safe to push below a LEFT JOIN.
	got = queryStrings(t, db, "SELECT l.k, r.v FROM l LEFT JOIN r ON l.k = r.k WHERE l.k > 1 ORDER BY l.k")
	want = [][]string{{"2", "NULL"}, {"3", "NULL"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("left-side pushdown under LEFT JOIN = %v, want %v", got, want)
	}
}

// TestPushdownBelowJoins: single-table conjuncts move below the join and
// show up as per-input filters (or index restrictions) in EXPLAIN, and
// the results match an unindexed database planning the same query.
func TestPushdownBelowJoins(t *testing.T) {
	build := func(withIndexes bool) *Database {
		db := NewDatabase()
		if withIndexes {
			db.MustExec("CREATE TABLE a (id INTEGER PRIMARY KEY, v INTEGER)")
			db.MustExec("CREATE TABLE b (id INTEGER PRIMARY KEY, aid INTEGER, w INTEGER)")
			db.MustExec("CREATE INDEX idx_b_aid ON b (aid)")
		} else {
			db.MustExec("CREATE TABLE a (id INTEGER, v INTEGER)")
			db.MustExec("CREATE TABLE b (id INTEGER, aid INTEGER, w INTEGER)")
		}
		for i := 0; i < 40; i++ {
			db.MustExec("INSERT INTO a VALUES (?, ?)", i, i*3%17)
			db.MustExec("INSERT INTO b VALUES (?, ?, ?)", i, i%40, i*7%23)
		}
		return db
	}
	indexed, plain := build(true), build(false)
	const sql = "SELECT a.id, b.w FROM a JOIN b ON a.id = b.aid WHERE a.v > 4 AND b.w < 15 AND a.v + b.w < 30 ORDER BY a.id, b.id"
	ri, err := indexed.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsToStrings(ri.Rows), rowsToStrings(rp.Rows)) {
		t.Fatalf("pushdown plans disagree:\nindexed %v\nplain   %v", rowsToStrings(ri.Rows), rowsToStrings(rp.Rows))
	}
	lines, err := indexed.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	out := strings.Join(lines, "\n")
	if !strings.Contains(out, "filter (a.v > 4)") {
		t.Errorf("left conjunct should be pushed below the join:\n%s", out)
	}
	if !strings.Contains(out, "filter (b.w < 15)") {
		t.Errorf("right conjunct should be pushed below the join:\n%s", out)
	}
	if !strings.Contains(out, "filter ((a.v + b.w) < 30)") {
		t.Errorf("multi-table conjunct must stay above the join:\n%s", out)
	}
}

// TestIndexJoinMatchesHashJoin: with both join keys indexed and a top-level
// ORDER BY, the planner probes the right input's index row by row; the
// result set must match the unindexed hash-join plan.
func TestIndexJoinMatchesHashJoin(t *testing.T) {
	build := func(withIndexes bool) *Database {
		db := NewDatabase()
		ddlA, ddlB := "CREATE TABLE a (k INTEGER, v INTEGER)", "CREATE TABLE b (k INTEGER, w INTEGER)"
		db.MustExec(ddlA)
		db.MustExec(ddlB)
		if withIndexes {
			db.MustExec("CREATE INDEX idx_a_k ON a (k)")
			db.MustExec("CREATE INDEX idx_b_k ON b (k)")
		}
		r := rand.New(rand.NewSource(5))
		for i := 0; i < 60; i++ {
			var ka any = r.Intn(12) // duplicates on both sides
			if r.Intn(10) == 0 {
				ka = nil // NULL keys never join
			}
			db.MustExec("INSERT INTO a VALUES (?, ?)", ka, i)
		}
		for i := 0; i < 40; i++ {
			var kb any = r.Intn(15)
			if r.Intn(10) == 0 {
				kb = nil
			}
			db.MustExec("INSERT INTO b VALUES (?, ?)", kb, i)
		}
		return db
	}
	indexed, plain := build(true), build(false)
	// v, w make each row unique so the ORDER BY is total and comparison exact.
	const sql = "SELECT a.k, a.v, b.w FROM a JOIN b ON a.k = b.k ORDER BY a.k, a.v, b.w"
	lines, err := indexed.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if out := strings.Join(lines, "\n"); !strings.Contains(out, "index nested loop join on a.k = b.k (index idx_b_k on b)") {
		t.Fatalf("both-indexed equi-join under ORDER BY should probe b's index:\n%s", out)
	}
	ri, err := indexed.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsToStrings(ri.Rows), rowsToStrings(rp.Rows)) {
		t.Fatalf("index join disagrees with hash join:\nindex %v\nhash  %v",
			rowsToStrings(ri.Rows), rowsToStrings(rp.Rows))
	}
}

// TestSubplanCacheRebindsOuterRow: a cached correlated subplan must
// produce per-outer-row answers — the plan is reused, the outer binding
// is not.
func TestSubplanCacheRebindsOuterRow(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE o (id INTEGER PRIMARY KEY, x INTEGER)")
	db.MustExec("CREATE TABLE i (id INTEGER PRIMARY KEY, y INTEGER)")
	db.MustExec("INSERT INTO o VALUES (1, 5), (2, 15), (3, 0)")
	db.MustExec("INSERT INTO i VALUES (1, 3), (2, 10), (3, 20)")

	// Scalar subquery with aggregation: the groupOp inside the cached
	// subplan must fully rebuild per probe.
	got := queryStrings(t, db,
		"SELECT id, (SELECT MAX(y) FROM i WHERE i.y <= o.x) FROM o ORDER BY id")
	want := [][]string{{"1", "3"}, {"2", "10"}, {"3", "NULL"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("correlated scalar subquery = %v, want %v", got, want)
	}

	// Correlated EXISTS and IN over the cached subplan.
	got = queryStrings(t, db,
		"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.y < o.x) ORDER BY id")
	want = [][]string{{"1"}, {"2"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("correlated EXISTS = %v, want %v", got, want)
	}
	got = queryStrings(t, db,
		"SELECT id FROM o WHERE o.x IN (SELECT y FROM i) ORDER BY id")
	if want := [][]string{}; len(got) != 0 {
		t.Errorf("IN subquery = %v, want %v", got, want)
	}
}

// TestSubplanCacheStats: N outer probes of a cacheable subplan cost one
// plan build (miss) and N-1 cached re-pulls (hits).
func TestSubplanCacheStats(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE o (id INTEGER PRIMARY KEY)")
	db.MustExec("CREATE TABLE i (oid INTEGER)")
	for k := 0; k < 20; k++ {
		db.MustExec("INSERT INTO o VALUES (?)", k)
		if k%2 == 0 {
			db.MustExec("INSERT INTO i VALUES (?)", k)
		}
	}
	before := db.Stats()
	res, err := db.Query("SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.oid = o.id)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("EXISTS rows = %d, want 10", len(res.Rows))
	}
	s := db.Stats()
	if hits := s.SubplanCacheHits - before.SubplanCacheHits; hits != 19 {
		t.Errorf("subplan cache hits = %d, want 19 (20 probes, 1 build)", hits)
	}
	if misses := s.SubplanCacheMisses - before.SubplanCacheMisses; misses != 1 {
		t.Errorf("subplan cache misses = %d, want 1", misses)
	}

	// A derived table in the subquery's FROM disables the cache: every
	// probe re-plans and counts as a miss.
	before = db.Stats()
	if _, err := db.Query(
		"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM (SELECT oid FROM i) d WHERE d.oid = o.id)"); err != nil {
		t.Fatal(err)
	}
	s = db.Stats()
	if hits := s.SubplanCacheHits - before.SubplanCacheHits; hits != 0 {
		t.Errorf("non-cacheable subplan hits = %d, want 0", hits)
	}
	if misses := s.SubplanCacheMisses - before.SubplanCacheMisses; misses != 20 {
		t.Errorf("non-cacheable subplan misses = %d, want 20", misses)
	}
}

// TestDistinctOrderByNonOutputKeyNotElided: DISTINCT keeps each group's
// first-arriving row, and ORDER BY on a non-output column sorts groups
// by that representative's key — so the sort must not be elided into
// index order, which would change which representative wins. The indexed
// and plain databases must agree.
func TestDistinctOrderByNonOutputKeyNotElided(t *testing.T) {
	build := func(withIndex bool) *Database {
		db := NewDatabase()
		db.MustExec("CREATE TABLE t (a INTEGER, b INTEGER)")
		if withIndex {
			db.MustExec("CREATE INDEX idx_t_b ON t (b)")
		}
		db.MustExec("INSERT INTO t VALUES (1, 5), (1, 1), (2, 3)")
		return db
	}
	const sql = "SELECT DISTINCT a FROM t ORDER BY b"
	gi := queryStrings(t, build(true), sql)
	gp := queryStrings(t, build(false), sql)
	if !reflect.DeepEqual(gi, gp) {
		t.Errorf("DISTINCT ORDER BY non-output key depends on index: indexed %v vs plain %v", gi, gp)
	}
	// With the key in the output the groups carry it, and index order is
	// safe — both databases agree and the result is key-ordered.
	const sql2 = "SELECT DISTINCT a, b FROM t ORDER BY b"
	gi2 := queryStrings(t, build(true), sql2)
	gp2 := queryStrings(t, build(false), sql2)
	if !reflect.DeepEqual(gi2, gp2) {
		t.Errorf("DISTINCT ORDER BY output key diverged: indexed %v vs plain %v", gi2, gp2)
	}
}

// TestCorrelatedProbeScansOnlyMatches: a correlated EXISTS over an
// unindexed column builds its transient hash memo once and then touches
// only matching rows — the per-probe scan is gone — and both the probe
// and the cached subplan surface in EXPLAIN.
func TestCorrelatedProbeScansOnlyMatches(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE o (id INTEGER PRIMARY KEY)")
	db.MustExec("CREATE TABLE i (oid INTEGER, v INTEGER)") // oid unindexed
	for k := 0; k < 50; k++ {
		db.MustExec("INSERT INTO o VALUES (?)", k)
	}
	for k := 0; k < 500; k++ {
		db.MustExec("INSERT INTO i VALUES (?, ?)", k%25, k)
	}
	const sql = "SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.oid = o.id)"
	before := db.Stats()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 25 {
		t.Fatalf("EXISTS rows = %d, want 25", len(res.Rows))
	}
	// 50 outer rows scanned plus one matching inner row per successful
	// probe (EXISTS stops at the first): 50 + 25, not 50 + 50*500.
	if scanned := db.Stats().RowsScanned - before.RowsScanned; scanned != 75 {
		t.Errorf("correlated EXISTS scanned %d rows, want 75", scanned)
	}
	lines, err := db.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	out := strings.Join(lines, "\n")
	if !strings.Contains(out, "subplan (compiled once, outer row rebound per probe)") {
		t.Errorf("EXPLAIN should surface the cached subplan:\n%s", out)
	}
	if !strings.Contains(out, "correlated probe i (as i) on i.oid = o.id (via transient hash memo)") {
		t.Errorf("EXPLAIN should surface the correlated probe:\n%s", out)
	}
}

// TestTopKSortMatchesFullSort: when no index can serve the order, the
// bounded top-k heap must agree with the full stable sort — including
// tie-breaking by input order.
func TestTopKSortMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (seq INTEGER, k INTEGER)") // k unindexed: sort path
	var rows [][]any
	for i := 0; i < 500; i++ {
		rows = append(rows, []any{i, r.Intn(9)}) // heavy ties
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	for _, shape := range []string{
		"SELECT seq, k FROM t ORDER BY k LIMIT %d",
		"SELECT seq, k FROM t ORDER BY k DESC LIMIT %d",
		"SELECT seq, k FROM t ORDER BY k LIMIT %d OFFSET 13",
		"SELECT seq, k FROM t ORDER BY k, seq DESC LIMIT %d",
	} {
		for _, k := range []int{0, 1, 7, 499, 600} {
			sql := fmt.Sprintf(shape, k)
			limited, err := db.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			full, err := db.Query(strings.Split(sql, " LIMIT ")[0])
			if err != nil {
				t.Fatal(err)
			}
			want := rowsToStrings(full.Rows)
			off := 0
			if strings.Contains(sql, "OFFSET") {
				off = 13
			}
			if off > len(want) {
				off = len(want)
			}
			end := off + k
			if end > len(want) {
				end = len(want)
			}
			want = want[off:end]
			if got := rowsToStrings(limited.Rows); !reflect.DeepEqual(got, append([][]string{}, want...)) {
				t.Fatalf("top-k disagrees with full sort on %q:\ngot  %v\nwant %v", sql, got, want)
			}
		}
	}
}

// TestPureUpdateWorkloadBoundsOrderedView: a workload that only updates
// an indexed column must not grow the ordered view without bound. Under
// MVCC the superset index keeps old-key entries until the vacuum unlinks
// the dead versions and removes their entries; after a vacuum pass the
// same live view must hold only the live values again.
func TestPureUpdateWorkloadBoundsOrderedView(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
	db.MustExec("CREATE INDEX idx_t_k ON t (k)")
	for i := 0; i < 8; i++ {
		db.MustExec("INSERT INTO t VALUES (?, ?)", i, i)
	}
	db.MustExec("SELECT id FROM t ORDER BY k LIMIT 1") // build the view
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	idx := tbl.idxs()[tbl.ColumnIndex("k")]
	for round := 0; round < 500; round++ {
		// Every round moves each row to a brand-new distinct value.
		db.MustExec("UPDATE t SET k = k + 8 WHERE id = ?", round%8)
		if _, err := db.Query("SELECT id FROM t ORDER BY k"); err != nil {
			t.Fatal(err)
		}
	}
	db.Vacuum() // deterministic sweep: drop dead versions and their entries
	got := queryStrings(t, db, "SELECT id FROM t ORDER BY k")
	if len(got) != 8 {
		t.Fatalf("ordered scan returned %d rows, want 8", len(got))
	}
	if n := len(viewEntries(tbl, idx)); n > 8 {
		t.Fatalf("ordered view holds %d entries after vacuum, want <= 8 live values", n)
	}
}
