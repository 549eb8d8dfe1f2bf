package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for index maintenance in proportion to the change: the vacuum and
// rollback remove exactly the entries of the versions they unlink, and the
// ordered view takes adds and removes chunk by chunk. The oracle is exact
// — every index must equal, as sets of (key, ids), what a bulk build over
// the surviving versions yields — and comes with the proof that it can
// fail.

// viewEntries flattens the ordered view of an index of t (building it if
// needed).
func viewEntries(t *Table, idx *Index) []*ordEntry {
	v, err := idx.orderedView(t)
	if err != nil {
		panic(err)
	}
	var out []*ordEntry
	for _, page := range v {
		for _, chunk := range page {
			out = append(out, chunk.ents...)
		}
	}
	return out
}

// checkIndexesExact compares every index of table name with a reference
// built here from the surviving versions of every chain — the same walk
// CREATE INDEX does. Postings must match exactly, hash class by hash class:
// a class lists, ascending, the slots that have a reachable version whose key
// hashes there, its lowest apart from the rest, and no class is empty. A live
// ordered view must hold the (value, ids) pairs of the same versions strictly
// ascending, in well-formed chunks and pages: none empty, none over
// ordChunkCap. The writer latch keeps the background vacuum out meanwhile.
func checkIndexesExact(db *Database, name string) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	t, err := db.lookupTable(name)
	if err != nil {
		return err
	}
	for col, idx := range t.idxs() {
		want := make(map[string][]int)      // by value, for the view
		wantClass := make(map[uint32][]int) // by hash class, for the postings
		if err := t.reachable(idx.Column, func(v Value, id int) {
			k, h := v.Key(), hashKey(indexKey(v))
			if ids := want[k]; len(ids) == 0 || ids[len(ids)-1] != id {
				want[k] = append(ids, id)
			}
			if ids := wantClass[h]; len(ids) == 0 || ids[len(ids)-1] != id {
				wantClass[h] = append(ids, id)
			}
		}); err != nil {
			return err
		}
		idx.mu.Lock()
		got := make(map[uint32][]int, len(idx.first))
		var malformed error
		for h, low := range idx.first {
			got[h] = []int{int(low)}
			for _, id := range idx.rest[h] {
				if id <= uint32(got[h][len(got[h])-1]) {
					malformed = fmt.Errorf("index %s.%s: class %08x lists %d then %d", name, col, h, got[h], id)
				}
				got[h] = append(got[h], int(id))
			}
		}
		for h, ids := range idx.rest {
			if _, ok := idx.first[h]; !ok || len(ids) == 0 {
				malformed = fmt.Errorf("index %s.%s: class %08x keeps %v beside no lowest id", name, col, h, ids)
			}
		}
		idx.mu.Unlock()
		if malformed != nil {
			return malformed
		}
		for h, ids := range wantClass {
			if !reflect.DeepEqual(got[h], ids) {
				return fmt.Errorf("index %s.%s: class %08x has ids %v, surviving versions hash %v there", name, col, h, got[h], ids)
			}
		}
		for h, ids := range got {
			if _, ok := wantClass[h]; !ok {
				return fmt.Errorf("index %s.%s: class %08x lists ids %v no surviving version hashes to", name, col, h, ids)
			}
		}
		vp := idx.ord.Load()
		if vp == nil {
			continue
		}
		entries := 0
		var last *ordEntry
		for pi, page := range *vp {
			if len(page) == 0 || len(page) > ordChunkCap {
				return fmt.Errorf("view %s.%s: page %d holds %d chunks", name, col, pi, len(page))
			}
			for ci, chunk := range page {
				if len(chunk.ents) == 0 || len(chunk.ents) > ordChunkCap {
					return fmt.Errorf("view %s.%s: chunk %d of page %d holds %d entries", name, col, ci, pi, len(chunk.ents))
				}
				for _, e := range chunk.ents { // last carries over chunk and page boundaries
					if last != nil && last.val.Compare(e.val) >= 0 {
						return fmt.Errorf("view %s.%s: %v does not sort before %v (page %d)", name, col, last.val, e.val, pi)
					}
					if ids := e.entryIDs(); !reflect.DeepEqual(ids, want[e.val.Key()]) {
						return fmt.Errorf("view %s.%s: entry %v has ids %v, surviving versions carry %v",
							name, col, e.val, ids, want[e.val.Key()])
					}
					last = e
					entries++
				}
			}
		}
		if entries != len(want) {
			return fmt.Errorf("view %s.%s: %d entries, surviving versions carry %d distinct values", name, col, entries, len(want))
		}
	}
	return nil
}

// indexMaintenanceProperty interleaves, from one seed, autocommit
// INSERT/UPDATE/DELETE, multi-statement transactions that commit or roll
// back (including insert-then-update of one row), explicit Vacuum() and
// whatever background vacuums the garbage triggers — with a read-only
// transaction opened now and then and held across the following steps so
// the horizon lags. The same operations run on an indexed and a plain
// database. After every few steps the indexes must be exact
// (checkIndexesExact) and every query of the indexed-vs-plain suite must
// agree on a fresh snapshot and on the held one.
func indexMaintenanceProperty(r *rand.Rand, steps int) error {
	indexed, plain := dmlPropDBs()
	dbs := []*Database{indexed, plain}
	// Both views go live before the first write, so every later add and
	// remove is maintenance, never a lazy build.
	for _, q := range []string{"SELECT id FROM t ORDER BY k", "SELECT id FROM t WHERE id > 0"} {
		if _, err := indexed.Query(q); err != nil {
			return err
		}
	}
	words := []string{"ant", "bee", "cat", "dog"}
	nextID := 0
	randK := func() any {
		switch r.Intn(10) {
		case 0:
			return nil
		case 1, 2, 3:
			return r.Intn(2000) // many distinct values: chunks split and empty
		}
		return r.Intn(50)
	}
	type stmt struct {
		sql    string
		params []any
	}
	randStmt := func() stmt {
		switch r.Intn(9) {
		case 0, 1, 2:
			nextID++
			return stmt{"INSERT INTO t VALUES (?, ?, ?)", []any{nextID - 1, randK(), words[r.Intn(len(words))]}}
		case 3:
			return stmt{"UPDATE t SET k = ? WHERE id = ?", []any{randK(), r.Intn(nextID + 1)}}
		case 4:
			return stmt{"UPDATE t SET s = ? WHERE id = ?", []any{words[r.Intn(len(words))], r.Intn(nextID + 1)}}
		case 5:
			return stmt{fmt.Sprintf("UPDATE t SET k = k + %d WHERE k BETWEEN %d AND %d", 1+r.Intn(9), r.Intn(25), 25+r.Intn(25)), nil}
		case 6:
			return stmt{"DELETE FROM t WHERE id = ?", []any{r.Intn(nextID + 1)}}
		case 7:
			return stmt{fmt.Sprintf("DELETE FROM t WHERE k BETWEEN %d AND %d", r.Intn(2000), r.Intn(2000)), nil}
		}
		return stmt{"UPDATE t SET k = ? WHERE id = ?", []any{randK(), max(nextID-1, 0)}} // the newest row again
	}
	type queryFn func(string, ...any) (*Result, error)
	agree := func(sql, snap string, onIndexed, onPlain queryFn) error {
		ri, erri := onIndexed(sql)
		rp, errp := onPlain(sql)
		if erri != nil || errp != nil {
			return fmt.Errorf("%s snapshot, %q: %v / %v", snap, sql, erri, errp)
		}
		if gi, gp := rowsToStrings(ri.Rows), rowsToStrings(rp.Rows); !reflect.DeepEqual(gi, gp) {
			return fmt.Errorf("%s snapshot disagrees on %q:\nindexed %v\nplain   %v", snap, sql, gi, gp)
		}
		return nil
	}
	var held []*Txn // one read-only transaction per database, or none
	release := func() {
		for _, tx := range held {
			_ = tx.Rollback()
		}
		held = nil
	}
	defer release()
	for step := 0; step < steps; step++ {
		switch op := r.Intn(20); {
		case op < 12: // autocommit statement
			s := randStmt()
			ni, erri := indexed.Exec(s.sql, s.params...)
			np, errp := plain.Exec(s.sql, s.params...)
			if (erri == nil) != (errp == nil) || ni != np {
				return fmt.Errorf("step %d: %q diverged: indexed (%d, %v) vs plain (%d, %v)", step, s.sql, ni, erri, np, errp)
			}
		case op < 16: // transaction of 1-4 statements, rolled back half the time
			stmts := make([]stmt, 1+r.Intn(4))
			for i := range stmts {
				stmts[i] = randStmt()
			}
			rollback := r.Intn(2) == 0
			for _, db := range dbs {
				tx := db.Begin()
				for _, s := range stmts {
					_, _ = tx.Exec(s.sql, s.params...)
				}
				var err error
				if rollback {
					err = tx.Rollback()
				} else {
					err = tx.Commit()
				}
				if err != nil {
					return fmt.Errorf("step %d: finishing transaction: %v", step, err)
				}
			}
		case op < 17:
			for _, db := range dbs {
				db.Vacuum()
			}
		case op < 18: // open the old snapshot, or let it go
			if held != nil {
				release()
			} else {
				held = []*Txn{indexed.Begin(), plain.Begin()}
			}
		default:
			if err := checkIndexesExact(indexed, "t"); err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
			for _, gen := range orderedSuiteQueries {
				sql := gen(r)
				if err := agree(sql, "fresh", indexed.Query, plain.Query); err != nil {
					return fmt.Errorf("step %d: %v", step, err)
				}
				if held != nil {
					if err := agree(sql, "held", held[0].Query, held[1].Query); err != nil {
						return fmt.Errorf("step %d: %v", step, err)
					}
				}
			}
		}
	}
	release()
	for _, db := range dbs {
		db.Vacuum()
	}
	return checkIndexesExact(indexed, "t")
}

func TestIndexMaintenanceExact(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		if err := indexMaintenanceProperty(rand.New(rand.NewSource(seed)), 2500); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestIndexMaintenanceCatchesDroppedLiveKey proves the oracles above can
// fail. With maintenance broken the vacuum drops the key of a version that
// survives: rows whose unindexed column was updated keep their key in the
// version the vacuum leaves behind, and lose it from the index. No insert
// runs under the fault, so the stale-view half of the switch plays no
// part. The exact oracle, the indexed-vs-plain comparison and NoREC must
// each report it.
func TestIndexMaintenanceCatchesDroppedLiveKey(t *testing.T) {
	indexed, plain := metamorphicDBs()
	for _, db := range []*Database{indexed, plain} {
		for i := 0; i < 40; i++ {
			db.MustExec("INSERT INTO m VALUES (?, ?, ?, 'ant')", i, i%10, i)
		}
		db.MustExec("UPDATE m SET b = b + 1 WHERE id < 20")
	}
	debugBreakOrdMaintain = true
	indexed.Vacuum()
	debugBreakOrdMaintain = false

	if err := checkIndexesExact(indexed, "m"); err == nil {
		t.Error("exact oracle did not notice the vacuum dropping a surviving version's key")
	}
	const q = "SELECT id FROM m WHERE a = 3 ORDER BY id"
	if gi, gp := queryStrings(t, indexed, q), queryStrings(t, plain, q); reflect.DeepEqual(gi, gp) {
		t.Errorf("indexed-vs-plain did not notice: both return %v", gi)
	}
	if err := checkNoREC(indexed, "a = 3"); err == nil {
		t.Error("NoREC did not notice the vacuum dropping a surviving version's key")
	}
	// And the whole property fails under the fault, not just the scenario.
	debugBreakOrdMaintain = true
	defer func() { debugBreakOrdMaintain = false }()
	if err := indexMaintenanceProperty(rand.New(rand.NewSource(7)), 2500); err == nil {
		t.Error("index maintenance property passed with maintenance broken")
	}
}

// allocsOf runs f and returns how many heap objects and bytes the process
// allocated meanwhile (background maintenance included).
func allocsOf(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestIndexMaintenanceProportionalToChange: 300 single-row UPDATEs of an
// indexed column plus a Vacuum() cost the same allocations on a 5,000-row
// and a 50,000-row table with two indexes and live views, and the same bytes
// on a 20,000-row and a 50,000-row one; and the range query after the vacuum
// finds the view it left — nothing is rebuilt from the table. (Bytes are
// compared from 20,000 rows on: at 5,000 the updated ids wrap into one
// sealed block, not three, and the page a write copies holds 40 chunks,
// not the 128 of a full one.)
func TestIndexMaintenanceProportionalToChange(t *testing.T) {
	type cost struct{ objects, bytes uint64 }
	measure := func(n int) (updates cost, rangeQuery uint64) {
		db := NewDatabase()
		defer db.Close()
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
		db.MustExec("CREATE INDEX idx_t_k ON t (k)")
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{i, i}
		}
		if err := db.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		db.vacWG.Wait() // the background sealer's pass over the bulk load
		const rangeQ = "SELECT COUNT(*) FROM t WHERE id BETWEEN 100 AND 199"
		db.MustExec(rangeQ)
		db.MustExec("SELECT id FROM t ORDER BY k LIMIT 1")
		tbl, _ := db.Table("t")
		views := func() (idView, kView *ordView) {
			return tbl.idxs()["id"].ord.Load(), tbl.idxs()["k"].ord.Load()
		}
		if a, b := views(); a == nil || b == nil {
			t.Fatal("views not live before the measured section")
		}
		updates.objects, updates.bytes = allocsOf(func() {
			for i := 0; i < 300; i++ {
				db.MustExec("UPDATE t SET k = ? WHERE id = ?", n+i, (i*37)%n)
			}
			db.vacWG.Wait()
			db.Vacuum()
		})
		if a, b := views(); a == nil || b == nil {
			t.Errorf("n=%d: vacuum invalidated an ordered view", n)
		}
		rangeQuery, _ = allocsOf(func() {
			if got := queryStrings(t, db, rangeQ); got[0][0] != "100" {
				t.Errorf("n=%d: range count after vacuum = %v, want 100", n, got)
			}
		})
		if err := checkIndexesExact(db, "t"); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
		return updates, rangeQuery
	}
	small, smallQ := measure(5000)
	mid, _ := measure(20000)
	large, largeQ := measure(50000)
	t.Logf("300 updates + vacuum: %d mallocs / %d B at 5,000 rows, %d / %d B at 20,000, %d / %d B at 50,000; range query after: %d, %d mallocs",
		small.objects, small.bytes, mid.objects, mid.bytes, large.objects, large.bytes, smallQ, largeQ)
	within := func(a, b uint64) bool { return math.Abs(float64(b)-float64(a)) <= 0.10*float64(a) }
	if !within(small.objects, large.objects) {
		t.Errorf("300 updates + vacuum allocate %d objects at 5,000 rows and %d at 50,000: cost follows the table, not the change", small.objects, large.objects)
	}
	if !within(mid.bytes, large.bytes) {
		t.Errorf("300 updates + vacuum allocate %d B at 20,000 rows and %d B at 50,000: cost follows the table, not the change", mid.bytes, large.bytes)
	}
	if largeQ > 1000 {
		t.Errorf("range query after the vacuum allocated %d objects at 50,000 rows: the view was rebuilt", largeQ)
	}
}

// TestOrdAddCopiesOneChunk: a new distinct value entering a view copies its
// chunk, that chunk's page and the short list of pages, never the view. The
// bytes it allocates, entry and postings included, barely move between a
// 20,000-entry view of two pages and a 320,000-entry view of twenty: 2.0 and
// 2.7 KB, where one directory of chunks copied 7.2 and 66.8 KB.
func TestOrdAddCopiesOneChunk(t *testing.T) {
	for _, tc := range []struct {
		n       int
		ceiling uint64
	}{{20000, 4 << 10}, {320000, 6 << 10}} {
		db := NewDatabase()
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
		rows := make([][]any, tc.n)
		for i := range rows {
			rows[i] = []any{2 * i}
		}
		if err := db.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.Table("t")
		idx := tbl.idxs()["id"]
		if n := len(viewEntries(tbl, idx)); n != tc.n {
			t.Fatalf("view holds %d entries, want %d", n, tc.n)
		}
		const adds = 200
		_, bytes := allocsOf(func() {
			for i := 0; i < adds; i++ {
				idx.addEntry(Int(int64(2*(i*(tc.n/adds+1)%tc.n)+1)), tc.n+i) // odd keys: each lands inside some chunk
			}
		})
		per := bytes / adds
		t.Logf("%d entries: %d B per new distinct value", tc.n, per)
		if per > tc.ceiling {
			t.Errorf("%d entries: adding a new distinct value allocates %d B, want <= %d B", tc.n, per, tc.ceiling)
		}
		ents := viewEntries(tbl, idx)
		sorted := sort.SliceIsSorted(ents, func(a, b int) bool { return ents[a].val.Compare(ents[b].val) < 0 })
		if len(ents) != tc.n+adds || !sorted {
			t.Errorf("view holds %d entries (sorted=%v) after %d adds", len(ents), sorted, adds)
		}
		db.Close()
	}
}

// TestConcurrentOrderedReadsDuringMaintenance (run under -race): one
// reader range-scans, one scans in index order, while a writer inserts
// new distinct keys, moves and deletes rows, and the garbage it makes
// keeps the background vacuum running. Each reader compares the
// index-served result with a filtered heap scan inside one transaction,
// i.e. on one snapshot. Run twice: with the views live before the race
// starts, so that every change is maintenance; and with the readers' first
// ordered read issued once the writer is under way, so that the view is
// built from the rows, under the index latch alone, beside the inserts,
// updates and vacuums that are changing them.
func TestConcurrentOrderedReadsDuringMaintenance(t *testing.T) {
	for _, viewsLive := range []bool{true, false} {
		t.Run(fmt.Sprintf("viewsLiveBefore=%v", viewsLive), func(t *testing.T) {
			concurrentOrderedReads(t, viewsLive)
		})
	}
}

func concurrentOrderedReads(t *testing.T, viewsLive bool) {
	db := NewDatabase()
	defer db.Close()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
	db.MustExec("CREATE INDEX idx_t_k ON t (k)")
	// Two pages of k's view: new keys split chunks and then a page, and the
	// vacuum removes entries from both.
	const n = 20000
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i, 3 * i}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("t")
	pages := func() int { return len(*tbl.idxs()["k"].ord.Load()) }
	pagesBefore := 0
	if viewsLive {
		db.MustExec("SELECT id FROM t ORDER BY k LIMIT 1")
		if pagesBefore = pages(); pagesBefore < 2 {
			t.Fatalf("the view of k spans %d page(s), want at least 2", pagesBefore)
		}
	}
	vacuumsBefore := db.Stats().VacuumRuns

	stop, writing := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	reader := func(indexedSQL, heapSQL string) {
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		<-writing
		for {
			select {
			case <-stop:
				return
			default:
			}
			lo := r.Intn(3 * n)
			tx := db.Begin()
			ri, erri := tx.Query(indexedSQL, lo, lo+300)
			rp, errp := tx.Query(heapSQL, lo, lo+300)
			_ = tx.Rollback()
			if erri != nil || errp != nil {
				t.Errorf("reader: %v / %v", erri, errp)
				return
			}
			if gi, gp := rowsToStrings(ri.Rows), rowsToStrings(rp.Rows); !reflect.DeepEqual(gi, gp) {
				t.Errorf("%s (lo=%d) disagrees with the heap scan on one snapshot:\nindex %v\nheap  %v", indexedSQL, lo, gi, gp)
				return
			}
			reads.Add(1)
		}
	}
	wg.Add(2)
	go reader("SELECT id, k FROM t WHERE k BETWEEN ? AND ?",
		"SELECT id, k FROM t WHERE k + 0 BETWEEN ? AND ?")
	go reader("SELECT id, k FROM t WHERE k >= ? ORDER BY k LIMIT 40",
		"SELECT id, k FROM t WHERE k + 0 >= ? ORDER BY k + 0 LIMIT 40")

	// The writer keeps going until the readers have had their share too.
	w := rand.New(rand.NewSource(2))
	for i := 0; i < 30000 && (i < 1500 || reads.Load() < 300) && !t.Failed(); i++ {
		if i == 300 {
			close(writing) // garbage has piled up and a vacuum is due: the first reads land among the writes
		}
		switch i % 3 {
		case 0:
			db.MustExec("INSERT INTO t VALUES (?, ?)", n+i, 3*w.Intn(n)+1+i%2) // a key no row holds yet, mostly
		case 1:
			db.MustExec("UPDATE t SET k = ? WHERE id = ?", 3*w.Intn(n)+2, w.Intn(n+i))
		default:
			db.MustExec("DELETE FROM t WHERE id = ?", w.Intn(n+i))
		}
	}
	close(stop)
	wg.Wait()
	db.vacWG.Wait()
	if db.Stats().VacuumRuns == vacuumsBefore {
		t.Error("the background vacuum never ran during the race")
	}
	if tbl.idxs()["k"].ord.Load() == nil {
		t.Error("no reader built the ordered view of k")
	} else if viewsLive && pages() <= pagesBefore {
		t.Errorf("the view of k spans %d pages after the race, %d before: no page split", pages(), pagesBefore)
	}
	if err := checkIndexesExact(db, "t"); err != nil {
		t.Error(err)
	}
}

// TestIndexMaintenanceMixedKinds: one index over a column with no numeric
// affinity, holding 1, 1.0, TRUE (one Compare class, one hash class) and '1'
// (another) — through insert, update, delete, rollback and vacuum the
// postings stay exactly what the surviving versions carry, and the class is
// found whichever of its members probes. Run a second time with maintenance broken,
// the same oracle must object.
func TestIndexMaintenanceMixedKinds(t *testing.T) {
	scenario := func(breakAt bool) error {
		db := NewDatabase()
		defer db.Close()
		db.MustExec("CREATE TABLE x (id INTEGER PRIMARY KEY, v ANY, note TEXT)")
		db.MustExec("CREATE INDEX idx_x_v ON x (v)")
		db.MustExec("SELECT id FROM x ORDER BY v") // the ordered view is live from the start
		check := func(step string, one, text []int) error {
			if err := checkIndexesExact(db, "x"); err != nil {
				return fmt.Errorf("%s: %v", step, err)
			}
			tbl, _ := db.Table("x")
			idx := tbl.idxs()["v"]
			for _, probe := range []Value{Int(1), Float(1), Bool(true)} {
				if got := idx.appendIDs(nil, probe); fmt.Sprint(got) != fmt.Sprint(one) {
					return fmt.Errorf("%s: the class of %v (%v) lists %v, want %v", step, probe, probe.Kind(), got, one)
				}
			}
			if got := idx.appendIDs(nil, Text("1")); fmt.Sprint(got) != fmt.Sprint(text) {
				return fmt.Errorf("%s: the class of '1' lists %v, want %v", step, got, text)
			}
			return nil
		}
		for i, v := range []any{1, 1.0, true, "1", 2, 2.5, nil, "one"} {
			db.MustExec("INSERT INTO x VALUES (?, ?, 'n')", i, v)
		}
		if err := check("insert", []int{0, 1, 2}, []int{3}); err != nil {
			return err
		}
		for _, q := range []string{"SELECT id FROM x WHERE v = 1 ORDER BY id", "SELECT id FROM x WHERE v = 1.0 ORDER BY id",
			"SELECT id FROM x WHERE v = TRUE ORDER BY id", "SELECT x.id FROM x JOIN x y ON y.v = x.v WHERE y.id = 1 ORDER BY x.id"} {
			if got := fmt.Sprint(queryStrings(t, db, q)); got != "[[0] [1] [2]]" {
				return fmt.Errorf("%s = %s, want rows 0 1 2", q, got)
			}
		}
		db.MustExec("UPDATE x SET v = ? WHERE id = 4", 1.0)  // 2 -> 1.0: joins the class
		db.MustExec("UPDATE x SET v = ? WHERE id = 0", true) // 1 -> TRUE: same key, no index change
		db.MustExec("UPDATE x SET v = '1' WHERE id = 2")     // TRUE -> '1': changes class
		db.MustExec("UPDATE x SET note = 'm' WHERE id = 1")  // unindexed column: the version survives the vacuum with its key
		db.MustExec("DELETE FROM x WHERE id = 3")
		if err := check("update/delete", []int{0, 1, 2, 4}, []int{2, 3}); err != nil { // supersets until the vacuum
			return err
		}
		tx := db.Begin()
		_, _ = tx.Exec("INSERT INTO x VALUES (8, ?, 'n')", 1.0)
		_, _ = tx.Exec("UPDATE x SET v = 1 WHERE id = 5")
		if err := tx.Rollback(); err != nil {
			return err
		}
		if err := check("rollback", []int{0, 1, 2, 4}, []int{2, 3}); err != nil {
			return err
		}
		debugBreakOrdMaintain = breakAt
		db.Vacuum()
		debugBreakOrdMaintain = false
		return check("vacuum", []int{0, 1, 4}, []int{2})
	}
	if err := scenario(false); err != nil {
		t.Error(err)
	}
	if err := scenario(true); err == nil {
		t.Error("the exact oracle passed with index maintenance broken")
	}
}

// collidingInts finds, under this process's hash seed, two INTEGER keys that
// share a hash class, a < b: about 18 pairs are expected among the first
// 400,000 keys, and the search goes on past them rather than trust that.
func collidingInts(t *testing.T) (a, b int64) {
	seen := make(map[uint32]int64, 400000)
	for i := int64(0); i < 1<<23; i++ {
		h := hashKey(Int(i))
		if j, ok := seen[h]; ok {
			if i >= 400000 {
				t.Logf("the first two INTEGER keys to share a hash class are %d and %d", j, i)
			}
			return j, i
		}
		seen[h] = i
	}
	t.Fatal("no two of 2^23 INTEGER keys share a hash class")
	return 0, 0
}

// TestIndexHashCollisions drives a UNIQUE and a plain index, with the ordered
// view live and not, through the one branch no corpus reaches by chance: two
// keys in one hash class. Neither may be taken for the other — by a lookup,
// by the UNIQUE check, or by the vacuum and the rollback, which must leave a
// row its class when it moved from one of the keys to the other. Removing by
// value alone (unindex dropping the id from the old key's class because no
// survivor carries the old key) loses that row, and this test says so.
func TestIndexHashCollisions(t *testing.T) {
	a, b := collidingInts(t)
	for _, unique := range []bool{true, false} {
		for _, ordLive := range []bool{true, false} {
			t.Run(fmt.Sprintf("unique=%v/ordered=%v", unique, ordLive), func(t *testing.T) {
				db := NewDatabase()
				defer db.Close()
				db.MustExec("CREATE TABLE c (id INTEGER PRIMARY KEY, k INTEGER)")
				if unique {
					db.MustExec("CREATE UNIQUE INDEX idx_c_k ON c (k)")
				} else {
					db.MustExec("CREATE INDEX idx_c_k ON c (k)")
				}
				if ordLive {
					db.MustExec("SELECT id FROM c ORDER BY k")
				}
				tbl, _ := db.Table("c")
				idx := tbl.idxs()["k"]
				step := func(name string, wantA, wantB string) {
					t.Helper()
					before := db.Stats()
					for key, want := range map[int64]string{a: wantA, b: wantB} {
						if got := fmt.Sprint(queryStrings(t, db, "SELECT id FROM c WHERE k = ?", key)); got != want {
							t.Fatalf("%s: WHERE k = %d finds %s, want %s", name, key, got, want)
						}
					}
					if after := db.Stats(); after.FullScans != before.FullScans || after.IndexScans != before.IndexScans+2 {
						t.Fatalf("%s: the lookups did not go through the index", name)
					}
					if err := checkIndexesExact(db, "c"); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if live := idx.ord.Load() != nil; live != ordLive {
						t.Fatalf("%s: ordered view live = %v, want %v", name, live, ordLive)
					}
				}
				db.MustExec("INSERT INTO c VALUES (1, ?)", a)
				if _, err := db.Exec("INSERT INTO c VALUES (2, ?)", b); err != nil {
					t.Fatalf("a colliding key was taken for a duplicate: %v", err)
				}
				if got := idx.appendIDs(nil, Int(a)); fmt.Sprint(got) != "[0 1]" {
					t.Fatalf("the class of %d and %d lists slots %v, want both rows'", a, b, got)
				}
				step("insert", "[[1]]", "[[2]]")
				if _, err := db.Exec("INSERT INTO c VALUES (3, ?)", a); unique && CodeOf(err) != ErrConstraint {
					t.Fatalf("a real duplicate of %d: err = %v, want a UNIQUE violation", a, err)
				} else if !unique {
					step("duplicate", "[[1] [3]]", "[[2]]")
					db.MustExec("DELETE FROM c WHERE id = 3")
				}
				if _, err := db.Exec("UPDATE c SET k = ? WHERE id = 1", b); unique && CodeOf(err) != ErrConstraint {
					t.Fatalf("an update onto the held key %d: err = %v, want a UNIQUE violation", b, err)
				} else if !unique {
					db.MustExec("UPDATE c SET k = ? WHERE id = 1", a)
				}
				db.MustExec("DELETE FROM c WHERE id = 2")
				db.Vacuum()
				step("delete one", "[[1]]", "[]")

				db.MustExec("UPDATE c SET k = ? WHERE id = 1", b) // a -> b inside one class
				step("update", "[]", "[[1]]")
				db.Vacuum() // cuts off the version carrying a; the class must stay for b
				step("update + vacuum", "[]", "[[1]]")

				tx := db.Begin()
				if _, err := tx.Exec("UPDATE c SET k = ? WHERE id = 1", a); err != nil {
					t.Fatal(err)
				}
				if err := tx.Rollback(); err != nil { // unlinks the version carrying a; the class must stay for b
					t.Fatal(err)
				}
				step("rolled-back update", "[]", "[[1]]")
				if ordLive {
					if got := fmt.Sprint(queryStrings(t, db, "SELECT id, k FROM c WHERE k BETWEEN ? AND ? ORDER BY k", a, b)); got != fmt.Sprintf("[[1 %d]]", b) {
						t.Fatalf("range over both keys finds %s", got)
					}
				}

				db.MustExec("DELETE FROM c WHERE id = 1")
				db.Vacuum()
				step("delete + vacuum", "[]", "[]")
				if got := idx.appendIDs(nil, Int(a)); len(got) != 0 {
					t.Fatalf("the emptied class still lists %v", got)
				}
			})
		}
	}
}

// TestInsertRefusesRowIDBeyond32Bits: an index files row ids in 32 bits, so
// a table refuses the slot that would not fit instead of truncating its id.
func TestInsertRefusesRowIDBeyond32Bits(t *testing.T) {
	db := NewDatabase()
	defer db.Close()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
	db.MustExec("INSERT INTO t VALUES (1)")
	tbl, _ := db.Table("t")
	tbl.n.Store(math.MaxUint32) // as if 2^32 - 1 slots were taken
	if _, err := db.Exec("INSERT INTO t VALUES (2)"); CodeOf(err) != ErrInternal {
		t.Fatalf("insert into a full table: err = %v, want a refusal", err)
	}
	tbl.n.Store(1)
	if got := fmt.Sprint(queryStrings(t, db, "SELECT id FROM t")); got != "[[1]]" {
		t.Fatalf("after the refusal the table holds %s", got)
	}
}
