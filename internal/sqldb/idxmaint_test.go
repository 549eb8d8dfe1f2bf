package sqldb

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
	type posting struct {
		v  Value
		h  uint32
		id int
	}
	var ps []posting
	var want, got []int
	// class returns the run of ps from i on that shares ps[i]'s key — its
	// hash class, or its value — with its ids, ascending, in want.
	class := func(i int, same func(a, b posting) bool) int {
		want = want[:0]
		j := i
		for ; j < len(ps) && same(ps[i], ps[j]); j++ {
			if len(want) == 0 || want[len(want)-1] != ps[j].id {
				want = append(want, ps[j].id)
			}
		}
		return j
	}
	for _, idx := range t.idxs() {
		if idx == nil {
			continue
		}
		col := t.Columns[idx.Column].Name
		ps = ps[:0]
		if err := t.reachable(idx.Column, func(v Value, id int) {
			ps = append(ps, posting{v, hashKey(indexKey(v)), id})
		}); err != nil {
			return err
		}
		slices.SortFunc(ps, func(a, b posting) int { return cmp.Or(cmp.Compare(a.h, b.h), cmp.Compare(a.id, b.id)) })
		idx.mu.Lock()
		classes := 0
		for i := 0; i < len(ps) && err == nil; classes++ {
			h := ps[i].h
			i = class(i, func(a, b posting) bool { return a.h == b.h })
			got = got[:0]
			if low, ok := idx.first[h]; ok {
				got = append(got, int(low))
			}
			for _, id := range idx.rest[h] {
				got = append(got, int(id))
			}
			if !slices.Equal(got, want) {
				err = fmt.Errorf("index %s.%s: class %08x has ids %v, surviving versions hash %v there", name, col, h, got, want)
			}
		}
		for h, ids := range idx.rest {
			low, ok := idx.first[h]
			if !ok || len(ids) == 0 {
				err = fmt.Errorf("index %s.%s: class %08x keeps %v beside no lowest id", name, col, h, ids)
			}
			for _, id := range ids {
				if id <= low {
					err = fmt.Errorf("index %s.%s: class %08x lists %d then %d", name, col, h, low, id)
				}
				low = id
			}
		}
		if err == nil && len(idx.first) != classes {
			err = fmt.Errorf("index %s.%s: %d classes, surviving versions hash to %d", name, col, len(idx.first), classes)
		}
		idx.mu.Unlock()
		if err != nil {
			return err
		}
		vp := idx.ord.Load()
		if vp == nil {
			continue
		}
		slices.SortFunc(ps, func(a, b posting) int { return cmp.Or(a.v.Compare(b.v), cmp.Compare(a.id, b.id)) })
		i := 0
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
					if i == len(ps) || ps[i].v.Compare(e.val) != 0 {
						return fmt.Errorf("view %s.%s: entry %v, where the surviving versions carry %v next", name, col, e.val, ps[min(i, len(ps)-1):min(i+1, len(ps))])
					}
					i = class(i, func(a, b posting) bool { return a.v.Compare(b.v) == 0 })
					if ids := e.entryIDs(); !slices.Equal(ids, want) {
						return fmt.Errorf("view %s.%s: entry %v has ids %v, surviving versions carry %v", name, col, e.val, ids, want)
					}
					last = e
				}
			}
		}
		if i != len(ps) {
			return fmt.Errorf("view %s.%s: no entry for %v, which surviving versions carry", name, col, ps[i].v)
		}
	}
	return nil
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
			return tbl.idxs()[tbl.ColumnIndex("id")].ord.Load(), tbl.idxs()[tbl.ColumnIndex("k")].ord.Load()
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
		idx := tbl.idxs()[tbl.ColumnIndex("id")]
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
	pages := func() int { return len(*tbl.idxs()[tbl.ColumnIndex("k")].ord.Load()) }
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
			ri, erri := txQuery(tx, indexedSQL, lo, lo+300)
			rp, errp := txQuery(tx, heapSQL, lo, lo+300)
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
	if tbl.idxs()[tbl.ColumnIndex("k")].ord.Load() == nil {
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
			idx := tbl.idxs()[tbl.ColumnIndex("v")]
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
		if breakAt {
			debugFault = faultOrdMaintain
		}
		db.Vacuum()
		debugFault = noFault
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
				idx := tbl.idxs()[tbl.ColumnIndex("k")]
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
