package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// Tests for the one scan leaf (source.go, vector.go, vecops.go): sort keys of
// every kind against the interpreted reference, the EXPLAIN / EXPLAIN ANALYZE
// surface, the row-fallback counter, the sealed × pool cost pin, GROUP BY's
// allocation ceilings and the serial fold of aggregates that do not merge. The scan's
// equivalence under churn, and its fault proofs, are TestDifferential's.

// vecOrderLists are select lists over t1 — identity projections among them —
// each with ORDER BY keys of every kind a sort reads: an ordinal, an output
// alias, a bare output name, an input column the list projects plainly and
// one it does not project, and an expression over the input.
var vecOrderLists = []struct {
	sel  string
	keys []string
}{
	{"*", []string{"3", "f", "c", "t1.a", "id", "a * 2 + id"}},
	{"t1.*", []string{"2", "ok", "t1.f", "a", "LENGTH(c) - id"}},
	{"a AS x, c, ok", []string{"1", "3", "x", "c", "a", "t1.a", "t1.f", "t1.id", "f * 2 - a"}},
	{"id, a AS x, f", []string{"2", "x", "f", "t1.a", "t1.c", "c", "a + f"}},
}

// vecOrderShape orders one of vecOrderLists by one to three of its keys,
// with and without DISTINCT, LIMIT and OFFSET.
func vecOrderShape(r *rand.Rand, pred string) string {
	l := vecOrderLists[r.Intn(len(vecOrderLists))]
	q := "SELECT "
	if r.Intn(3) == 0 {
		q += "DISTINCT "
	}
	q += l.sel + " FROM t1 WHERE " + pred + " ORDER BY "
	for i, n := 0, 1+r.Intn(3); i < n; i++ {
		if i > 0 {
			q += ", "
		}
		q += l.keys[r.Intn(len(l.keys))]
		if r.Intn(2) == 0 {
			q += " DESC"
		}
	}
	if r.Intn(2) == 0 {
		q += fmt.Sprintf(" LIMIT %d", 1+r.Intn(40))
		if r.Intn(2) == 0 {
			q += fmt.Sprintf(" OFFSET %d", r.Intn(10))
		}
	}
	return q
}

// TestOrderKeyKindsMatchReference runs every key of vecOrderLists with and
// without DISTINCT, LIMIT and OFFSET, and ahead of the list's next key,
// serial and pooled, over a heap table and over one sealed block and its heap
// tail: the engine returns what the interpreted reference (refSelect) does.
func TestOrderKeyKindsMatchReference(t *testing.T) {
	lowerMorselMinRows(t, 1)
	r := rand.New(rand.NewSource(5))
	words := []string{"ant", "bee", "cat", "dge", "eel"}
	rows := make([][]any, segBlockSlots+100)
	for i := range rows {
		var a, f any = r.Intn(40), float64(r.Intn(400)) / 4
		if r.Intn(9) == 0 {
			a = nil
		}
		if r.Intn(11) == 0 {
			f = nil
		}
		rows[i] = []any{i, a, f, words[r.Intn(len(words))], r.Intn(2) == 1}
	}
	var queries []string
	for _, l := range vecOrderLists {
		for i, key := range l.keys {
			for _, distinct := range []string{"", "DISTINCT "} {
				for _, window := range []string{"", " LIMIT 25", " LIMIT 25 OFFSET 7"} {
					queries = append(queries, "SELECT "+distinct+l.sel+" FROM t1 WHERE id % 4 = 1 ORDER BY "+key+window)
				}
			}
			queries = append(queries, "SELECT "+l.sel+" FROM t1 ORDER BY "+key+" DESC, "+l.keys[(i+1)%len(l.keys)])
		}
	}
	for _, d := range batchDrivers {
		for _, sealed := range []bool{false, true} {
			db := NewDatabase(d.opts...)
			db.MustExec("CREATE TABLE t1 (id INTEGER, a INTEGER, f FLOAT, c TEXT, ok BOOL)")
			if err := db.InsertRows("t1", rows); err != nil {
				t.Fatal(err)
			}
			if sealed && db.Seal() == 0 {
				t.Fatal("nothing sealed")
			}
			for _, q := range queries {
				got, err := vecQueryStrings(db, q)
				if err != nil {
					t.Fatalf("%s sealed=%v %q: %v", d.name, sealed, q, err)
				}
				stmt, err := Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := refSelect(db, stmt.(*SelectStmt))
				if err != nil {
					t.Fatalf("reference %q: %v", q, err)
				}
				if want := rowsToStrings(ref); !slices.EqualFunc(got, want, slices.Equal) {
					t.Fatalf("%s sealed=%v %q:\n got %v\nwant %v", d.name, sealed, q, got, want)
				}
			}
		}
	}
}

func vecQueryStrings(db *Database, q string) ([][]string, error) {
	res, err := db.Query(q)
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = make([]string, len(r))
		for j, v := range r {
			if v.IsNull() {
				out[i][j] = "NULL"
			} else {
				out[i][j] = v.AsText()
			}
		}
	}
	return out, nil
}

// batchDrivers are the two ways the one scan is driven: by a counter
// on the owner goroutine, and by pool workers claiming morsels. Sealed
// blocks are the pool's everyday traffic (the sealer and the gate share a
// threshold), so every property and fault proof below runs in both cells.
var batchDrivers = []struct {
	name string
	opts []Option
}{
	{"serial", []Option{WithMaxWorkers(1)}},
	{"pooled", []Option{WithMaxWorkers(4)}},
}

// TestVectorExplainShapes pins the plan surface: every scan is one node
// kind, `batch <access> scan`, annotated on the same line with how many of
// the pipeline's expressions compiled to kernels (and, on a pooled
// database, workers=N); projections and aggregations the scan absorbed
// say so instead of claiming an executor of their own; EXPLAIN ANALYZE
// adds batch and segment-decode counts once blocks are sealed.
func TestVectorExplainShapes(t *testing.T) {
	db := sealedTestDB(t, 2)

	plan := func(q string) string {
		lines, err := db.Explain(q)
		if err != nil {
			t.Fatalf("Explain(%q): %v", q, err)
		}
		return strings.Join(lines, "\n")
	}
	for _, c := range []struct{ q, want string }{
		// Two conjuncts and two items, all kernels; the projection is fused.
		{"SELECT id, a FROM s WHERE a > 10 AND c = 'ant'", "batch seq scan s (as s)"},
		{"SELECT id, a FROM s WHERE a > 10 AND c = 'ant'", "vectorized 4/4"},
		{"SELECT id, a FROM s WHERE a > 10 AND c = 'ant'", "fused filter"},
		{"SELECT a + 1, f FROM s WHERE a > 10", "project 2 column(s) (fused in scan)"},
		{"SELECT c, COUNT(*), MIN(a) FROM s WHERE a > 10 GROUP BY c", "(folded in scan)"},
		{"SELECT c, COUNT(*), MIN(a) FROM s WHERE a > 10 GROUP BY c", "vectorized 3/3"},
		// A CASE has no kernel: that one conjunct runs as a row closure
		// inside the same scan, the other keeps its kernel.
		{"SELECT id FROM s WHERE a > 10 AND CASE WHEN ok THEN a ELSE 0 END > 5", "vectorized 2/3"},
		// An ORDER BY reads keys off the input rows, so the projection
		// stays above the scan.
		{"SELECT id FROM s WHERE a > 10 ORDER BY f", "vectorized 1/1"},
		// ... unless a LIMIT bounds it: then the scan keeps the top-K itself,
		// building the projection and the one key no output column supplies.
		{"SELECT id, f FROM s WHERE a > 10 ORDER BY f DESC, id, a + 1 LIMIT 100",
			"sort by f DESC, id ASC, (a + 1) ASC (top 100) (folded in scan)\n    project 2 column(s) (fused in scan)\n      batch seq scan s (as s)"},
		{"SELECT id, f FROM s WHERE a > 10 ORDER BY f DESC, id, a + 1 LIMIT 100", "vectorized 4/4"},
	} {
		if got := plan(c.q); !strings.Contains(got, c.want) {
			t.Errorf("plan of %q missing %q:\n%s", c.q, c.want, got)
		}
	}
	if got := plan("SELECT c, COUNT(*) FROM s GROUP BY c"); strings.Contains(got, "(vectorized)") || strings.Contains(got, "parallel") {
		t.Errorf("aggregate node still claims an executor:\n%s", got)
	}

	// DISTINCT and a key that reads an output column from inside an
	// expression keep the sort and the projection above the scan.
	for _, q := range []string{
		"SELECT DISTINCT a, c FROM s ORDER BY a DESC, c LIMIT 5",
		"SELECT id, a * 2 AS aa FROM s ORDER BY aa + f, id LIMIT 5",
	} {
		if got := plan(q); !strings.Contains(got, "(top 5)") || strings.Contains(got, "folded") || strings.Contains(got, "fused") {
			t.Errorf("plan of %q should keep its sort and projection above the scan:\n%s", q, got)
		}
	}

	a, err := db.ExplainAnalyze(context.Background(), "SELECT COUNT(*) FROM s WHERE a < 50")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(a.Plan, "\n")
	if !strings.Contains(text, "batches=") {
		t.Fatalf("analyzed plan missing batches=:\n%s", text)
	}
	if !strings.Contains(text, "decoded_blocks=2") {
		t.Fatalf("analyzed plan missing decoded_blocks=2:\n%s", text)
	}
	if a.Stats.VectorBatches == 0 || a.Stats.SegmentScans != 1 || a.Stats.DecodedBlocks != 2 {
		t.Fatalf("analyzed stats = %+v, want vector batches and 2 decoded blocks", a.Stats)
	}
	if got, want := a.scannedTotal(), a.Stats.RowsScanned; got != want {
		t.Fatalf("scannedTotal %d != RowsScanned %d", got, want)
	}

}

// TestVectorRowFallbackCounter: a scan whose expressions cannot all
// compile to kernels runs the rest as row closures and counts the
// fallback.
func TestVectorRowFallbackCounter(t *testing.T) {
	db := sealedTestDB(t, 1)
	before := db.Stats().RowFallbacks
	rows := queryStrings(t, db, "SELECT COUNT(*) FROM s WHERE LENGTH(c) > 2")
	if rows[0][0] == "0" {
		t.Fatal("fallback query returned no rows")
	}
	if after := db.Stats().RowFallbacks; after <= before {
		t.Fatalf("RowFallbacks did not advance: %d -> %d", before, after)
	}
}

// TestSealedPoolScanStaysColumnar pins the sealed × pool cell, the
// configuration the benchmark runs and (before the one batch source) no
// test entered: at WithMaxWorkers(4) a scan of sealed blocks must stay
// columnar inside the workers — decode each block once, only the columns
// the statement reads, run vector batches — instead of turning every
// block back into full-width rows (~1 allocation per row, 0 batches). A
// kernel-compilable predicate and a CASE predicate with no kernel (a row
// closure over the batch's row view) must both hold the line.
func TestSealedPoolScanStaysColumnar(t *testing.T) {
	const blocks = 8
	const rows = blocks * segBlockSlots
	load := func(workers int) *Database {
		db := NewDatabase(WithMaxWorkers(workers))
		db.MustExec("CREATE TABLE s (id INTEGER, name TEXT, price REAL, qty INTEGER)")
		data := make([][]any, rows)
		for i := range data {
			data[i] = []any{i, fmt.Sprintf("item-%d", i), float64(i%10000) / 100, i % 50}
		}
		if err := db.InsertRows("s", data); err != nil {
			t.Fatal(err)
		}
		db.Seal() // whatever the background sealer has not frozen already
		if sealed := sealedBlocks(db.tableMap()["s"]); sealed != blocks {
			t.Fatalf("%d blocks sealed, want %d", sealed, blocks)
		}
		return db
	}
	pooled, serial := load(4), load(1)
	for _, q := range []string{
		"SELECT COUNT(*) FROM s WHERE price > 50 AND qty < 25",
		"SELECT COUNT(*) FROM s WHERE CASE WHEN qty < 25 THEN price ELSE 0 END > 50",
	} {
		want := queryStrings(t, serial, q)
		if got := queryStrings(t, pooled, q); fmt.Sprint(got) != fmt.Sprint(want) || want[0][0] == "0" {
			t.Fatalf("%q: pooled %v vs WithMaxWorkers(1) %v", q, got, want)
		}
		rs, err := pooled.QueryRows(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for rs.Next() {
		}
		st := rs.Stats()
		if err := rs.Close(); err != nil {
			t.Fatal(err)
		}
		if st.VectorBatches == 0 || st.DecodedBlocks != blocks {
			t.Fatalf("%q: VectorBatches %d DecodedBlocks %d, want > 0 and %d",
				q, st.VectorBatches, st.DecodedBlocks, blocks)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := pooled.Query(q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= rows/8 {
			t.Fatalf("%q: %.0f allocs per query over %d sealed rows, want < %d", q, allocs, rows, rows/8)
		}
	}
	assertNoWorkerLeak(t)
}

// TestGroupByAllocatesPerSlab: a GROUP BY allocates with the blocks its
// group table, its accumulator columns and its slot array grow by, not with
// its groups — no encoded key, no map entry, no state object and, when only
// an output alias sorts the result, no representative row per group. All
// three aggregation loops found their groups through the one table
// (groupTable), so all three hold the line: the row loop (under a join with
// a one-row table), the serial fold, and the pooled fold with its merge.
// Bytes per founded group are held too, each loop at the most it measured
// with 4-byte slots and ordinals and 2,048-tuple blocks (six runs at 1, 2
// and 4 procs, three more under -race; the pooled fold's merge costs what
// the claim order makes it) times the headroom its bound had over the 8-byte
// slots before: 1.37 to 1.90. The query that collects every group is held
// closer: the row loop and the serial fold at the 493 and 97 B they
// measured (the same at every procs count, with and without -race) plus 1 %
// and 4 %, so output rows grown by doubling — 521 and 126 B — fail them.
func TestGroupByAllocatesPerSlab(t *testing.T) {
	lowerMorselMinRows(t, 8)
	const groups = 20000
	load := func(workers int) *Database {
		db := NewDatabase(WithMaxWorkers(workers))
		db.MustExec("CREATE TABLE t (id INTEGER, k INTEGER, w TEXT, v INTEGER)")
		db.MustExec("CREATE TABLE one (one_id INTEGER)")
		db.MustExec("INSERT INTO one VALUES (1)")
		data := make([][]any, 2*groups)
		for i := range data {
			data[i] = []any{i, i % groups, []string{"ant", "bee", "cat"}[i%groups%3], i % 97}
		}
		if err := db.InsertRows("t", data); err != nil {
			t.Fatal(err)
		}
		return db
	}
	pooled, serial := load(4), load(1)
	for _, c := range []struct {
		q        string
		maxBytes [3]float64 // per founded group: row loop, serial fold, pooled fold
	}{
		{"SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY s DESC, k LIMIT 10", [3]float64{820, 61, 167}},
		{"SELECT w, k, COUNT(*) AS n, MIN(v) FROM t GROUP BY w, k ORDER BY n, w, 2 LIMIT 10", [3]float64{893, 133, 340}},
		// AVG keeps a float part per group and morsel: in a column, with the
		// earlier morsels' parts in one list per aggregate.
		{"SELECT k, COUNT(*), SUM(v), AVG(v) AS a, MIN(v), MAX(v) FROM t GROUP BY k ORDER BY a DESC, k LIMIT 10", [3]float64{933, 173, 548}},
		// Every group is collected: the output rows are allocated once, in
		// one slice of the final size (groupOp.rest), not grown by doubling.
		{"SELECT k, SUM(v) AS s FROM t GROUP BY k", [3]float64{498, 101, 267}},
	} {
		for li, leg := range []struct {
			name string
			db   *Database
			q    string
		}{
			{"row loop", serial, strings.Replace(c.q, " FROM t", " FROM one, t", 1)},
			{"serial fold", serial, c.q},
			{"pooled fold", pooled, c.q},
		} {
			want := 10
			if !strings.Contains(leg.q, "LIMIT") {
				want = groups
			}
			run := func() {
				if res, err := leg.db.Query(leg.q); err != nil || len(res.Rows) != want {
					t.Fatalf("%q: %d rows, %v", leg.q, len(res.Rows), err)
				}
			}
			allocs := testing.AllocsPerRun(3, run)
			if allocs >= groups/8 {
				t.Errorf("%s: %q founded %d groups with %.0f allocations, want < %d", leg.name, leg.q, groups, allocs, groups/8)
			}
			// The median run: the pooled fold's merge costs what the workers'
			// share of the morsels makes it.
			runs := make([]uint64, 5)
			for i := range runs {
				var a, b runtime.MemStats
				runtime.ReadMemStats(&a)
				run()
				runtime.ReadMemStats(&b)
				runs[i] = b.TotalAlloc - a.TotalAlloc
			}
			slices.Sort(runs)
			perGroup := float64(runs[len(runs)/2]) / groups
			t.Logf("%s: %q: %.0f allocations, %.0f B per group", leg.name, c.q, allocs, perGroup)
			if limit := c.maxBytes[li]; perGroup > limit {
				t.Errorf("%s: %q allocates %.0f B per founded group, want <= %.0f", leg.name, leg.q, perGroup, limit)
			}
		}
	}
	assertNoWorkerLeak(t)
}

// ---------------------------------------------------------------------------
// Aggregates that do not merge

// TestNonMergeableAggregatesFoldSerially pins that DISTINCT and GROUP_CONCAT
// aggregates, whose partial states do not merge, never run on the pool: on
// a pooled database they plan without workers= and return what a database
// with no pool returns.
func TestNonMergeableAggregatesFoldSerially(t *testing.T) {
	lowerMorselMinRows(t, 8)
	par, ser := NewDatabase(WithMaxWorkers(4)), NewDatabase(WithMaxWorkers(1))
	rows := make([][]any, 0, 600)
	for i := 0; i < 600; i++ {
		rows = append(rows, []any{i, i % 40, fmt.Sprint("w", i%7), i%2 == 0})
	}
	for _, db := range []*Database{par, ser} {
		db.MustExec("CREATE TABLE u (id INTEGER, a INTEGER, c TEXT, ok BOOL)")
		if err := db.InsertRows("u", rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT COUNT(DISTINCT a) FROM u",
		"SELECT ok, COUNT(DISTINCT a) FROM u GROUP BY ok",
		"SELECT COUNT(DISTINCT a) FROM u ORDER BY 1",
		"SELECT SUM(DISTINCT a) FROM u",
		"SELECT GROUP_CONCAT(c) FROM u",
	} {
		lines, err := par.Explain(q)
		if err != nil {
			t.Fatalf("Explain(%q): %v", q, err)
		}
		if text := strings.Join(lines, "\n"); strings.Contains(text, "workers=") {
			t.Fatalf("%q must fold on one instance:\n%s", q, text)
		}
		if got, want := queryStrings(t, par, q), queryStrings(t, ser, q); !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("%q: pooled database returned %v, serial %v", q, got, want)
		}
	}
	assertNoWorkerLeak(t)
}
