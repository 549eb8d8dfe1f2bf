package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Tests for EXPLAIN ANALYZE and the per-query stats recorder: annotated
// plan rendering, per-operator attribution, and the accounting property
// that ties the three layers (per-operator counts, per-query QueryStats,
// engine-wide Stats) together exactly.

func TestExplainAnalyzeAnnotatesPlan(t *testing.T) {
	db := bigDB(t, 10000)
	aq, err := db.ExplainAnalyze(context.Background(),
		"SELECT id FROM big WHERE id > 100 ORDER BY id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	out := strings.Join(aq.Plan, "\n")
	if !strings.Contains(out, "ordered index range scan big") {
		t.Errorf("expected the ordered range access path:\n%s", out)
	}
	if !strings.Contains(out, "scanned=5") {
		t.Errorf("ordered LIMIT 5 should report exactly 5 scanned rows:\n%s", out)
	}
	if !strings.Contains(out, "rows=5") || !strings.Contains(out, "time=") {
		t.Errorf("per-operator annotations missing:\n%s", out)
	}
	if aq.Stats.RowsScanned != 5 || aq.Stats.RowsEmitted != 5 {
		t.Errorf("per-query totals = %+v, want 5 scanned / 5 emitted", aq.Stats)
	}
	if aq.Stats.OrderedIndexOrders != 1 || aq.Stats.IndexRangeScans != 1 {
		t.Errorf("access-path totals = %+v, want 1 ordered order and 1 range scan", aq.Stats)
	}

	// The bounded sort path annotates in-vs-kept.
	aq, err = db.ExplainAnalyze(context.Background(),
		"SELECT id FROM big ORDER BY v LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	out = strings.Join(aq.Plan, "\n")
	if !strings.Contains(out, "in=10000 kept=3") {
		t.Errorf("top-k sort should report in=10000 kept=3:\n%s", out)
	}
}

// TestExplainAnalyzeSubplanAnnotations: a subquery renders its plan under
// the conjunct or item that runs it, with its probe and cache counts — also
// where the conjunct is one the scan evaluates itself, at any table size.
func TestExplainAnalyzeSubplanAnnotations(t *testing.T) {
	for _, n := range []int{20, 5000} {
		db := NewDatabase()
		db.MustExec("CREATE TABLE o (id INTEGER PRIMARY KEY)")
		db.MustExec("CREATE TABLE i (oid INTEGER, v INTEGER)")
		var orows, irows [][]any
		for k := 0; k < n; k++ {
			orows = append(orows, []any{k})
			if k%2 == 0 {
				irows = append(irows, []any{k, k * 3})
			}
		}
		if err := db.InsertRows("o", orows); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows("i", irows); err != nil {
			t.Fatal(err)
		}
		const exists = "SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.oid = o.id)"
		aq, err := db.ExplainAnalyze(context.Background(), exists)
		if err != nil {
			t.Fatal(err)
		}
		out := strings.Join(aq.Plan, "\n")
		if want := fmt.Sprintf("subplan (compiled once, outer row rebound per probe) [probes=%d hits=%d misses=1]:", n, n-1); !strings.Contains(out, want) {
			t.Errorf("n=%d: cached subplan should report probe and cache counts %q:\n%s", n, want, out)
		}
		if !strings.Contains(out, "correlated probe i (as i)") {
			t.Errorf("n=%d: the executed correlated probe should render:\n%s", n, out)
		}
		if aq.Stats.SubplanCacheHits != uint64(n-1) || aq.Stats.SubplanCacheMisses != 1 {
			t.Errorf("n=%d: subplan totals = %+v, want %d/1", n, aq.Stats, n-1)
		}
		// Plain EXPLAIN describes the subplan too.
		lines, err := db.Explain(exists)
		if err != nil {
			t.Fatal(err)
		}
		if out := strings.Join(lines, "\n"); !strings.Contains(out, "correlated probe i (as i)") {
			t.Errorf("n=%d: EXPLAIN should render the subplan's correlated probe:\n%s", n, out)
		}

		// A scalar subquery in the projection renders with its counts too.
		aq, err = db.ExplainAnalyze(context.Background(),
			"SELECT id, (SELECT MAX(v) FROM i WHERE i.oid = o.id) FROM o")
		if err != nil {
			t.Fatal(err)
		}
		out = strings.Join(aq.Plan, "\n")
		if !strings.Contains(out, "subplan") || !strings.Contains(out, fmt.Sprintf("probes=%d", n)) {
			t.Errorf("n=%d: projection subplan should render with probe counts:\n%s", n, out)
		}
	}
}

// TestExplainAnalyzeRecorderBounded: a non-cacheable subplan rebuilds
// its tree once per outer row; the recorder must fold and forget each
// discarded tree instead of pinning O(outer rows) trees (and their
// materialised derived-table rows) for the whole execution.
func TestExplainAnalyzeRecorderBounded(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE o (id INTEGER PRIMARY KEY)")
	db.MustExec("CREATE TABLE i (oid INTEGER)")
	for k := 0; k < 200; k++ {
		db.MustExec("INSERT INTO o VALUES (?)", k)
		db.MustExec("INSERT INTO i VALUES (?)", k%50)
	}
	aq, err := db.ExplainAnalyze(context.Background(),
		"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM (SELECT oid FROM i) d WHERE d.oid = o.id)")
	if err != nil {
		t.Fatal(err)
	}
	var rec *subplanRec
	for _, s := range aq.rec.subplans {
		rec = s
	}
	if rec == nil || rec.probes != 200 || rec.misses != 200 {
		t.Fatalf("non-cacheable subplan record = %+v, want 200 probes / 200 misses", rec)
	}
	// Main tree plus one retained subplan tree: a few dozen operators at
	// most, never O(probes) of them.
	if got := len(aq.rec.stats); got > 40 {
		t.Errorf("recorder retains %d operator records — discarded per-probe trees are being pinned", got)
	}
}

func TestExplainAnalyzeRequiresSelect(t *testing.T) {
	db := testDB(t)
	_, err := db.ExplainAnalyze(context.Background(), "DELETE FROM movies")
	if CodeOf(err) != ErrMisuse {
		t.Errorf("EXPLAIN ANALYZE of DML: err = %v, want ErrMisuse", err)
	}
}

// analyzeCorpus is the plan corpus for the accounting property: every
// operator and access path the planner can produce, including cacheable
// and non-cacheable (derived-table) subplans, index joins with both keys
// indexed, ordered and range scans, and correlated probes.
func analyzeCorpus(r *rand.Rand) []string {
	return []string{
		fmt.Sprintf("SELECT id, a, c FROM t1 WHERE %s ORDER BY id", diffPred(r, 80)),
		fmt.Sprintf("SELECT t1.id, t1.a, t2.d FROM t1 JOIN t2 ON t1.id = t2.t1_id WHERE %s ORDER BY t1.id, t2.id", diffPred(r, 80)),
		fmt.Sprintf("SELECT t1.id, t2.d FROM t1 LEFT JOIN t2 ON t1.id = t2.t1_id WHERE %s ORDER BY t1.id, t2.id", diffPred(r, 80)),
		fmt.Sprintf("SELECT a, COUNT(*), SUM(f) FROM t1 WHERE %s GROUP BY a HAVING COUNT(*) > 1 ORDER BY a", diffPred(r, 80)),
		fmt.Sprintf("SELECT DISTINCT t1.a FROM t1 JOIN t2 ON t1.id = t2.t1_id ORDER BY t1.a LIMIT %d", 1+r.Intn(6)),
		fmt.Sprintf("SELECT id FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.t1_id = t1.id AND t2.d > %d) ORDER BY id", r.Intn(20)),
		fmt.Sprintf("SELECT id, b FROM t1 WHERE %s LIMIT %d OFFSET %d", diffPred(r, 80), r.Intn(10), r.Intn(5)),
		fmt.Sprintf("SELECT id, a, b FROM t1 WHERE %s ORDER BY id DESC LIMIT %d", diffPred(r, 80), 1+r.Intn(10)),
		fmt.Sprintf("SELECT t1.id, t2.d FROM t1 JOIN t2 ON t1.id = t2.id WHERE %s ORDER BY t1.id", diffPred(r, 80)),
		fmt.Sprintf("SELECT id, (SELECT MAX(d) FROM t2 WHERE t2.t1_id = t1.id) FROM t1 WHERE %s ORDER BY id", diffPred(r, 80)),
		fmt.Sprintf("SELECT id FROM t1 WHERE a IN (SELECT d FROM t2 WHERE t2.t1_id = t1.id) OR %s ORDER BY id", diffPred(r, 80)),
		// Derived tables: in FROM (materialised during planning) and in a
		// subquery (forces the rebuilt-per-probe path and its carry logic).
		fmt.Sprintf("SELECT x.id FROM (SELECT id, a FROM t1 WHERE %s) x WHERE x.a > %d ORDER BY x.id", diffPred(r, 80), r.Intn(4)),
		fmt.Sprintf("SELECT id FROM t1 WHERE EXISTS (SELECT 1 FROM (SELECT t1_id FROM t2 WHERE d > %d) dd WHERE dd.t1_id = t1.id) ORDER BY id", r.Intn(15)),
		"SELECT COUNT(*) FROM t1 a JOIN t1 b ON a.a > b.a",
		// Both join keys indexed, nothing filtered, an ORDER BY that re-sorts:
		// the index join (on the indexed database).
		"SELECT t1.id, t2.d FROM t1 JOIN t2 ON t1.id = t2.t1_id ORDER BY t1.id, t2.id",
		// An ordered walk re-pulled per outer row (on the indexed database).
		fmt.Sprintf("SELECT id, (SELECT t2.d FROM t2 WHERE t2.d > t1.a + %d ORDER BY t2.id LIMIT 1) FROM t1", r.Intn(25)),
	}
}

// TestExplainAnalyzeCountsMatchEngineStats is the acceptance property:
// for every statement in the plan corpus, (1) the per-query recorder's
// totals equal the delta they caused in the engine-wide Stats() counters,
// (2) the per-operator scanned counts over all executed trees (main tree,
// materialised build/derived subtrees, every compiled subplan including
// rebuilt-and-discarded ones) sum exactly to the query's RowsScanned, and
// (3) the plan root's row count equals RowsEmitted. Every table carries
// deleted rows a pinned snapshot keeps from the vacuum, so the tombstone
// side of the scan's tally is billed too, and the corpus must reach every
// access path of the one base-table leaf.
func TestExplainAnalyzeCountsMatchEngineStats(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	indexed, plain := diffLoad(t, r, 80)
	big := bigDB(t, 3*morselMinRows)
	for _, db := range []*Database{indexed, plain, big} {
		defer db.Begin().Rollback() // pins the vacuum horizon below the deletes
	}
	indexed.MustExec("DELETE FROM t2 WHERE id % 9 = 0")
	plain.MustExec("DELETE FROM t2 WHERE id % 9 = 0")
	big.MustExec("DELETE FROM big WHERE id % 97 = 0")
	leaves := map[string]bool{"seq scan": false, "batch index scan": false, "index range scan": false,
		"ordered index scan": false, "ordered index range scan": false, "correlated probe": false,
		"index nested loop join": false, "tombstones=": false}
	ctx := context.Background()
	check := func(name string, db *Database, sql string) {
		before := db.Stats()
		aq, err := db.ExplainAnalyze(ctx, sql)
		if err != nil {
			t.Fatalf("%s ExplainAnalyze(%q): %v", name, sql, err)
		}
		after := db.Stats()
		qs := aq.Stats
		deltas := []struct {
			field string
			stats uint64
			query uint64
		}{
			{"Queries", after.Queries - before.Queries, 1},
			{"RowsScanned", after.RowsScanned - before.RowsScanned, qs.RowsScanned},
			{"RowsEmitted", after.RowsEmitted - before.RowsEmitted, qs.RowsEmitted},
			{"IndexScans", after.IndexScans - before.IndexScans, qs.IndexScans},
			{"FullScans", after.FullScans - before.FullScans, qs.FullScans},
			{"IndexRangeScans", after.IndexRangeScans - before.IndexRangeScans, qs.IndexRangeScans},
			{"OrderedIndexOrders", after.OrderedIndexOrders - before.OrderedIndexOrders, qs.OrderedIndexOrders},
			{"SubplanCacheHits", after.SubplanCacheHits - before.SubplanCacheHits, qs.SubplanCacheHits},
			{"SubplanCacheMisses", after.SubplanCacheMisses - before.SubplanCacheMisses, qs.SubplanCacheMisses},
			{"TombstonesSkipped", after.TombstonesSkipped - before.TombstonesSkipped, qs.TombstonesSkipped},
			{"VectorBatches", after.VectorBatches - before.VectorBatches, qs.VectorBatches},
		}
		for _, d := range deltas {
			if d.stats != d.query {
				t.Fatalf("%s %q: engine %s delta %d != per-query %d",
					name, sql, d.field, d.stats, d.query)
			}
		}
		plan := strings.Join(aq.Plan, "\n")
		if got := aq.scannedTotal(); got != qs.RowsScanned {
			t.Fatalf("%s %q: per-operator scanned sum %d != query RowsScanned %d\n%s",
				name, sql, got, qs.RowsScanned, plan)
		}
		if got := aq.rootRows(); got != qs.RowsEmitted {
			t.Fatalf("%s %q: root rows %d != RowsEmitted %d",
				name, sql, got, qs.RowsEmitted)
		}
		for leaf := range leaves {
			leaves[leaf] = leaves[leaf] || strings.Contains(plan, leaf)
		}
	}
	for round := 0; round < 12; round++ {
		for _, sql := range analyzeCorpus(r) {
			check("indexed", indexed, sql)
			check("plain", plain, sql)
		}
		check("big", big, fmt.Sprintf("SELECT id, v FROM big WHERE v > %d", r.Intn(900)))
		check("big", big, fmt.Sprintf("SELECT grp, COUNT(*) FROM big WHERE id > %d GROUP BY grp", r.Intn(2*morselMinRows)))
		check("big", big, fmt.Sprintf("SELECT id, v FROM big WHERE v > %d ORDER BY v DESC, id LIMIT 100", r.Intn(900)))
	}
	// A sort folded into its scan still reports what it drained and kept, and
	// the scan bills exactly what it bills under a full sort above it.
	const topK = "SELECT id, v FROM big WHERE v > 500 ORDER BY v DESC, id LIMIT 100"
	folded, err := big.ExplainAnalyze(ctx, topK)
	if err != nil {
		t.Fatal(err)
	}
	rowPath, err := big.ExplainAnalyze(ctx, strings.TrimSuffix(topK, " LIMIT 100"))
	if err != nil {
		t.Fatal(err)
	}
	survivors, err := big.Query("SELECT COUNT(*) FROM big WHERE v > 500")
	if err != nil {
		t.Fatal(err)
	}
	plan := strings.Join(folded.Plan, "\n")
	if want := fmt.Sprintf("(top 100) (folded in scan) [rows=100 in=%s kept=100", survivors.Rows[0][0].AsText()); !strings.Contains(plan, want) {
		t.Errorf("folded sort node missing %q:\n%s", want, plan)
	}
	if f, r := folded.Stats, rowPath.Stats; f.RowsScanned != r.RowsScanned || f.TombstonesSkipped != r.TombstonesSkipped ||
		f.TombstonesSkipped == 0 || f.VectorBatches != uint64(3*morselMinRows/morselSize) {
		t.Errorf("folded top-K billed scanned/tombstones/batches %d/%d/%d, the full sort %d/%d",
			f.RowsScanned, f.TombstonesSkipped, f.VectorBatches, r.RowsScanned, r.TombstonesSkipped)
	}
	for leaf, seen := range leaves {
		if !seen {
			t.Errorf("no plan in the corpus showed %q: the scan's tally is not pinned on that path", leaf)
		}
	}
}

// TestExecSelectCountsEmittedRows: a SELECT routed through Exec streams
// its rows to /dev/null but still emits them — the aggregation invariant
// (engine-wide Stats is the sum of per-query recorders, every counter
// included) must hold for this path too.
func TestExecSelectCountsEmittedRows(t *testing.T) {
	db := bigDB(t, 100)
	before := db.Stats()
	n, err := db.Exec("SELECT id FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("Exec(SELECT) = %d rows, want 100", n)
	}
	after := db.Stats()
	if got := after.RowsEmitted - before.RowsEmitted; got != 100 {
		t.Errorf("RowsEmitted delta = %d, want 100", got)
	}
	if got := after.Queries - before.Queries; got != 1 {
		t.Errorf("Queries delta = %d, want 1", got)
	}
}

// TestRowsStatsPerQuery: each cursor's recorder covers exactly its own
// execution — interleaved cursors never bleed counts into one another,
// and their totals sum to the engine-wide delta once both close.
func TestRowsStatsPerQuery(t *testing.T) {
	db := bigDB(t, 10000)
	ctx := context.Background()
	before := db.Stats()

	full, err := db.QueryRows(ctx, "SELECT id FROM big")
	if err != nil {
		t.Fatal(err)
	}
	limited, err := db.QueryRows(ctx, "SELECT id FROM big LIMIT 7")
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: drain the limited cursor while the full one is mid-scan.
	for i := 0; i < 100; i++ {
		if !full.Next() {
			t.Fatal("full cursor ended early")
		}
	}
	// With a worker pool (GOMAXPROCS > 1) the scan legitimately runs ahead
	// of the cursor by a bounded number of morsels, so RowsScanned is >=
	// RowsEmitted mid-flight rather than equal. Isolation is pinned by the
	// limited cursor's exact 7/7 and the engine-delta sum below.
	mid := full.Stats()
	if mid.RowsScanned < 100 || mid.RowsEmitted != 100 {
		t.Errorf("mid-flight stats = %+v, want emitted 100 and scanned >= 100", mid)
	}
	for limited.Next() {
	}
	if err := limited.Err(); err != nil {
		t.Fatal(err)
	}
	ls := limited.Stats()
	if ls.RowsScanned != 7 || ls.RowsEmitted != 7 {
		t.Errorf("limited cursor stats = %+v, want exactly its own 7/7", ls)
	}
	for full.Next() {
	}
	if err := full.Err(); err != nil {
		t.Fatal(err)
	}
	fs := full.Stats()
	if fs.RowsScanned != 10000 || fs.RowsEmitted != 10000 {
		t.Errorf("full cursor stats = %+v, want 10000/10000", fs)
	}
	full.Close()
	limited.Close()

	after := db.Stats()
	if got := after.RowsScanned - before.RowsScanned; got != fs.RowsScanned+ls.RowsScanned {
		t.Errorf("engine RowsScanned delta %d != sum of per-query recorders %d",
			got, fs.RowsScanned+ls.RowsScanned)
	}
	if got := after.RowsEmitted - before.RowsEmitted; got != fs.RowsEmitted+ls.RowsEmitted {
		t.Errorf("engine RowsEmitted delta %d != sum of per-query recorders %d",
			got, fs.RowsEmitted+ls.RowsEmitted)
	}
	if got := after.Queries - before.Queries; got != 2 {
		t.Errorf("Queries delta = %d, want 2", got)
	}
}
