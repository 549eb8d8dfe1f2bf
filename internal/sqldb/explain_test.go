package sqldb

import (
	"context"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func explainJoined(t *testing.T, lines []string) string {
	t.Helper()
	return strings.Join(lines, "\n")
}

func TestExplainSeqScan(t *testing.T) {
	db := testDB(t)
	lines, err := db.Explain("SELECT title FROM movies WHERE genre = 'Romance'")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "seq scan movies") {
		t.Errorf("expected seq scan:\n%s", out)
	}
	if !strings.Contains(out, "filter") {
		t.Errorf("expected filter stage:\n%s", out)
	}
}

func TestExplainIndexScan(t *testing.T) {
	db := testDB(t)
	lines, err := db.Explain("SELECT title FROM movies WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "index scan movies") {
		t.Errorf("primary-key equality should use the index:\n%s", out)
	}
	if strings.Contains(out, "filter") {
		t.Errorf("index-served predicate should be removed from the filter:\n%s", out)
	}
}

func TestExplainHashJoin(t *testing.T) {
	db := testDB(t)
	// reviews.movie_id has no index and there is no ORDER BY (so the
	// planner cannot flip sides onto movies' primary key): plain hash join
	// building the right input.
	lines, err := db.Explain("SELECT m.title FROM movies m JOIN reviews r ON m.id = r.movie_id")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "hash join") {
		t.Errorf("equi-join should hash:\n%s", out)
	}
	if !strings.Contains(out, "build right") {
		t.Errorf("default hash join should report building the right side:\n%s", out)
	}
}

func TestExplainHashJoinBuildSide(t *testing.T) {
	// With an ORDER BY imposing the final order, the planner builds the
	// smaller input. small (3 rows) JOIN big (60 rows) on un-indexed keys
	// should build the left side.
	db := NewDatabase()
	db.MustExec("CREATE TABLE small (k INTEGER)")
	db.MustExec("CREATE TABLE big (k INTEGER, v INTEGER)")
	for i := 0; i < 3; i++ {
		db.MustExec("INSERT INTO small VALUES (?)", i)
	}
	for i := 0; i < 60; i++ {
		db.MustExec("INSERT INTO big VALUES (?, ?)", i%3, i)
	}
	lines, err := db.Explain("SELECT big.v FROM small JOIN big ON small.k = big.k ORDER BY big.v")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "hash join") || !strings.Contains(out, "build left") {
		t.Errorf("small left input should become the build side:\n%s", out)
	}
	// Without ORDER BY, flipping would change output order: keep right.
	lines, err = db.Explain("SELECT big.v FROM small JOIN big ON small.k = big.k")
	if err != nil {
		t.Fatal(err)
	}
	if out := explainJoined(t, lines); !strings.Contains(out, "build right") {
		t.Errorf("order-sensitive plan must build right:\n%s", out)
	}
}

func TestExplainIndexJoin(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE INDEX idx_reviews_movie ON reviews (movie_id)")
	// The right side's join column is indexed: no build phase at all.
	lines, err := db.Explain("SELECT m.title FROM movies m JOIN reviews r ON m.id = r.movie_id")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "index nested loop join") {
		t.Errorf("indexed right join key should use index nested loop:\n%s", out)
	}
	if strings.Contains(out, "hash join") {
		t.Errorf("index join should replace hash join:\n%s", out)
	}
	// Flipped: only the LEFT side's key (movies.id, the primary key) is
	// indexed. With an ORDER BY the planner probes the right input.
	lines, err = db.Explain("SELECT r.stars FROM movies m JOIN reviews r ON m.id = r.stars ORDER BY r.stars")
	if err != nil {
		t.Fatal(err)
	}
	out = explainJoined(t, lines)
	if !strings.Contains(out, "index nested loop join") || !strings.Contains(out, "probing right input") {
		t.Errorf("indexed left key under ORDER BY should flip the probe side:\n%s", out)
	}
}

func TestExplainNestedLoopAndCross(t *testing.T) {
	db := testDB(t)
	lines, err := db.Explain("SELECT COUNT(*) FROM movies a JOIN movies b ON a.revenue > b.revenue")
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	if !strings.Contains(out, "nested loop join") {
		t.Errorf("non-equi join should nest:\n%s", out)
	}
	if !strings.Contains(out, "aggregate") {
		t.Errorf("COUNT should aggregate:\n%s", out)
	}
	lines, err = db.Explain("SELECT * FROM movies, reviews")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explainJoined(t, lines), "cross join") {
		t.Errorf("comma join should be cross:\n%s", explainJoined(t, lines))
	}
}

func TestExplainStages(t *testing.T) {
	db := testDB(t)
	lines, err := db.Explain(`SELECT DISTINCT genre FROM movies
		GROUP BY genre ORDER BY genre LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	out := explainJoined(t, lines)
	for _, stage := range []string{"limit/offset", "sort by", "distinct", "hash aggregate"} {
		if !strings.Contains(out, stage) {
			t.Errorf("missing stage %q:\n%s", stage, out)
		}
	}
	// Stage order: limit outermost, then sort, distinct, aggregate.
	li := strings.Index(out, "limit/offset")
	si := strings.Index(out, "sort by")
	ai := strings.Index(out, "hash aggregate")
	if !(li < si && si < ai) {
		t.Errorf("stage order wrong:\n%s", out)
	}
}

func TestExplainErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Explain("INSERT INTO movies VALUES (99, 'x', 'y', 1, 2000)"); err == nil {
		t.Error("EXPLAIN of non-SELECT must fail")
	}
	if _, err := db.Explain("SELECT nope FROM nowhere"); err == nil {
		t.Error("EXPLAIN of invalid query must fail")
	}
}

// TestExplainAnalyzeBatchCalls pins how batch-form function calls show in
// an analyzed plan: the filter a conjunct with such calls gets, above the
// scan that evaluates the cheaper conjuncts, and the gather under a projection whose
// sort key makes one, each with what its calls did — evaluations, calls of
// the function, evaluations an earlier row had already asked for — and the
// same three summed in the statement's QueryStats.
func TestExplainAnalyzeBatchCalls(t *testing.T) {
	db := udfDB(t, 600)
	_, batch, _ := udfSets()
	aq, err := db.ExplainAnalyze(WithFuncs(context.Background(), batch),
		"SELECT id FROM t WHERE PICK('a', v) AND g = 3 ORDER BY SCORE(w) DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	timing := regexp.MustCompile(` time=[^\]]*`)
	var got []string
	for _, l := range aq.Plan {
		got = append(got, timing.ReplaceAllString(l, ""))
	}
	want := []string{
		"limit/offset [rows=5]",
		"  sort by SCORE(w) DESC (top 5) [rows=5 in=21 kept=5]",
		"    project 1 column(s) [rows=21]",
		"      batch-call gather: 1 call site(s) [rows=21 lm_calls=21 lm_batches=1 lm_dedup=8]",
		"        batch-call filter PICK('a', v) [rows=21 lm_calls=86 lm_batches=1 lm_dedup=45]",
		"          batch seq scan t (as t) vectorized 1/1: 600 row(s) [rows=86 scanned=600 batches=1]",
		"            fused filter (g = 3)",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if s := aq.Stats; s.LMCalls != 107 || s.LMBatches != 2 || s.LMDedup != 53 {
		t.Errorf("QueryStats LMCalls/LMBatches/LMDedup = %d/%d/%d, want 107/2/53", s.LMCalls, s.LMBatches, s.LMDedup)
	}
}
