package sqldb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestPrepareBasics(t *testing.T) {
	db := testDB(t)
	stmt, err := db.Prepare("SELECT title FROM movies WHERE genre = ? ORDER BY revenue DESC")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.SQL() == "" {
		t.Error("SQL() should echo the statement text")
	}
	res, err := stmt.Query("Romance")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"Titanic"}, {"The Notebook"}, {"Quiet Nights"}}
	got := rowsToStrings(res.Rows)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("prepared query = %v, want %v", got, want)
	}
	// Different parameters, same plan.
	res, err = stmt.Query("Crime")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "Heat" {
		t.Errorf("re-execution with new params = %v", rowsToStrings(res.Rows))
	}

	if _, err := db.Prepare("INSERT INTO movies VALUES (9, 'x', 'y', 1, 2000)"); err == nil {
		t.Error("Prepare of non-SELECT must fail")
	} else if !strings.Contains(err.Error(), "Prepare requires") {
		t.Errorf("Prepare error should name Prepare, got %q", err)
	}
	if _, err := db.Prepare("SELECT FROM WHERE"); err == nil {
		t.Error("Prepare of invalid SQL must fail")
	}
}

func TestPlanCacheReusesParses(t *testing.T) {
	db := testDB(t)
	const sql = "SELECT COUNT(*) FROM movies"
	held := len(db.plans.m) // the fixture's own DDL and INSERTs
	s1, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if s1.sel != s2.sel {
		t.Error("repeated Prepare should reuse the cached parse")
	}
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	if got := len(db.plans.m); got != held+1 {
		t.Errorf("statement cache holds %d entries, want %d", got, held+1)
	}
	// Executions through the cache must stay correct after DDL touching
	// unrelated tables (the cache stores parses, not bound plans).
	db.MustExec("CREATE TABLE extra (x INTEGER)")
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 5 {
		t.Errorf("cached query returned %v, want 5", res.Rows[0][0])
	}
}

func TestPlanCacheEvicts(t *testing.T) {
	db := testDB(t)
	const texts = 2 * planCacheBudget / planEntryCost // more than can ever fit
	text := func(i int) string { return fmt.Sprintf("SELECT %d FROM movies LIMIT 1", i) }
	for i := 0; i < texts; i++ {
		if _, err := db.Query(text(i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, charge := len(db.plans.m), db.plans.held
	if charge > planCacheBudget || entries == 0 || entries >= texts {
		t.Errorf("statement cache holds %d entries charged %d, want some and at most %d", entries, charge, planCacheBudget)
	}
	// The most recent statement is retained (a hit) and still executable;
	// the oldest went (a miss).
	before := db.Stats()
	if _, err := db.Query(text(texts - 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(text(0)); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if hits, misses := s.PlanCacheHits-before.PlanCacheHits, s.PlanCacheMisses-before.PlanCacheMisses; hits != 1 || misses != 1 {
		t.Errorf("newest then oldest text: %d hits, %d misses; want 1 and 1", hits, misses)
	}
}

func TestPlanCacheSurvivesSchemaChange(t *testing.T) {
	// A cached parse over a dropped-and-recreated table must re-bind at
	// execution time and see the new schema.
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (v INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1)")
	const sql = "SELECT v FROM t"
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	db.MustExec("DROP TABLE t")
	if _, err := db.Query(sql); err == nil {
		t.Error("query over dropped table should fail even when cached")
	}
	db.MustExec("CREATE TABLE t (pad TEXT, v INTEGER)")
	db.MustExec("INSERT INTO t VALUES ('x', 42)")
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 42 {
		t.Errorf("cached parse over recreated table = %v", rowsToStrings(res.Rows))
	}
}

// TestPreparedParamsTakeIndexPerExecution: `col = ?`, `col > ?` and
// `col BETWEEN ? AND ?` over an indexed column resolve the binding where
// the access path is chosen — index scans, no full scan, visible in
// EXPLAIN — and one prepared Stmt run with two bindings returns each
// binding's rows: nothing resolved for one execution reaches the next.
func TestPreparedParamsTakeIndexPerExecution(t *testing.T) {
	db := testDB(t)
	eq, err := db.Prepare("SELECT title FROM movies WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	for _, id := range []int{3, 5, 3} {
		want := queryStrings(t, db, fmt.Sprintf("SELECT title FROM movies WHERE id + 0 = %d", id))
		res, err := eq.Query(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsToStrings(res.Rows); len(got) != 1 || !reflect.DeepEqual(got, want) {
			t.Errorf("id = ? bound to %d returned %v, want %v", id, got, want)
		}
	}
	s := db.Stats()
	if got := s.IndexScans - before.IndexScans; got != 3 {
		t.Errorf("IndexScans moved by %d over 3 parameterised lookups, want 3", got)
	}
	if got := s.FullScans - before.FullScans; got != 3 {
		t.Errorf("FullScans moved by %d, want 3 (the reference queries only)", got)
	}
	if res, err := eq.Query(nil); err != nil || len(res.Rows) != 0 {
		t.Errorf("id = ? bound to NULL returned %v, %v; want no rows", res, err)
	}

	for _, c := range []struct {
		sql, plain string
		params     []any
		path       string
	}{
		{"SELECT id FROM movies WHERE id = ?", "SELECT id FROM movies WHERE id + 0 = 4", []any{4}, "index scan movies"},
		{"SELECT id FROM movies WHERE id > ?", "SELECT id FROM movies WHERE id + 0 > 4", []any{4}, "index range scan movies"},
		{"SELECT id FROM movies WHERE ? >= id", "SELECT id FROM movies WHERE id + 0 <= 2", []any{2}, "index range scan movies"},
		{"SELECT id FROM movies WHERE id BETWEEN ? AND ?", "SELECT id FROM movies WHERE id + 0 BETWEEN 2 AND 4", []any{2, 4}, "index range scan movies"},
		{"SELECT id FROM movies WHERE id BETWEEN ? AND ?", "SELECT id FROM movies WHERE id + 0 BETWEEN 2 AND NULL", []any{2, nil}, "index scan movies (as movies) vectorized 1/1: 0 candidate row(s)"},
	} {
		if got, want := queryStrings(t, db, c.sql, c.params...), queryStrings(t, db, c.plain); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %v = %v, want %v", c.sql, c.params, got, want)
		}
		lines, err := db.Explain(c.sql, c.params...)
		if err != nil {
			t.Fatal(err)
		}
		if out := strings.Join(lines, "\n"); !strings.Contains(out, c.path) {
			t.Errorf("EXPLAIN %s %v: want %q in\n%s", c.sql, c.params, c.path, out)
		}
	}
}
