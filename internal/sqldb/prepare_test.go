package sqldb

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestQueryRebindsParams: one text run with two bindings, its parse
// served from the cache the second time, returns each binding's rows; a
// text that is not one SELECT is refused by name.
func TestQueryRebindsParams(t *testing.T) {
	db := testDB(t)
	const sql = "SELECT title FROM movies WHERE genre = ? ORDER BY revenue DESC"
	res, err := db.Query(sql, "Romance")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"Titanic"}, {"The Notebook"}, {"Quiet Nights"}}
	got := rowsToStrings(res.Rows)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parameterised query = %v, want %v", got, want)
	}
	// Different parameters, same cached parse.
	hits := db.Stats().PlanCacheHits
	res, err = db.Query(sql, "Crime")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "Heat" {
		t.Errorf("re-execution with new params = %v", rowsToStrings(res.Rows))
	}
	if got := db.Stats().PlanCacheHits - hits; got != 1 {
		t.Errorf("re-execution moved PlanCacheHits by %d, want 1", got)
	}

	if _, err := db.Query("INSERT INTO movies VALUES (9, 'x', 'y', 1, 2000)"); err == nil {
		t.Error("Query of non-SELECT must fail")
	} else if !strings.Contains(err.Error(), "QueryRows requires") {
		t.Errorf("Query error should name QueryRows, got %q", err)
	}
	if _, err := db.Query("SELECT FROM WHERE"); err == nil {
		t.Error("Query of invalid SQL must fail")
	}
}

func TestPlanCacheReusesParses(t *testing.T) {
	db := testDB(t)
	const sql = "SELECT COUNT(*) FROM movies"
	held := len(db.plans.m) // the fixture's own DDL and INSERTs
	var sels [2]Statement
	for i := range sels {
		rows, err := db.QueryRows(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		sels[i] = db.plans.m[sql].stmts[0]
	}
	if _, ok := sels[0].(*SelectStmt); !ok || sels[0] != sels[1] {
		t.Errorf("repeated QueryRows should reuse the cached *SelectStmt, got %p and %p", sels[0], sels[1])
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
// EXPLAIN — and one cached parse run with several bindings returns each
// binding's rows: nothing resolved for one execution reaches the next.
func TestPreparedParamsTakeIndexPerExecution(t *testing.T) {
	db := testDB(t)
	const eq = "SELECT title FROM movies WHERE id = ?"
	before := db.Stats()
	for _, id := range []int{3, 5, 3} {
		want := queryStrings(t, db, fmt.Sprintf("SELECT title FROM movies WHERE id + 0 = %d", id))
		res, err := db.Query(eq, id)
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
	if res, err := db.Query(eq, nil); err != nil || len(res.Rows) != 0 {
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
