package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// testDB builds a small movie database used across executor tests.
func testDB(t testing.TB) *Database {
	db := NewDatabase()
	db.MustExec(`CREATE TABLE movies (
		id INTEGER PRIMARY KEY,
		title TEXT NOT NULL,
		genre TEXT,
		revenue REAL,
		year INTEGER
	)`)
	db.MustExec(`CREATE TABLE reviews (
		id INTEGER PRIMARY KEY,
		movie_id INTEGER,
		stars INTEGER,
		body TEXT
	)`)
	db.MustExec(`INSERT INTO movies VALUES
		(1, 'Titanic', 'Romance', 2257.8, 1997),
		(2, 'Shang-Chi', 'Action', 432.2, 2021),
		(3, 'The Notebook', 'Romance', 115.6, 2004),
		(4, 'Heat', 'Crime', 187.4, 1995),
		(5, 'Quiet Nights', 'Romance', NULL, 2019)`)
	db.MustExec(`INSERT INTO reviews VALUES
		(1, 1, 5, 'still best'),
		(2, 1, 4, 'a guilty pleasure'),
		(3, 2, 3, 'solid film'),
		(4, 3, 5, 'weepy classic'),
		(5, 4, 5, 'tense and lean'),
		(6, 99, 1, 'orphan review')`)
	return db
}

// txQuery is Collect over tx.QueryRows: a transaction's read, materialised.
func txQuery(tx *Txn, sql string, params ...any) (*Result, error) {
	rows, err := tx.QueryRows(context.Background(), sql, params...)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// queryStrings runs a query and flattens the result to strings for easy
// comparison.
func queryStrings(t testing.TB, db *Database, sql string, params ...any) [][]string {
	t.Helper()
	res, err := db.Query(sql, params...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
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
	return out
}

func TestSelectBasics(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT title FROM movies WHERE genre = 'Romance' ORDER BY revenue DESC")
	want := [][]string{{"Titanic"}, {"The Notebook"}, {"Quiet Nights"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSelectExpressions(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT title, revenue * 2 AS dbl FROM movies WHERE id = 1")
	if got[0][1] != "4515.6" {
		t.Errorf("arith projection = %v", got)
	}
	got = queryStrings(t, db, "SELECT 'a' || 'b' || 'c'")
	if got[0][0] != "abc" {
		t.Errorf("concat = %v", got)
	}
	got = queryStrings(t, db, "SELECT CASE WHEN 1 < 2 THEN 'yes' ELSE 'no' END")
	if got[0][0] != "yes" {
		t.Errorf("case = %v", got)
	}
}

func TestWhereThreeValuedLogic(t *testing.T) {
	db := testDB(t)
	// revenue NULL row must not match either side of the comparison.
	got := queryStrings(t, db, "SELECT COUNT(*) FROM movies WHERE revenue > 100 OR revenue <= 100")
	if got[0][0] != "4" {
		t.Errorf("3VL count = %v, want 4 (NULL revenue row excluded)", got)
	}
	got = queryStrings(t, db, "SELECT title FROM movies WHERE revenue IS NULL")
	if len(got) != 1 || got[0][0] != "Quiet Nights" {
		t.Errorf("IS NULL = %v", got)
	}
}

func TestOrderByVariants(t *testing.T) {
	db := testDB(t)
	// By output alias.
	got := queryStrings(t, db, "SELECT title, revenue AS r FROM movies WHERE revenue IS NOT NULL ORDER BY r LIMIT 1")
	if got[0][0] != "The Notebook" {
		t.Errorf("ORDER BY alias = %v", got)
	}
	// By ordinal.
	got = queryStrings(t, db, "SELECT title, year FROM movies ORDER BY 2 DESC LIMIT 1")
	if got[0][0] != "Shang-Chi" {
		t.Errorf("ORDER BY ordinal = %v", got)
	}
	// By non-projected column.
	got = queryStrings(t, db, "SELECT title FROM movies ORDER BY year LIMIT 1")
	if got[0][0] != "Heat" {
		t.Errorf("ORDER BY hidden col = %v", got)
	}
	// Multi-key with mixed direction.
	got = queryStrings(t, db, "SELECT genre, title FROM movies ORDER BY genre ASC, title DESC")
	if got[0][0] != "Action" || got[2][1] != "Titanic" {
		t.Errorf("multi-key order = %v", got)
	}
}

func TestLimitOffset(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT id FROM movies ORDER BY id LIMIT 2 OFFSET 1")
	want := [][]string{{"2"}, {"3"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("limit/offset = %v", got)
	}
	// SQLite's LIMIT offset, count form.
	got = queryStrings(t, db, "SELECT id FROM movies ORDER BY id LIMIT 1, 2")
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LIMIT m,n = %v", got)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT DISTINCT genre FROM movies ORDER BY genre")
	want := [][]string{{"Action"}, {"Crime"}, {"Romance"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distinct = %v", got)
	}
}

func TestAggregates(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT COUNT(*), COUNT(revenue), SUM(revenue), MIN(year), MAX(year) FROM movies")
	want := []string{"5", "4", "2993.0", "1995", "2021"}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("aggregates = %v, want %v", got[0], want)
	}
	got = queryStrings(t, db, "SELECT AVG(stars) FROM reviews")
	if !strings.HasPrefix(got[0][0], "3.8333") {
		t.Errorf("avg = %v", got)
	}
	// Aggregate over empty input yields one row.
	got = queryStrings(t, db, "SELECT COUNT(*), SUM(revenue) FROM movies WHERE id > 100")
	if got[0][0] != "0" || got[0][1] != "NULL" {
		t.Errorf("empty aggregate = %v", got)
	}
}

func TestGroupByHaving(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, `SELECT genre, COUNT(*) AS n, MAX(revenue)
		FROM movies GROUP BY genre HAVING COUNT(*) >= 1 ORDER BY n DESC, genre`)
	if len(got) != 3 || got[0][0] != "Romance" || got[0][1] != "3" {
		t.Errorf("group by = %v", got)
	}
	// HAVING filters groups.
	got = queryStrings(t, db, "SELECT genre FROM movies GROUP BY genre HAVING COUNT(*) > 2")
	if len(got) != 1 || got[0][0] != "Romance" {
		t.Errorf("having = %v", got)
	}
	// Grouping expression reused in projection.
	got = queryStrings(t, db, "SELECT UPPER(genre), COUNT(*) FROM movies GROUP BY UPPER(genre) ORDER BY 1")
	if got[0][0] != "ACTION" {
		t.Errorf("group expr projection = %v", got)
	}
}

func TestGroupConcatAndDistinctAgg(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT GROUP_CONCAT(title, '; ') FROM movies WHERE genre = 'Romance' ORDER BY 1")
	if !strings.Contains(got[0][0], "Titanic") || !strings.Contains(got[0][0], "; ") {
		t.Errorf("group_concat = %v", got)
	}
	got = queryStrings(t, db, "SELECT COUNT(DISTINCT genre) FROM movies")
	if got[0][0] != "3" {
		t.Errorf("count distinct = %v", got)
	}
}

func TestJoins(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, `SELECT m.title, r.body FROM movies m
		JOIN reviews r ON m.id = r.movie_id WHERE m.genre = 'Romance' ORDER BY r.id`)
	if len(got) != 3 || got[0][1] != "still best" {
		t.Errorf("inner join = %v", got)
	}
	// LEFT JOIN keeps unmatched movies with NULL review.
	got = queryStrings(t, db, `SELECT m.title, r.body FROM movies m
		LEFT JOIN reviews r ON m.id = r.movie_id WHERE m.id = 5`)
	if len(got) != 1 || got[0][1] != "NULL" {
		t.Errorf("left join = %v", got)
	}
	// Join with aggregation.
	got = queryStrings(t, db, `SELECT m.title, COUNT(r.id) AS nrev FROM movies m
		LEFT JOIN reviews r ON m.id = r.movie_id GROUP BY m.title ORDER BY nrev DESC, m.title LIMIT 1`)
	if got[0][0] != "Titanic" || got[0][1] != "2" {
		t.Errorf("join+agg = %v", got)
	}
}

func TestJoinNonEqui(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, `SELECT COUNT(*) FROM movies a JOIN movies b ON a.revenue > b.revenue`)
	// Pairs with a.revenue > b.revenue among {2257.8, 432.2, 115.6, 187.4}: 6.
	if got[0][0] != "6" {
		t.Errorf("non-equi join count = %v", got)
	}
}

func TestCrossJoin(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT COUNT(*) FROM movies, reviews")
	if got[0][0] != "30" {
		t.Errorf("cross join = %v", got)
	}
}

func TestSubqueries(t *testing.T) {
	db := testDB(t)
	// Scalar subquery.
	got := queryStrings(t, db, "SELECT title FROM movies WHERE revenue = (SELECT MAX(revenue) FROM movies)")
	if len(got) != 1 || got[0][0] != "Titanic" {
		t.Errorf("scalar subquery = %v", got)
	}
	// IN subquery.
	got = queryStrings(t, db, "SELECT body FROM reviews WHERE movie_id IN (SELECT id FROM movies WHERE genre = 'Action')")
	if len(got) != 1 || got[0][0] != "solid film" {
		t.Errorf("IN subquery = %v", got)
	}
	// Correlated EXISTS.
	got = queryStrings(t, db, `SELECT title FROM movies m WHERE EXISTS (
		SELECT 1 FROM reviews r WHERE r.movie_id = m.id AND r.stars = 5) ORDER BY title`)
	want := [][]string{{"Heat"}, {"The Notebook"}, {"Titanic"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("correlated exists = %v", got)
	}
	// Derived table.
	got = queryStrings(t, db, `SELECT g, n FROM (SELECT genre AS g, COUNT(*) AS n FROM movies GROUP BY genre) sub WHERE n > 1`)
	if len(got) != 1 || got[0][0] != "Romance" {
		t.Errorf("derived table = %v", got)
	}
}

func TestLikeOperator(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT title FROM movies WHERE title LIKE '%ta%' ORDER BY title")
	if len(got) != 1 || got[0][0] != "Titanic" {
		t.Errorf("LIKE = %v", got)
	}
	got = queryStrings(t, db, "SELECT title FROM movies WHERE title LIKE '_eat'")
	if len(got) != 1 || got[0][0] != "Heat" {
		t.Errorf("LIKE underscore = %v", got)
	}
	got = queryStrings(t, db, "SELECT COUNT(*) FROM movies WHERE title NOT LIKE '%a%'")
	if got[0][0] != "2" { // The Notebook, Quiet Nights
		t.Errorf("NOT LIKE = %v", got)
	}
}

func TestInListAndBetween(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT COUNT(*) FROM movies WHERE year BETWEEN 1995 AND 2005")
	if got[0][0] != "3" {
		t.Errorf("BETWEEN = %v", got)
	}
	got = queryStrings(t, db, "SELECT COUNT(*) FROM movies WHERE genre IN ('Romance', 'Crime')")
	if got[0][0] != "4" {
		t.Errorf("IN list = %v", got)
	}
}

func TestParamsBinding(t *testing.T) {
	db := testDB(t)
	got := queryStrings(t, db, "SELECT title FROM movies WHERE genre = ? AND year > ?", "Romance", 2000)
	want := [][]string{{"The Notebook"}, {"Quiet Nights"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("params = %v", got)
	}
	if _, err := db.Query("SELECT * FROM movies WHERE id = ?"); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestInsertSelect(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE TABLE romance (id INTEGER, title TEXT)")
	n, err := db.Exec("INSERT INTO romance SELECT id, title FROM movies WHERE genre = 'Romance'")
	if err != nil || n != 3 {
		t.Fatalf("insert..select n=%d err=%v", n, err)
	}
	got := queryStrings(t, db, "SELECT COUNT(*) FROM romance")
	if got[0][0] != "3" {
		t.Errorf("romance count = %v", got)
	}
}

func TestInsertColumnSubset(t *testing.T) {
	db := testDB(t)
	db.MustExec("INSERT INTO movies (id, title) VALUES (10, 'Sparse')")
	got := queryStrings(t, db, "SELECT genre, revenue FROM movies WHERE id = 10")
	if got[0][0] != "NULL" || got[0][1] != "NULL" {
		t.Errorf("unlisted columns should be NULL: %v", got)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := testDB(t)
	n, err := db.Exec("UPDATE movies SET revenue = 100.0 WHERE revenue IS NULL")
	if err != nil || n != 1 {
		t.Fatalf("update n=%d err=%v", n, err)
	}
	got := queryStrings(t, db, "SELECT revenue FROM movies WHERE id = 5")
	if got[0][0] != "100.0" {
		t.Errorf("update result = %v", got)
	}
	n, err = db.Exec("DELETE FROM movies WHERE genre = 'Romance'")
	if err != nil || n != 3 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	got = queryStrings(t, db, "SELECT COUNT(*) FROM movies")
	if got[0][0] != "2" {
		t.Errorf("after delete = %v", got)
	}
	// Index must be consistent after delete: id lookup still works.
	got = queryStrings(t, db, "SELECT title FROM movies WHERE id = 2")
	if len(got) != 1 || got[0][0] != "Shang-Chi" {
		t.Errorf("index after delete = %v", got)
	}
}

func TestConstraints(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec("INSERT INTO movies VALUES (1, 'Dup', 'X', 0, 2000)"); err == nil {
		t.Error("duplicate primary key should fail")
	}
	if _, err := db.Exec("INSERT INTO movies VALUES (20, NULL, 'X', 0, 2000)"); err == nil {
		t.Error("NOT NULL violation should fail")
	}
}

func TestTypeAffinity(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (i INTEGER, r REAL, s TEXT)")
	db.MustExec("INSERT INTO t VALUES ('42', '3.5', 7)")
	res, err := db.Query("SELECT i, r, s FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Kind() != KindInt {
		t.Errorf("i kind = %v, want INTEGER", res.Rows[0][0].Kind())
	}
	if res.Rows[0][1].Kind() != KindFloat {
		t.Errorf("r kind = %v, want REAL", res.Rows[0][1].Kind())
	}
}

func TestIntegerDivision(t *testing.T) {
	db := NewDatabase()
	got := queryStrings(t, db, "SELECT 7 / 2, 7.0 / 2, 7 % 3, 1 / 0")
	want := []string{"3", "3.5", "1", "NULL"}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("division = %v, want %v", got[0], want)
	}
}

func TestBuiltinFunctions(t *testing.T) {
	db := NewDatabase()
	got := queryStrings(t, db, `SELECT UPPER('ab'), LOWER('AB'), LENGTH('abcd'),
		SUBSTR('hello', 2, 3), TRIM('  x  '), REPLACE('aaa', 'a', 'b'),
		ABS(-4), ROUND(3.567, 2), COALESCE(NULL, NULL, 5), IFNULL(NULL, 'd'),
		NULLIF(1, 1), INSTR('hello', 'll')`)
	want := []string{"AB", "ab", "4", "ell", "x", "bbb", "4", "3.57", "5", "d", "NULL", "3"}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("builtins = %v, want %v", got[0], want)
	}
}

func TestStrftime(t *testing.T) {
	db := NewDatabase()
	got := queryStrings(t, db, "SELECT STRFTIME('%Y', '2017-10-01'), STRFTIME('%m-%d', '2017-10-01 14:00:00')")
	if got[0][0] != "2017" || got[0][1] != "10-01" {
		t.Errorf("strftime = %v", got)
	}
}

func TestCustomUDF(t *testing.T) {
	db := testDB(t)
	db.SetFuncs(funcMap{"SHOUT": {MaxArgs: -1, Scalar: func(args []Value) (Value, error) {
		if len(args) != 1 {
			return Null, fmt.Errorf("SHOUT wants 1 arg")
		}
		return Text(strings.ToUpper(args[0].AsText()) + "!"), nil
	}}})
	got := queryStrings(t, db, "SELECT SHOUT(title) FROM movies WHERE id = 1")
	if got[0][0] != "TITANIC!" {
		t.Errorf("udf = %v", got)
	}
	// UDFs usable in WHERE (the LM-UDF-in-SQL design point).
	got = queryStrings(t, db, "SELECT COUNT(*) FROM movies WHERE SHOUT(genre) = 'ROMANCE!'")
	if got[0][0] != "3" {
		t.Errorf("udf in where = %v", got)
	}
}

func TestSchemaSQL(t *testing.T) {
	db := testDB(t)
	s := db.SchemaSQL()
	if !strings.Contains(s, "CREATE TABLE movies") || !strings.Contains(s, "revenue REAL") {
		t.Errorf("schema SQL missing pieces:\n%s", s)
	}
}

func TestQueryErrors(t *testing.T) {
	db := testDB(t)
	for _, q := range []string{
		"SELECT nosuch FROM movies",
		"SELECT * FROM nosuch",
		"SELECT NOSUCHFN(1)",
		"SELECT id FROM movies WHERE SUM(id) > 1", // aggregate in WHERE
		"INSERT INTO movies VALUES (1)",
	} {
		if _, err := db.Query(q); err == nil {
			if _, err2 := db.Exec(q); err2 == nil {
				t.Errorf("%q: expected error", q)
			}
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := testDB(t)
	_, err := db.Query("SELECT id FROM movies m JOIN reviews r ON m.id = r.movie_id")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column should error, got %v", err)
	}
}

// TestColumnNamesCompareStructurally: a reference meets a schema by comparing
// qualifier and name apart (findCol), never through a "qual.name" key — so a
// dot inside a quoted name is not a qualifier: with x(y) and t("x.y") in one
// FROM, x.y and "x.y" each name their one column (the parent called both
// ambiguous). What must not move is pinned beside it: a bare name two inputs
// have is ambiguous, a name repeated inside one input is still pushed down to
// that input (whose filter reports it), and names are equal exactly when
// strings.ToLower makes them so — S is s, the long s is not.
func TestColumnNamesCompareStructurally(t *testing.T) {
	db := NewDatabase()
	db.MustExec(`CREATE TABLE x (y INTEGER)`)
	db.MustExec(`CREATE TABLE t ("x.y" INTEGER, z INTEGER)`)
	db.MustExec(`CREATE TABLE u (y INTEGER)`)
	db.MustExec(`CREATE TABLE w (s INTEGER, ſ INTEGER)`)
	db.MustExec(`INSERT INTO x VALUES (1)`)
	db.MustExec(`INSERT INTO t VALUES (2, 3)`)
	db.MustExec(`INSERT INTO u VALUES (4)`)
	db.MustExec(`INSERT INTO w VALUES (5, 6)`)
	for sql, want := range map[string]string{
		`SELECT x.y FROM x CROSS JOIN t`:                             "[[1]]",
		`SELECT "x.y" FROM x CROSS JOIN t`:                           "[[2]]",
		`SELECT X.Y, t."x.y", "X.Y" FROM x CROSS JOIN t`:             "[[1 2 2]]",
		`SELECT z FROM x JOIN t ON x.y + 1 = "x.y" WHERE "x.y" = 2`:  "[[3]]",
		`SELECT z FROM x CROSS JOIN t WHERE x.y = 1 AND t."x.y" = 2`: "[[3]]",
		`SELECT S, s, ſ, w.ſ FROM w WHERE ſ = 6 AND S = 5`:           "[[5 5 6 6]]",
	} {
		if got := fmt.Sprint(queryStrings(t, db, sql)); got != want {
			t.Errorf("%s = %s, want %s", sql, got, want)
		}
	}
	for _, sql := range []string{
		`SELECT y FROM x CROSS JOIN u`,
		`SELECT 1 FROM x CROSS JOIN u WHERE y = 1`,
		`SELECT 1 FROM (SELECT y, y FROM x) d CROSS JOIN t WHERE d.y = 1`,
		`SELECT 1 FROM (SELECT y, y FROM x) d CROSS JOIN t WHERE y = 1`,
	} {
		if _, err := db.Query(sql); CodeOf(err) != ErrAmbiguous {
			t.Errorf("%s: %v, want an ambiguous-column error", sql, err)
		}
	}

	stmt, err := Parse(`SELECT 1 FROM d CROSS JOIN t WHERE d.y = 1 AND y = 2 AND "x.y" = 3 AND Z = 4 AND k = 5 AND t.k = 6 AND ſ = 7 AND q.y = 8`)
	if err != nil {
		t.Fatal(err)
	}
	pushed, kept := pushdownConjuncts(stmt.(*SelectStmt), []operator{
		&valuesOp{cols: []colInfo{{"d", "y"}, {"d", "y"}, {"d", "k"}, {"d", "s"}}},
		&valuesOp{cols: []colInfo{{"t", "x.y"}, {"t", "z"}, {"t", "k"}}},
	}, nil)
	render := func(es []Expr) string {
		var parts []string
		for _, e := range es {
			parts = append(parts, e.String())
		}
		return strings.Join(parts, " & ")
	}
	if got, want := render(pushed[0]), `(d.y = 1) & (y = 2)`; got != want {
		t.Errorf("pushed to d: %s, want %s", got, want)
	}
	if got, want := render(pushed[1]), `("x.y" = 3) & (Z = 4) & (t.k = 6)`; got != want {
		t.Errorf("pushed to t: %s, want %s", got, want)
	}
	if got, want := render(kept), `(k = 5) & (ſ = 7) & (q.y = 8)`; got != want {
		t.Errorf("kept above the join: %s, want %s", got, want)
	}
}

// TestIndexScanEquivalence is the core planner property: for random
// equality predicates, an indexed scan returns exactly what a full scan
// returns.
func TestIndexScanEquivalence(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (k INTEGER, v TEXT)")
	r := rand.New(rand.NewSource(5))
	var rows [][]any
	for i := 0; i < 500; i++ {
		rows = append(rows, []any{r.Intn(50), fmt.Sprintf("v%d", i)})
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	// Query before index exists.
	for k := 0; k < 50; k++ {
		pre := queryStrings(t, db, "SELECT v FROM t WHERE k = ? ORDER BY v", k)
		db.MustExec("CREATE INDEX idx_k ON t (k)")
		post := queryStrings(t, db, "SELECT v FROM t WHERE k = ? ORDER BY v", k)
		if !reflect.DeepEqual(pre, post) {
			t.Fatalf("index scan differs from full scan for k=%d:\npre:  %v\npost: %v", k, pre, post)
		}
	}
}

// TestHashJoinEquivalence checks the hash join against the nested-loop
// result by comparing an equi-join with its cross-join + filter rewrite.
func TestHashJoinEquivalence(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE a (x INTEGER, p TEXT)")
	db.MustExec("CREATE TABLE b (y INTEGER, q TEXT)")
	r := rand.New(rand.NewSource(11))
	var arows, brows [][]any
	for i := 0; i < 200; i++ {
		arows = append(arows, []any{r.Intn(30), fmt.Sprintf("a%d", i)})
		brows = append(brows, []any{r.Intn(30), fmt.Sprintf("b%d", i)})
	}
	if err := db.InsertRows("a", arows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("b", brows); err != nil {
		t.Fatal(err)
	}
	hj := queryStrings(t, db, "SELECT p, q FROM a JOIN b ON a.x = b.y ORDER BY p, q")
	nl := queryStrings(t, db, "SELECT p, q FROM a CROSS JOIN b WHERE a.x = b.y ORDER BY p, q")
	if !reflect.DeepEqual(hj, nl) {
		t.Fatalf("hash join (%d rows) != cross+filter (%d rows)", len(hj), len(nl))
	}
}

func TestResultHelpers(t *testing.T) {
	db := testDB(t)
	res, err := db.Query("SELECT id, title FROM movies ORDER BY id LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.ColumnIndex("TITLE") != 1 || res.ColumnIndex("nope") != -1 {
		t.Error("ColumnIndex")
	}
	if res.Value(0, "title").AsText() != "Titanic" {
		t.Error("Value accessor")
	}
	if !res.Value(99, "title").IsNull() {
		t.Error("out-of-range Value should be NULL")
	}
	s := res.String()
	if !strings.Contains(s, "Titanic") || !strings.Contains(s, "id") {
		t.Errorf("table rendering:\n%s", s)
	}
}

func TestConcurrentReads(t *testing.T) {
	db := testDB(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				if _, err := db.Query("SELECT COUNT(*) FROM movies JOIN reviews ON movies.id = reviews.movie_id"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSelectNoFrom(t *testing.T) {
	db := NewDatabase()
	got := queryStrings(t, db, "SELECT 1 + 1, 'x'")
	if got[0][0] != "2" || got[0][1] != "x" {
		t.Errorf("SELECT without FROM = %v", got)
	}
}

func TestCastExpr(t *testing.T) {
	db := NewDatabase()
	got := queryStrings(t, db, "SELECT CAST('12' AS INTEGER), CAST(3.9 AS INTEGER), CAST(5 AS TEXT)")
	want := []string{"12", "3", "5"}
	if !reflect.DeepEqual(got[0], want) {
		t.Errorf("cast = %v", got)
	}
}

// TestRowArenaStartsSmallAndDoubles: a one-row result pays for a handful
// of rows, a long one works up to full blocks, and every row handed out is
// capacity-clamped so an append cannot reach its neighbour.
func TestRowArenaStartsSmallAndDoubles(t *testing.T) {
	var a rowArena
	first := a.alloc(1)
	if got := 1 + len(a.buf); got > 16 {
		t.Errorf("first block holds %d values for a one-column row, want a handful", got)
	}
	second := a.alloc(1)
	second[0] = Int(2)
	if first = append(first, Int(9)); second[0].AsInt() != 2 {
		t.Error("append on a handed-out row clobbered its neighbour")
	}
	largest := 0
	for i := 0; i < 5000; i++ {
		if r := a.alloc(3); len(r) != 3 || cap(r) != 3 {
			t.Fatalf("alloc(3) = len %d cap %d", len(r), cap(r))
		}
		largest = max(largest, a.size)
	}
	if largest != rowArenaBlock {
		t.Errorf("blocks grew to %d values, want the %d cap", largest, rowArenaBlock)
	}
	if r := a.alloc(rowArenaBlock + 5); len(r) != rowArenaBlock+5 {
		t.Errorf("a row wider than a block: len %d", len(r))
	}
}
