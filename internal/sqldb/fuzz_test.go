package sqldb

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// Native Go fuzz harnesses for the parser and the executor. Seed corpora
// live under testdata/fuzz/<target>/ (the go tool's native layout) plus
// the f.Add calls below; CI runs each target for a short -fuzztime so
// regressions in the panic-freedom and typed-error contracts surface on
// every push, and longer local runs (`go test -fuzz FuzzParse
// ./internal/sqldb`) can dig deeper.

// fuzzSeedSQL is the shared seed corpus: statement shapes covering every
// production the parser knows, so mutation starts from interesting
// inputs on both targets.
var fuzzSeedSQL = []string{
	"SELECT 1",
	"SELECT * FROM t",
	"SELECT a, b FROM t WHERE a = 1 AND b > 2 ORDER BY a DESC LIMIT 3 OFFSET 1",
	"SELECT DISTINCT a FROM t WHERE b BETWEEN 1 AND 9 OR c LIKE '%x%'",
	"SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.id = t2.t1_id LEFT JOIN t3 ON t3.k = t1.id",
	"SELECT a, COUNT(*), SUM(b) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY 2",
	"SELECT (SELECT MAX(y) FROM i WHERE i.y <= o.x) FROM o",
	"SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.oid = o.id)",
	"SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN (SELECT c FROM u)",
	"SELECT CASE WHEN a < 3 THEN 'lo' ELSE 'hi' END, COALESCE(b, -1) FROM t",
	"SELECT a FROM (SELECT a FROM t WHERE a > 0) d WHERE a < 10",
	"SELECT -a, NOT b, a % 3, 1.5e2, 'it''s', x IS NOT NULL FROM t",
	"INSERT INTO t (a, b) VALUES (1, NULL), (?, 'x')",
	"INSERT INTO t SELECT a, b FROM u",
	"UPDATE t SET a = a + 1, b = NULL WHERE c = ?",
	"DELETE FROM t WHERE a BETWEEN 1 AND 2",
	"CREATE TABLE t (id INTEGER PRIMARY KEY, a TEXT NOT NULL, b REAL UNIQUE)",
	"CREATE UNIQUE INDEX idx ON t (a)",
	"DROP TABLE IF EXISTS t",
	"SELECT \"quoted col\" FROM \"quoted table\"",
	// Identifiers Unicode upper-casing would turn into SET and IN.
	"CREATE TABLE t (ſet INTEGER, ın INTEGER)",
	"SELECT ſet, ın FROM t WHERE ın IN (1, 2)",
}

// FuzzParse: parsing arbitrary input must never panic, must only report
// typed errors, must fail with a lex error exactly when the reference lex
// of the whole text does (the same one), and on success the statement's
// String() rendering must re-parse to a fixpoint (parse -> String -> parse
// -> String is stable).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeedSQL {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 1<<12 {
			t.Skip()
		}
		_, want := lex(sql)
		_, err := ParseAll(sql)
		var le *lexError
		if errors.As(err, &le) != (want != nil) || want != nil && le.Error() != want.Error() {
			t.Fatalf("ParseAll(%q) = %v, the reference lex %v", sql, err, want)
		}
		stmt, err := Parse(sql)
		if err != nil {
			if CodeOf(err) == ErrUnknown {
				t.Fatalf("Parse(%q) returned an untyped error: %v", sql, err)
			}
			return
		}
		s1 := stmt.String()
		stmt2, err := Parse(s1)
		if err != nil {
			t.Fatalf("re-parse of String() output %q (from %q) failed: %v", s1, sql, err)
		}
		if s2 := stmt2.String(); s2 != s1 {
			t.Fatalf("String() not a fixpoint:\n first %q\nsecond %q\n(input %q)", s1, s2, sql)
		}
	})
}

// fuzzQueryDB builds the seeded read-only database FuzzQuery executes
// against, once per process (SELECTs cannot mutate it).
var fuzzQueryDB = sync.OnceValue(func() *Database {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL, c TEXT)")
	db.MustExec("CREATE INDEX idx_t_a ON t (a)")
	db.MustExec("CREATE TABLE u (id INTEGER, c TEXT)")
	words := []string{"ant", "bee", "cat", "", "it's"}
	for i := 0; i < 25; i++ {
		var a any = i % 7
		if i%9 == 0 {
			a = nil
		}
		db.MustExec("INSERT INTO t VALUES (?, ?, ?, ?)", i, a, float64(i)/3, words[i%len(words)])
		if i%2 == 0 {
			db.MustExec("INSERT INTO u VALUES (?, ?)", i, words[(i+1)%len(words)])
		}
	}
	return db
})

// FuzzQuery: executing an arbitrary SELECT against a seeded database must
// never panic, and any failure must be a typed *sqldb.Error. Non-SELECT
// statements are skipped so the shared database stays immutable.
func FuzzQuery(f *testing.F) {
	for _, s := range fuzzSeedSQL {
		if strings.HasPrefix(s, "SELECT") {
			f.Add(s)
		}
	}
	f.Add("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY 2 DESC")
	f.Add("SELECT t.id, u.c FROM t JOIN u ON t.id = u.id WHERE t.a = NULL OR u.c LIKE '%t%'")
	f.Add("SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id) ORDER BY a LIMIT 4")
	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 1<<12 {
			t.Skip()
		}
		stmt, err := Parse(sql)
		if err != nil {
			t.Skip() // parser robustness is FuzzParse's contract
		}
		if _, ok := stmt.(*SelectStmt); !ok {
			t.Skip()
		}
		res, err := fuzzQueryDB().Query(sql)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("Query(%q) returned an untyped error %T: %v", sql, err, err)
			}
			return
		}
		// Minimal result sanity: every row is as wide as the header.
		for _, r := range res.Rows {
			if len(r) != len(res.Columns) {
				t.Fatalf("Query(%q): row width %d != %d columns", sql, len(r), len(res.Columns))
			}
		}
	})
}
