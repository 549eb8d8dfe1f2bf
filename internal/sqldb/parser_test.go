package sqldb

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

// lex is the reference tokeniser: the whole text scanned up front. Its
// error is the first lex error in the text, the one ParseAll must report
// (TestLexErrorPrecedence, FuzzParse).
func lex(src string) ([]token, error) {
	var toks []token
	for i := 0; ; {
		t, next, err := scan(src, i)
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.typ == tokEOF {
			return toks, nil
		}
		i = next
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := lex(`SELECT a.b, 'it''s', 3.5, x FROM t -- comment
WHERE x >= 10`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenType
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.typ)
		texts = append(texts, tk.text)
	}
	want := []string{"SELECT", "a", ".", "b", ",", "it's", ",", "3.5", ",", "x", "FROM", "t", "WHERE", "x", ">=", "10", ""}
	if len(texts) != len(want) {
		t.Fatalf("token texts = %q, want %q", texts, want)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != tokKeyword || kinds[5] != tokString || kinds[7] != tokNumber {
		t.Errorf("unexpected token kinds: %v", kinds)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "SELECT @", "/* unclosed"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex(%q): expected error", src)
		}
	}
}

// TestLexErrorPrecedence: the parser scans as it reads, yet a lex error
// anywhere in the text still beats a parse error before it: ParseAll
// reports exactly the reference lex's error, message and offset.
func TestLexErrorPrecedence(t *testing.T) {
	for _, src := range []string{
		"SELECT FROM 'abc",
		"SELECT 1 2 /* x",
		"SELECT (1; SELECT [a",
		"SELECT 1 'abc",            // parses up to the lex error
		"; \"",                     // no statement before it
		"SELECT t.@",               // inside the tbl.* lookahead
		"SELECT t. FROM u WHERE `", // after it
		"FOO BAR 1abc",
		"SELECT a FROM t WHERE b = @",
	} {
		_, want := lex(src)
		if want == nil {
			t.Fatalf("%q: the reference lexes it", src)
		}
		_, err := ParseAll(src)
		var le *lexError
		if !errors.As(err, &le) || le.Error() != want.Error() || CodeOf(err) != ErrParse {
			t.Errorf("ParseAll(%q) = %v, want %v", src, err, want)
		}
	}
}

// TestNumberTrailingJunkRejected: a name glued to a numeric literal is a
// lex error at the literal, as in PostgreSQL, not an alias: 0x10 read as
// 0 AS x10 and shadowed the column x10.
func TestNumberTrailingJunkRejected(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER, x10 INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1, 99)")
	for _, c := range []struct{ sql, err string }{
		{"SELECT 0x10 FROM t", "sql: lex error at offset 7: trailing junk after numeric literal"},
		{"SELECT 1abc", "sql: lex error at offset 7: trailing junk after numeric literal"},
		{"SELECT 2e3e", "sql: lex error at offset 7: trailing junk after numeric literal"},
		{"SELECT id FROM t LIMIT 1OFFSET 0", "sql: lex error at offset 23: trailing junk after numeric literal"},
		{"SELECT 1e", `sql: parse error at line 1 col 8: invalid number "1e"`},
	} {
		_, err := db.Query(c.sql)
		if err == nil || err.Error() != c.err || CodeOf(err) != ErrParse {
			t.Errorf("%s: %v, want %s", c.sql, err, c.err)
		}
	}
	for _, c := range []struct{ sql, col, val string }{
		{"SELECT 1.5", "1.5", "1.5"},
		{"SELECT .5e3", "500.0", "500.0"},
		{"SELECT 1 AS x", "x", "1"},
	} {
		res, err := db.Query(c.sql)
		if err != nil || len(res.Columns) != 1 || res.Columns[0] != c.col || res.Rows[0][0].AsText() != c.val {
			t.Errorf("%s: %v %v, want %s = %s", c.sql, res, err, c.col, c.val)
		}
	}
}

func TestLexQuotedIdentifiers(t *testing.T) {
	toks, err := lex(`SELECT "weird col", [bracketed], ` + "`tick`" + ` FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].typ != tokIdent || toks[1].text != "weird col" {
		t.Errorf("double-quoted ident: %+v", toks[1])
	}
	if toks[3].typ != tokIdent || toks[3].text != "bracketed" {
		t.Errorf("bracket ident: %+v", toks[3])
	}
	if toks[5].typ != tokIdent || toks[5].text != "tick" {
		t.Errorf("backtick ident: %+v", toks[5])
	}
}

// TestKeywordsAreASCII: a keyword is an ASCII word in any case, and only
// that. The long s and the dotless i upper-case to S and I under Unicode
// rules, so a lexer that classifies strings.ToUpper(word) reads the
// identifiers ſet and ın as SET and IN ("expected identifier, found SET").
func TestKeywordsAreASCII(t *testing.T) {
	for _, sql := range []string{
		"CREATE TABLE t (ſet INTEGER, ın INTEGER)",
		"SELECT ſet, ın FROM t WHERE ın IN (1, 2)",
		"UPDATE t SET ſet = 1 WHERE ın = 2",
	} {
		stmt, err := Parse(sql)
		if err != nil {
			t.Errorf("Parse(%q): %v", sql, err)
			continue
		}
		if got := stmt.String(); !strings.Contains(got, "ſet") || strings.ContainsAny(got, "\"`") {
			t.Errorf("%q renders as %q: want the identifiers kept and unquoted", sql, got)
		}
		again, err := Parse(stmt.String())
		if err != nil || again.String() != stmt.String() {
			t.Errorf("%q does not round-trip: %q, %v", sql, stmt, err)
		}
	}
	toks, err := lex("SeLeCt sElEcT_ FrOm ſELECT")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []token{{tokKeyword, "SELECT", 0}, {tokIdent, "sElEcT_", 7}, {tokKeyword, "FROM", 15}, {tokIdent, "ſELECT", 20}} {
		if toks[i] != want {
			t.Errorf("token %d = %+v, want %+v", i, toks[i], want)
		}
	}
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (ſet INTEGER, \"set\" INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1, 2)")
	if got := queryStrings(t, db, "SELECT ſet, \"set\" FROM t"); got[0][0] != "1" || got[0][1] != "2" {
		t.Errorf("ſet and \"set\" read %v, want [1 2]", got)
	}
}

// TestNameFoldASCIIOnly: a function or type name is upper-cased in its ASCII
// letters only, as a keyword is. Under Unicode rules ıN became the keyword
// IN, so SELECT ıN() printed as SELECT IN(), which does not parse; ſum
// became the aggregate SUM and ınteger the type INTEGER. Each now parses,
// prints with its own letters and re-parses to the same statement; ſum names
// no function, and ınteger is not an integer type.
func TestNameFoldASCIIOnly(t *testing.T) {
	for _, c := range []struct{ sql, kept string }{
		{"SELECT ıN()", "ıN()"},
		{"SELECT ſum(1)", "ſUM(1)"},
		{"CREATE TABLE t (a ınteger)", "a ıNTEGER"},
	} {
		stmt, err := Parse(c.sql)
		if err != nil {
			if CodeOf(err) == ErrUnknown {
				t.Errorf("Parse(%q) returned an untyped error: %v", c.sql, err)
			}
			continue
		}
		again, err := Parse(stmt.String())
		if err != nil || again.String() != stmt.String() {
			t.Errorf("%q prints as %q, which does not re-parse to itself: %v", c.sql, stmt, err)
		}
		if !strings.Contains(stmt.String(), c.kept) {
			t.Errorf("%q prints as %q, want the name kept as %q", c.sql, stmt, c.kept)
		}
	}
	db := NewDatabase()
	if _, err := db.Query("SELECT ſum(1)"); CodeOf(err) != ErrNoFunction {
		t.Errorf("SELECT ſum(1): %v, want ErrNoFunction", err)
	}
	db.MustExec("CREATE TABLE t (a ınteger)")
	db.MustExec("INSERT INTO t VALUES ('007')")
	if got := queryStrings(t, db, "SELECT a FROM t"); got[0][0] != "007" {
		t.Errorf("a ınteger column stored '007' as %s, want the text kept", got[0][0])
	}
}

func TestParseSelectShapes(t *testing.T) {
	// Each input must parse; print; and re-parse to the same string.
	inputs := []string{
		"SELECT 1",
		"SELECT * FROM t",
		"SELECT t.* FROM t",
		"SELECT a, b AS c FROM t WHERE a = 1",
		"SELECT DISTINCT a FROM t ORDER BY a DESC LIMIT 5 OFFSET 2",
		"SELECT a FROM t WHERE a IN (1, 2, 3)",
		"SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)",
		"SELECT a FROM t WHERE a BETWEEN 1 AND 10",
		"SELECT a FROM t WHERE name LIKE '%x%'",
		"SELECT a FROM t WHERE a IS NOT NULL AND b IS NULL",
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(DISTINCT a), SUM(b) FROM t GROUP BY c HAVING COUNT(*) > 2",
		"SELECT a FROM t JOIN u ON t.id = u.id LEFT JOIN v ON v.k = u.k",
		"SELECT a FROM (SELECT a FROM t) AS sub",
		"SELECT CASE WHEN a > 0 THEN 'pos' ELSE 'neg' END FROM t",
		"SELECT CASE a WHEN 1 THEN 'one' END FROM t",
		"SELECT CAST(a AS INTEGER) FROM t",
		"SELECT a || b FROM t",
		"SELECT -a, +b FROM t",
		"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
		"SELECT a FROM t WHERE (SELECT MAX(b) FROM u) > 10",
		"SELECT a FROM t CROSS JOIN u",
		"SELECT 2 + 3 * 4",
		"SELECT a FROM t WHERE NOT a = 1 OR b = 2 AND c = 3",
		"SELECT UPPER(name), LENGTH(name) FROM t",
	}
	for _, src := range inputs {
		s1 := mustParse(t, src)
		printed := s1.String()
		s2, err := Parse(printed)
		if err != nil {
			t.Errorf("re-parse of %q (printed %q) failed: %v", src, printed, err)
			continue
		}
		if s2.String() != printed {
			t.Errorf("print not stable for %q:\n first: %s\nsecond: %s", src, printed, s2.String())
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT 1 WHERE a OR b AND c")
	sel := s.(*SelectStmt)
	or, ok := sel.Where.(*BinaryOp)
	if !ok || or.Op != "OR" {
		t.Fatalf("top-level op = %v, want OR", sel.Where)
	}
	and, ok := or.Right.(*BinaryOp)
	if !ok || and.Op != "AND" {
		t.Fatalf("right of OR = %v, want AND", or.Right)
	}

	s = mustParse(t, "SELECT 2 + 3 * 4")
	item := s.(*SelectStmt).Items[0].Expr.(*BinaryOp)
	if item.Op != "+" {
		t.Fatalf("top op = %q, want +", item.Op)
	}
	if mul, ok := item.Right.(*BinaryOp); !ok || mul.Op != "*" {
		t.Fatal("* should bind tighter than +")
	}
}

func TestParseNotVariants(t *testing.T) {
	sel := mustParse(t, "SELECT 1 WHERE a NOT LIKE 'x%'").(*SelectStmt)
	u, ok := sel.Where.(*UnaryOp)
	if !ok || u.Op != "NOT" {
		t.Fatalf("NOT LIKE should desugar to NOT(LIKE): %v", sel.Where)
	}
	sel = mustParse(t, "SELECT 1 WHERE a NOT BETWEEN 1 AND 2").(*SelectStmt)
	if bt, ok := sel.Where.(*Between); !ok || !bt.Not {
		t.Fatalf("NOT BETWEEN: %v", sel.Where)
	}
	sel = mustParse(t, "SELECT 1 WHERE a NOT IN (1)").(*SelectStmt)
	if in, ok := sel.Where.(*InList); !ok || !in.Not {
		t.Fatalf("NOT IN: %v", sel.Where)
	}
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, `CREATE TABLE IF NOT EXISTS schools (
		CDSCode TEXT NOT NULL PRIMARY KEY,
		City TEXT NULL,
		Longitude REAL,
		Enrollment INTEGER,
		PRIMARY KEY (CDSCode)
	)`)
	ct := s.(*CreateTableStmt)
	if !ct.IfNotExists || ct.Name != "schools" || len(ct.Columns) != 4 {
		t.Fatalf("CREATE TABLE parse: %+v", ct)
	}
	if !ct.Columns[0].PrimaryKey || !ct.Columns[0].NotNull {
		t.Error("column constraints lost")
	}
}

func TestParseInsertUpdateDelete(t *testing.T) {
	ins := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").(*InsertStmt)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Fatalf("insert: %+v", ins)
	}
	ins2 := mustParse(t, "INSERT INTO t SELECT a, b FROM u").(*InsertStmt)
	if ins2.Select == nil {
		t.Fatal("INSERT..SELECT lost the select")
	}
	up := mustParse(t, "UPDATE t SET a = a + 1, b = 'z' WHERE id = 3").(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("update: %+v", up)
	}
	del := mustParse(t, "DELETE FROM t WHERE a < 0").(*DeleteStmt)
	if del.Where == nil {
		t.Fatalf("delete: %+v", del)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"FOO BAR",
		"SELECT a FROM t JOIN u", // missing ON
		"CREATE TABLE t ()",
		"INSERT INTO t VALUES",
		"SELECT (SELECT a FROM t", // unbalanced
		"SELECT CASE END",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error, got nil", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("SELECT a FROM t WHERE\n  ,")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error should locate line 2: %v", err)
	}
}

func TestParseParams(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE b = ? AND c = ?").(*SelectStmt)
	var idxs []int
	walkExpr(sel.Where, func(e Expr) bool {
		if p, ok := e.(*Param); ok {
			idxs = append(idxs, p.Index)
		}
		return true
	})
	if len(idxs) != 2 || idxs[0] != 0 || idxs[1] != 1 {
		t.Errorf("param indexes = %v", idxs)
	}
}

func TestParseMultiStatement(t *testing.T) {
	stmts, err := ParseAll("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT * FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

// TestParsePrintFixpoint is a property test: for randomly generated
// expression trees, print → parse → print is a fixpoint.
func TestParsePrintFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		e := randomExpr(r, 3)
		src := "SELECT " + e.String()
		s, err := Parse(src)
		if err != nil {
			t.Fatalf("generated SQL does not parse: %q: %v", src, err)
		}
		printed := s.String()
		s2, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed SQL does not parse: %q: %v", printed, err)
		}
		if s2.String() != printed {
			t.Fatalf("not a fixpoint:\n%s\n%s", printed, s2.String())
		}
	}
}

func randomExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return &Literal{Val: Int(int64(r.Intn(100)))}
		case 1:
			return &Literal{Val: Text("s")}
		case 2:
			return &ColumnRef{Column: "c", index: -1}
		default:
			return &Literal{Val: Null}
		}
	}
	switch r.Intn(7) {
	case 0:
		ops := []string{"+", "-", "*", "/", "=", "<", "AND", "OR", "||", "LIKE"}
		return &BinaryOp{Op: ops[r.Intn(len(ops))], Left: randomExpr(r, depth-1), Right: randomExpr(r, depth-1)}
	case 1:
		return &UnaryOp{Op: "NOT", Expr: randomExpr(r, depth-1)}
	case 2:
		return &IsNull{Expr: randomExpr(r, depth-1), Not: r.Intn(2) == 0}
	case 3:
		return &FuncCall{Name: "COALESCE", Args: []Expr{randomExpr(r, depth-1), randomExpr(r, depth-1)}}
	case 4:
		return &CaseExpr{Whens: []CaseWhen{{When: randomExpr(r, depth-1), Then: randomExpr(r, depth-1)}}, Else: randomExpr(r, depth-1)}
	case 5:
		return &Between{Expr: randomExpr(r, depth-1), Lo: randomExpr(r, depth-1), Hi: randomExpr(r, depth-1)}
	default:
		return &InList{Expr: randomExpr(r, depth-1), List: []Expr{randomExpr(r, depth-1)}}
	}
}
