package sqldb

import (
	"math"
	"strings"
	"unicode/utf8"
)

// colInfo names one column of an intermediate result: an optional table
// qualifier plus the column (or alias) name.
type colInfo struct {
	qual string
	name string
}

func (c colInfo) String() string {
	if c.qual != "" {
		return c.qual + "." + c.name
	}
	return c.name
}

// evalEnv carries everything expression evaluation needs: the current row
// and its schema, bound parameters, the database (for subqueries), the
// enclosing row environment (for correlated subqueries), and — under
// aggregation — the per-group context compiled expressions read from.
type evalEnv struct {
	cols   []colInfo
	row    Row
	params []Value
	db     *Database
	outer  *evalEnv
	// agg is set on environments evaluating the post-aggregation phase
	// (projection, HAVING, ORDER BY of an aggregate query); see compile.go.
	agg *aggCtx
	// qc is the executing statement's queryCtx (cancellation + counters),
	// carried here so compiled subquery closures can hand it to their
	// subplans. nil for internal evaluations.
	qc *queryCtx
	// sites, when an operator that gathers batch-form calls ahead is
	// compiling its expressions, collects the calls compiled against this
	// environment (compileFunc). Nested SELECTs get environments of their own.
	sites *[]*batchSite
}

// newEvalEnv builds an environment over the given schema. A nil qc
// inherits the outer environment's, so correlated subquery scopes share
// their statement's context.
func newEvalEnv(cols []colInfo, db *Database, params []Value, outer *evalEnv, qc *queryCtx) *evalEnv {
	if qc == nil && outer != nil {
		qc = outer.qc
	}
	return &evalEnv{cols: cols, db: db, params: params, outer: outer, qc: qc}
}

// nameEq is the engine's identifier equivalence: a and b are the same name
// when strings.ToLower maps them to the same string. ASCII bytes fold in
// place and the first non-ASCII byte hands the rest to ToLower itself —
// not strings.EqualFold, whose simple folding also makes ſ equal to s.
func nameEq(a, b string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		ca, cb := a[i], b[i]
		if ca|cb >= utf8.RuneSelf {
			return strings.ToLower(a[i:]) == strings.ToLower(b[i:])
		}
		if ca != cb {
			if 'A' <= ca && ca <= 'Z' {
				ca += 'a' - 'A'
			}
			if 'A' <= cb && cb <= 'Z' {
				cb += 'a' - 'A'
			}
			if ca != cb {
				return false
			}
		}
	}
	return len(a) == len(b)
}

// findCol is how every column reference meets a schema: it reports how many
// of cols the reference names and the ordinal of the first. A bare reference
// (qual "") goes by name alone; a qualified one also needs the column's own
// qualifier to match — compared apart, so a dot inside a quoted name is never
// read as a qualifier. Nothing is built: schemas run to a few dozen columns
// and references are resolved once, at plan time.
func findCol(cols []colInfo, qual, name string) (ord, n int) {
	ord = -1
	for i, c := range cols {
		if !nameEq(c.name, name) || qual != "" && (c.qual == "" || !nameEq(c.qual, qual)) {
			continue
		}
		if n == 0 {
			ord = i
		}
		n++
	}
	return ord, n
}

// resolve finds the ordinal for a column reference, walking outer scopes for
// correlated subqueries. The second result reports which env owned it.
func (env *evalEnv) resolve(ref *ColumnRef) (int, *evalEnv, error) {
	for e := env; e != nil; e = e.outer {
		switch i, n := findCol(e.cols, ref.Table, ref.Column); {
		case n > 1:
			return 0, nil, errf(ErrAmbiguous, "sql: ambiguous column name: %s", ref)
		case n == 1:
			return i, e, nil
		}
	}
	return 0, nil, errf(ErrNoColumn, "sql: no such column: %s", ref)
}

// evalArith implements SQLite-style arithmetic: integer op integer stays
// integral (with truncating division); any REAL operand promotes to REAL;
// division or modulo by zero yields NULL.
func evalArith(op string, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null, nil
	}
	bothInt := l.Kind() == KindInt && r.Kind() == KindInt
	if bothInt {
		a, b := l.AsInt(), r.AsInt()
		switch op {
		case "+":
			return Int(a + b), nil
		case "-":
			return Int(a - b), nil
		case "*":
			return Int(a * b), nil
		case "/":
			if b == 0 {
				return Null, nil
			}
			return Int(a / b), nil
		case "%":
			if b == 0 {
				return Null, nil
			}
			return Int(a % b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case "+":
		return Float(a + b), nil
	case "-":
		return Float(a - b), nil
	case "*":
		return Float(a * b), nil
	case "/":
		if b == 0 {
			return Null, nil
		}
		return Float(a / b), nil
	case "%":
		if b == 0 {
			return Null, nil
		}
		return Float(math.Mod(a, b)), nil
	}
	return Null, errf(ErrInternal, "sql: unknown arithmetic operator %q", op)
}

// castValue implements CAST with SQLite-like conversions.
func castValue(v Value, typ string) Value {
	if v.IsNull() {
		return Null
	}
	switch affinityKind(typ) {
	case KindInt:
		return Int(v.AsInt())
	case KindFloat:
		return Float(v.AsFloat())
	case KindBool:
		return Bool(v.AsBool())
	default:
		return Text(v.AsText())
	}
}

// likeMatch implements SQL LIKE: '%' matches any run, '_' any single
// character, comparison is ASCII case-insensitive (SQLite default).
func likeMatch(pattern, s string) bool {
	return likeRec(strings.ToLower(pattern), strings.ToLower(s))
}

func likeRec(p, s string) bool {
	for {
		if p == "" {
			return s == ""
		}
		switch p[0] {
		case '%':
			// Collapse consecutive % and try all split points.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if p == "" {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(p, s[i:]) {
					return true
				}
			}
			return false
		case '_':
			if s == "" {
				return false
			}
			p, s = p[1:], s[1:]
		default:
			if s == "" || p[0] != s[0] {
				return false
			}
			p, s = p[1:], s[1:]
		}
	}
}

// exprContainsAggregate reports whether e contains a call to an aggregate
// function (COUNT, SUM, AVG, MIN, MAX, GROUP_CONCAT, TOTAL) at any depth,
// without descending into subqueries (their aggregates are their own).
func exprContainsAggregate(e Expr) bool {
	found := false
	walkExpr(e, func(x Expr) bool {
		if fc, ok := x.(*FuncCall); ok && isAggregateName(fc.Name) {
			found = true
			return false
		}
		switch x.(type) {
		case *Subquery, *ExistsExpr:
			return false
		}
		return !found
	})
	return found
}

// collectAggregates appends every aggregate FuncCall in e (excluding
// subqueries) to out, returning the extended slice.
func collectAggregates(e Expr, out []*FuncCall) []*FuncCall {
	walkExpr(e, func(x Expr) bool {
		if fc, ok := x.(*FuncCall); ok && isAggregateName(fc.Name) {
			out = append(out, fc)
			return false // aggregate args cannot nest aggregates
		}
		switch x.(type) {
		case *Subquery, *ExistsExpr:
			return false
		}
		return true
	})
	return out
}

// walkExpr visits e and its children in depth-first order. The visitor
// returns false to prune the subtree.
func walkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch t := e.(type) {
	case *BinaryOp:
		walkExpr(t.Left, visit)
		walkExpr(t.Right, visit)
	case *UnaryOp:
		walkExpr(t.Expr, visit)
	case *IsNull:
		walkExpr(t.Expr, visit)
	case *InList:
		walkExpr(t.Expr, visit)
		for _, x := range t.List {
			walkExpr(x, visit)
		}
	case *Between:
		walkExpr(t.Expr, visit)
		walkExpr(t.Lo, visit)
		walkExpr(t.Hi, visit)
	case *FuncCall:
		for _, a := range t.Args {
			walkExpr(a, visit)
		}
	case *CaseExpr:
		walkExpr(t.Operand, visit)
		for _, w := range t.Whens {
			walkExpr(w.When, visit)
			walkExpr(w.Then, visit)
		}
		walkExpr(t.Else, visit)
	case *CastExpr:
		walkExpr(t.Expr, visit)
	}
}
