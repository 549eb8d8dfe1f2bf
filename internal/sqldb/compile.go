package sqldb

import (
	"slices"
	"strings"
)

// This file implements the engine's expression compiler — the only scalar
// evaluator that ships. Every expression a statement evaluates (SELECT's
// filters, projections and keys; UPDATE's SET and WHERE, DELETE's WHERE,
// INSERT's VALUES, LIMIT/OFFSET) is compiled once per execution into a
// closure: column references are resolved to (environment, ordinal) pairs
// once, scalar functions are looked up once, parameters and literals are
// bound to their values, and operator dispatch happens at compile time
// instead of a type switch per row. The tree-walking interpreter it
// replaced lives on in interp_test.go as the reference the property tests
// hold the compiler to.

// compiledExpr evaluates an expression against the environments captured at
// compile time. The owning operator mutates its environment's row between
// calls; the closure reads through the captured pointer.
type compiledExpr func() (Value, error)

// aggCtx carries per-group state for the post-aggregation phase of a
// SELECT: the canonical strings of the GROUP BY expressions, the collected
// aggregate calls, and — swapped in per group — the group's key values and
// aggregate results. Compiled expressions capture the context and read the
// slices by ordinal; there is no per-row string or map lookup.
type aggCtx struct {
	groupStrs []string
	aggs      []*FuncCall
	groupKeys []Value // current group's GROUP BY key values
	aggVals   []Value // current group's aggregate results
}

// groupIndex returns the ordinal of the GROUP BY expression whose canonical
// string equals e's, or -1.
func (a *aggCtx) groupIndex(e Expr) int {
	if len(a.groupStrs) == 0 {
		return -1
	}
	return slices.Index(a.groupStrs, e.String())
}

// compileExpr compiles e against env's scope chain. Resolution errors (no
// such column, ambiguity, unknown functions, aggregate misuse, missing
// parameters) surface here, before any row is read — so they depend on
// the statement, never on the data.
func compileExpr(e Expr, env *evalEnv) (compiledExpr, error) {
	// Under aggregation, grouping expressions resolve to their group key and
	// aggregate calls to their accumulated result.
	if a := env.agg; a != nil {
		if i := a.groupIndex(e); i >= 0 {
			return func() (Value, error) { return a.groupKeys[i], nil }, nil
		}
		if fc, ok := e.(*FuncCall); ok && isAggregateName(fc.Name) {
			// By pointer: collectAggregates gathers the very nodes the
			// projection, HAVING and ORDER BY trees hold.
			if i := slices.Index(a.aggs, fc); i >= 0 {
				return func() (Value, error) { return a.aggVals[i], nil }, nil
			}
			return nil, errf(ErrMisuse, "sql: misuse of aggregate function %s()", fc.Name)
		}
	}
	switch t := e.(type) {
	case *Literal:
		v := t.Val
		return func() (Value, error) { return v, nil }, nil
	case *Param:
		if t.Index >= len(env.params) {
			return nil, errf(ErrParams, "sql: statement expects at least %d parameters, got %d", t.Index+1, len(env.params))
		}
		v := env.params[t.Index]
		return func() (Value, error) { return v, nil }, nil
	case *ColumnRef:
		return compileColumnRef(t, env)
	case *BinaryOp:
		return compileBinary(t, env)
	case *UnaryOp:
		sub, err := compileExpr(t.Expr, env)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case "-":
			return func() (Value, error) {
				v, err := sub()
				return negate(v), err
			}, nil
		case "NOT":
			return func() (Value, error) {
				v, err := sub()
				if err != nil || v.IsNull() {
					return Null, err
				}
				return Bool(!v.AsBool()), nil
			}, nil
		default:
			return nil, errf(ErrMisuse, "sql: unknown unary operator %q", t.Op)
		}
	case *IsNull:
		sub, err := compileExpr(t.Expr, env)
		if err != nil {
			return nil, err
		}
		not := t.Not
		return func() (Value, error) {
			v, err := sub()
			if err != nil {
				return Null, err
			}
			return Bool(v.IsNull() != not), nil
		}, nil
	case *InList:
		return compileIn(t, env)
	case *Between:
		ce, err := compileExpr(t.Expr, env)
		if err != nil {
			return nil, err
		}
		clo, err := compileExpr(t.Lo, env)
		if err != nil {
			return nil, err
		}
		chi, err := compileExpr(t.Hi, env)
		if err != nil {
			return nil, err
		}
		not := t.Not
		return func() (Value, error) {
			v, err := ce()
			if err != nil {
				return Null, err
			}
			lo, err := clo()
			if err != nil {
				return Null, err
			}
			hi, err := chi()
			if err != nil {
				return Null, err
			}
			if v.IsNull() || lo.IsNull() || hi.IsNull() {
				return Null, nil
			}
			in := v.Compare(lo) >= 0 && v.Compare(hi) <= 0
			return Bool(in != not), nil
		}, nil
	case *FuncCall:
		return compileFunc(t, env)
	case *CaseExpr:
		return compileCase(t, env)
	case *CastExpr:
		sub, err := compileExpr(t.Expr, env)
		if err != nil {
			return nil, err
		}
		typ := t.Type
		return func() (Value, error) {
			v, err := sub()
			if err != nil {
				return Null, err
			}
			return castValue(v, typ), nil
		}, nil
	case *Subquery:
		// A scalar subquery keeps only its first row, so the subplan is
		// pulled once and never materialised.
		sub, err := compileSubplan(t.Select, env)
		if err != nil {
			return nil, err
		}
		return func() (Value, error) {
			root, err := sub()
			if err != nil {
				return Null, err
			}
			r, ok, err := root.next()
			if err != nil {
				return Null, err
			}
			if !ok || len(r) == 0 {
				return Null, nil
			}
			return r[0], nil
		}, nil
	case *ExistsExpr:
		// EXISTS terminates on the first row the subplan produces instead
		// of materialising the whole subquery result.
		not := t.Not
		sub, err := compileSubplan(t.Select, env)
		if err != nil {
			return nil, err
		}
		return func() (Value, error) {
			root, err := sub()
			if err != nil {
				return Null, err
			}
			_, ok, err := root.next()
			if err != nil {
				return Null, err
			}
			return Bool(ok != not), nil
		}, nil
	case *Star:
		return nil, errf(ErrMisuse, "sql: '*' is not valid in this context")
	default:
		return nil, errf(ErrMisuse, "sql: cannot evaluate %T", e)
	}
}

// subplanSource yields the operator tree for one evaluation of a nested
// SELECT; successive calls may return the same (reset) tree.
type subplanSource func() (operator, error)

// compileSubplan prepares a nested SELECT for repeated evaluation inside
// a compiled expression — the correlated-subplan cache. When the subplan
// is cacheable it is built exactly once, at compile time (so once per
// statement execution, however many outer rows probe it); each evaluation
// resets and re-pulls the same operator tree, and correlated references
// read the current outer row through the environments captured at
// compile time, so only the outer-row "parameters" change per probe.
// Re-planning per outer row previously dominated correlated EXISTS cost.
//
// Derived tables ((SELECT ...) in FROM) are the one plan element that
// materialises during planning and could capture correlated outer
// values, so their presence forces the per-evaluation rebuild path.
// Base-table joins are safe: their build sides drain table heaps, which
// cannot change mid-statement, and their key/residual closures evaluate
// per probe.
func compileSubplan(sel *SelectStmt, env *evalEnv) (subplanSource, error) {
	qc := env.qc
	var rec *execRecorder
	var sp *subplanRec
	if qc != nil && qc.rec != nil { // under EXPLAIN ANALYZE
		rec, sp = qc.rec, qc.rec.subplanFor(sel)
	}
	build := func() (operator, error) {
		root, _, err := buildSelectPlan(sel, env.db, env.params, env, false, qc)
		if err == nil && sp != nil {
			root = instrument(root, rec)
			sp.replaceRoot(rec, root)
		}
		return root, err
	}
	// count bills one evaluation: served by re-pulling the plan (hit), or
	// by building it.
	count := func(hit bool) {
		if qc != nil && hit {
			qc.SubplanCacheHits++
		} else if qc != nil {
			qc.SubplanCacheMisses++
		}
		if sp != nil && hit {
			sp.probes, sp.hits = sp.probes+1, sp.hits+1
		} else if sp != nil {
			sp.probes, sp.misses = sp.probes+1, sp.misses+1
		}
	}
	if !subplanCacheable(sel) {
		return func() (operator, error) {
			count(false)
			return build()
		}, nil
	}
	root, err := build()
	if err != nil {
		return nil, err
	}
	first := true
	return func() (operator, error) {
		count(!first)
		if first {
			first = false
		} else {
			root.reset()
		}
		return root, nil
	}, nil
}

// subplanCacheable reports whether a subquery's plan survives re-use via
// reset(): true unless its FROM contains a derived table (see
// compileSubplan).
func subplanCacheable(s *SelectStmt) bool {
	if s.From == nil {
		return true
	}
	if s.From.Sub != nil {
		return false
	}
	for _, j := range s.Joins {
		if j.Table.Sub != nil {
			return false
		}
	}
	return true
}

// compileColumnRef binds a column reference to its owning environment and
// ordinal. References stamped with a pre-resolved index by the planner
// (star expansion) skip name resolution entirely when the stamp matches
// the compile-time schema.
func compileColumnRef(t *ColumnRef, env *evalEnv) (compiledExpr, error) {
	if i := t.index; i >= 0 && i < len(env.cols) &&
		strings.EqualFold(env.cols[i].name, t.Column) &&
		(t.Table == "" || strings.EqualFold(env.cols[i].qual, t.Table)) {
		return columnReader(env, i, t), nil
	}
	i, owner, err := env.resolve(t)
	if err != nil {
		return nil, err
	}
	return columnReader(owner, i, t), nil
}

func columnReader(owner *evalEnv, i int, t *ColumnRef) compiledExpr {
	return func() (Value, error) {
		if i >= len(owner.row) {
			return Null, errf(ErrInternal, "sql: internal: column %s out of range", t)
		}
		return owner.row[i], nil
	}
}

func compileBinary(b *BinaryOp, env *evalEnv) (compiledExpr, error) {
	l, err := compileExpr(b.Left, env)
	if err != nil {
		return nil, err
	}
	r, err := compileExpr(b.Right, env)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "AND", "OR":
		// Three-valued: an operand equal to settles (false for AND, true
		// for OR) decides the result whatever the other is, NULL included.
		settles := b.Op == "OR"
		return func() (Value, error) {
			lv, err := l()
			if err != nil {
				return Null, err
			}
			if !lv.IsNull() && lv.AsBool() == settles {
				return Bool(settles), nil
			}
			rv, err := r()
			if err != nil {
				return Null, err
			}
			if !rv.IsNull() && rv.AsBool() == settles {
				return Bool(settles), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			return Bool(!settles), nil
		}, nil
	case "=", "!=", "<", "<=", ">", ">=":
		test := cmpTest(b.Op)
		return func() (Value, error) {
			lv, rv, err := operands(l, r)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return Null, err
			}
			return Bool(test(lv.Compare(rv))), nil
		}, nil
	case "LIKE":
		// A literal pattern (the common shape) is lowered once at plan time.
		if lit, ok := b.Right.(*Literal); ok && lit.Val.Kind() == KindText {
			pattern := strings.ToLower(lit.Val.AsText())
			return func() (Value, error) {
				lv, err := l()
				if err != nil || lv.IsNull() {
					return Null, err
				}
				return Bool(likeRec(pattern, strings.ToLower(lv.AsText()))), nil
			}, nil
		}
		return func() (Value, error) {
			lv, rv, err := operands(l, r)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return Null, err
			}
			return Bool(likeMatch(rv.AsText(), lv.AsText())), nil
		}, nil
	case "||":
		return func() (Value, error) {
			lv, rv, err := operands(l, r)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return Null, err
			}
			return Text(lv.AsText() + rv.AsText()), nil
		}, nil
	case "+", "-", "*", "/", "%":
		op := b.Op
		return func() (Value, error) {
			lv, rv, err := operands(l, r)
			if err != nil {
				return Null, err
			}
			return evalArith(op, lv, rv)
		}, nil
	default:
		return nil, errf(ErrMisuse, "sql: unknown operator %q", b.Op)
	}
}

// operands evaluates both sides of a binary operator, the right one only
// when the left one did not fail.
func operands(l, r compiledExpr) (Value, Value, error) {
	lv, err := l()
	if err != nil {
		return Null, Null, err
	}
	rv, err := r()
	return lv, rv, err
}

func compileIn(in *InList, env *evalEnv) (compiledExpr, error) {
	needle, err := compileExpr(in.Expr, env)
	if err != nil {
		return nil, err
	}
	not := in.Not
	if in.Sub != nil {
		sub, err := compileSubplan(in.Sub, env)
		if err != nil {
			return nil, err
		}
		return func() (Value, error) {
			nv, err := needle()
			if err != nil || nv.IsNull() {
				return Null, err
			}
			root, err := sub()
			if err != nil {
				return Null, err
			}
			// Stream the subplan: a match short-circuits; NULLs only
			// matter when no match is found.
			sawNull := false
			for {
				r, ok, err := root.next()
				if err != nil {
					return Null, err
				}
				if !ok {
					break
				}
				if len(r) == 0 {
					continue
				}
				if r[0].IsNull() {
					sawNull = true
					continue
				}
				if nv.Compare(r[0]) == 0 {
					return Bool(!not), nil
				}
			}
			if sawNull {
				return Null, nil
			}
			return Bool(not), nil
		}, nil
	}
	list := make([]compiledExpr, len(in.List))
	for i, e := range in.List {
		c, err := compileExpr(e, env)
		if err != nil {
			return nil, err
		}
		list[i] = c
	}
	return func() (Value, error) {
		nv, err := needle()
		if err != nil || nv.IsNull() {
			return Null, err
		}
		sawNull := false
		for _, c := range list {
			hv, err := c()
			if err != nil {
				return Null, err
			}
			if hv.IsNull() {
				sawNull = true
				continue
			}
			if nv.Compare(hv) == 0 {
				return Bool(!not), nil
			}
		}
		if sawNull {
			return Null, nil
		}
		return Bool(not), nil
	}, nil
}

func compileFunc(fc *FuncCall, env *evalEnv) (compiledExpr, error) {
	if isAggregateName(fc.Name) {
		return nil, errf(ErrMisuse, "sql: misuse of aggregate function %s()", fc.Name)
	}
	f, ok := env.qc.lookupFunc(fc.Name)
	if !ok {
		return nil, errf(ErrNoFunction, "sql: no such function: %s", fc.Name)
	}
	if n := len(fc.Args); n < f.MinArgs || f.MaxArgs >= 0 && n > f.MaxArgs {
		// Raised where the call is evaluated: a statement that reads no row runs.
		err := errf(ErrMisuse, "sql: wrong number of arguments to function %s()", fc.Name)
		return func() (Value, error) { return Null, err }, nil
	}
	cargs := make([]compiledExpr, len(fc.Args))
	for i, a := range fc.Args {
		c, err := compileExpr(a, env)
		if err != nil {
			return nil, err
		}
		cargs[i] = c
	}
	// Expression trees evaluate strictly sequentially within one execution,
	// so a single argument buffer per call site is safe to reuse.
	args := make([]Value, len(cargs))
	if f.Batch != nil {
		s := &batchSite{name: fc.Name, memo: NewCallMemo(f.Batch), cargs: cargs, args: args, qc: env.qc}
		env.qc.lent.memos = append(env.qc.lent.memos, s.memo)
		if env.sites != nil {
			*env.sites = append(*env.sites, s) // after its arguments' sites: inner calls first
		}
		return s.eval, nil
	}
	fn, strict := f.Scalar, f.Strict
	return func() (Value, error) {
		null := false
		for i, c := range cargs {
			v, err := c()
			if err != nil {
				return Null, err
			}
			args[i], null = v, null || v.IsNull()
		}
		if strict && null {
			return Null, nil
		}
		return fn(args)
	}, nil
}

// batchSite is one call of a batch-form function in a compiled expression.
// Evaluated on its own it asks about one tuple at a time — still each
// distinct tuple once a statement (CallMemo). Under the operator that holds
// a window of rows (filterOp, exec.go) it is gathered ahead: the operator
// files every row's arguments, sends what is new in one call, and leaves
// each row's class in ahead, where eval finds it while *pos names the
// window row being evaluated.
type batchSite struct {
	name  string
	memo  *CallMemo
	cargs []compiledExpr
	args  []Value
	qc    *queryCtx
	ahead []int32 // per window row: the tuple's class, -1 where an argument failed
	pos   *int
}

// gather files the current row's arguments and returns their class.
func (s *batchSite) gather() (int32, error) {
	for i, c := range s.cargs {
		v, err := c()
		if err != nil {
			return -1, err
		}
		s.args[i] = v
	}
	return int32(s.memo.Add(s.args)), nil
}

// eval is the call's compiled form. A failed element surfaces here, on the
// row that asked for it — so in row order, and never for a row a LIMIT
// stopped short of — as an ErrExternal wrapping the function's error.
func (s *batchSite) eval() (Value, error) {
	class := int32(-1)
	if s.pos != nil {
		class = s.ahead[*s.pos]
	}
	if class < 0 { // not gathered, or an argument failed: evaluate here
		var err error
		if class, err = s.gather(); err != nil {
			return Null, err
		}
		s.memo.Flush(s.qc.ctx)
	}
	v, err := s.memo.At(int(class))
	if err != nil {
		return Null, &Error{Code: ErrExternal, Msg: "sql: function " + s.name + "(): " + err.Error(), Cause: err}
	}
	return v, nil
}

func compileCase(c *CaseExpr, env *evalEnv) (compiledExpr, error) {
	type arm struct {
		when compiledExpr
		then compiledExpr
	}
	arms := make([]arm, len(c.Whens))
	for i, w := range c.Whens {
		cw, err := compileExpr(w.When, env)
		if err != nil {
			return nil, err
		}
		ct, err := compileExpr(w.Then, env)
		if err != nil {
			return nil, err
		}
		arms[i] = arm{when: cw, then: ct}
	}
	var celse compiledExpr
	if c.Else != nil {
		var err error
		celse, err = compileExpr(c.Else, env)
		if err != nil {
			return nil, err
		}
	}
	if c.Operand != nil {
		cop, err := compileExpr(c.Operand, env)
		if err != nil {
			return nil, err
		}
		return func() (Value, error) {
			op, err := cop()
			if err != nil {
				return Null, err
			}
			for _, a := range arms {
				wv, err := a.when()
				if err != nil {
					return Null, err
				}
				if !op.IsNull() && !wv.IsNull() && op.Compare(wv) == 0 {
					return a.then()
				}
			}
			if celse != nil {
				return celse()
			}
			return Null, nil
		}, nil
	}
	return func() (Value, error) {
		for _, a := range arms {
			wv, err := a.when()
			if err != nil {
				return Null, err
			}
			if !wv.IsNull() && wv.AsBool() {
				return a.then()
			}
		}
		if celse != nil {
			return celse()
		}
		return Null, nil
	}, nil
}
