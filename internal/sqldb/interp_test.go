package sqldb

// This file is the interpreted expression evaluator the engine shipped
// before every statement ran compiled closures (compile.go). It is kept,
// line for line, as the reference implementation refSelect evaluates
// through: TestDifferential compares the compiled engine against it. No
// non-test file may call into it (CI greps for that).

// evalExpr evaluates e in env with SQL three-valued-logic semantics: the
// interpreted twin of compileExpr, a tree walk with no plan-time binding.
// Test reference only. Aggregates are only handled by the compiled path.
func evalExpr(e Expr, env *evalEnv) (Value, error) {
	switch t := e.(type) {
	case *Literal:
		return t.Val, nil
	case *Param:
		if t.Index >= len(env.params) {
			return Null, errf(ErrParams, "sql: statement expects at least %d parameters, got %d", t.Index+1, len(env.params))
		}
		return env.params[t.Index], nil
	case *ColumnRef:
		i, owner, err := env.resolve(t)
		if err != nil {
			return Null, err
		}
		if i >= len(owner.row) {
			return Null, errf(ErrInternal, "sql: internal: column %s out of range", t)
		}
		return owner.row[i], nil
	case *BinaryOp:
		return evalBinary(t, env)
	case *UnaryOp:
		return evalUnary(t, env)
	case *IsNull:
		v, err := evalExpr(t.Expr, env)
		if err != nil {
			return Null, err
		}
		return Bool(v.IsNull() != t.Not), nil
	case *InList:
		return evalIn(t, env)
	case *Between:
		return evalBetween(t, env)
	case *FuncCall:
		return evalFunc(t, env)
	case *CaseExpr:
		return evalCase(t, env)
	case *CastExpr:
		v, err := evalExpr(t.Expr, env)
		if err != nil {
			return Null, err
		}
		return castValue(v, t.Type), nil
	case *Subquery:
		rows, _, err := execSubquery(t.Select, env)
		if err != nil {
			return Null, err
		}
		if len(rows) == 0 || len(rows[0]) == 0 {
			return Null, nil
		}
		return rows[0][0], nil
	case *ExistsExpr:
		rows, _, err := execSubquery(t.Select, env)
		if err != nil {
			return Null, err
		}
		return Bool((len(rows) > 0) != t.Not), nil
	case *Star:
		return Null, errf(ErrMisuse, "sql: '*' is not valid in this context")
	default:
		return Null, errf(ErrMisuse, "sql: cannot evaluate %T", e)
	}
}

func evalBinary(b *BinaryOp, env *evalEnv) (Value, error) {
	switch b.Op {
	case "AND":
		l, err := evalExpr(b.Left, env)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && !l.AsBool() {
			return Bool(false), nil
		}
		r, err := evalExpr(b.Right, env)
		if err != nil {
			return Null, err
		}
		if !r.IsNull() && !r.AsBool() {
			return Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Bool(true), nil
	case "OR":
		l, err := evalExpr(b.Left, env)
		if err != nil {
			return Null, err
		}
		if !l.IsNull() && l.AsBool() {
			return Bool(true), nil
		}
		r, err := evalExpr(b.Right, env)
		if err != nil {
			return Null, err
		}
		if !r.IsNull() && r.AsBool() {
			return Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Bool(false), nil
	}
	l, err := evalExpr(b.Left, env)
	if err != nil {
		return Null, err
	}
	r, err := evalExpr(b.Right, env)
	if err != nil {
		return Null, err
	}
	switch b.Op {
	case "=", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		c := l.Compare(r)
		switch b.Op {
		case "=":
			return Bool(c == 0), nil
		case "!=":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Bool(likeMatch(r.AsText(), l.AsText())), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return Text(l.AsText() + r.AsText()), nil
	case "+", "-", "*", "/", "%":
		return evalArith(b.Op, l, r)
	default:
		return Null, errf(ErrMisuse, "sql: unknown operator %q", b.Op)
	}
}

func evalUnary(u *UnaryOp, env *evalEnv) (Value, error) {
	v, err := evalExpr(u.Expr, env)
	if err != nil {
		return Null, err
	}
	switch u.Op {
	case "-":
		if v.IsNull() {
			return Null, nil
		}
		if v.Kind() == KindInt {
			return Int(-v.AsInt()), nil
		}
		return Float(-v.AsFloat()), nil
	case "NOT":
		if v.IsNull() {
			return Null, nil
		}
		return Bool(!v.AsBool()), nil
	default:
		return Null, errf(ErrMisuse, "sql: unknown unary operator %q", u.Op)
	}
}

func evalIn(in *InList, env *evalEnv) (Value, error) {
	needle, err := evalExpr(in.Expr, env)
	if err != nil {
		return Null, err
	}
	if needle.IsNull() {
		return Null, nil
	}
	var hayrows []Value
	if in.Sub != nil {
		rows, _, err := execSubquery(in.Sub, env)
		if err != nil {
			return Null, err
		}
		for _, r := range rows {
			if len(r) > 0 {
				hayrows = append(hayrows, r[0])
			}
		}
	} else {
		for _, e := range in.List {
			v, err := evalExpr(e, env)
			if err != nil {
				return Null, err
			}
			hayrows = append(hayrows, v)
		}
	}
	sawNull := false
	for _, h := range hayrows {
		if h.IsNull() {
			sawNull = true
			continue
		}
		if needle.Compare(h) == 0 {
			return Bool(!in.Not), nil
		}
	}
	if sawNull {
		return Null, nil
	}
	return Bool(in.Not), nil
}

func evalBetween(bt *Between, env *evalEnv) (Value, error) {
	v, err := evalExpr(bt.Expr, env)
	if err != nil {
		return Null, err
	}
	lo, err := evalExpr(bt.Lo, env)
	if err != nil {
		return Null, err
	}
	hi, err := evalExpr(bt.Hi, env)
	if err != nil {
		return Null, err
	}
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return Null, nil
	}
	in := v.Compare(lo) >= 0 && v.Compare(hi) <= 0
	return Bool(in != bt.Not), nil
}

func evalCase(c *CaseExpr, env *evalEnv) (Value, error) {
	if c.Operand != nil {
		op, err := evalExpr(c.Operand, env)
		if err != nil {
			return Null, err
		}
		for _, w := range c.Whens {
			wv, err := evalExpr(w.When, env)
			if err != nil {
				return Null, err
			}
			if !op.IsNull() && !wv.IsNull() && op.Compare(wv) == 0 {
				return evalExpr(w.Then, env)
			}
		}
	} else {
		for _, w := range c.Whens {
			wv, err := evalExpr(w.When, env)
			if err != nil {
				return Null, err
			}
			if !wv.IsNull() && wv.AsBool() {
				return evalExpr(w.Then, env)
			}
		}
	}
	if c.Else != nil {
		return evalExpr(c.Else, env)
	}
	return Null, nil
}

// evalFunc dispatches a (non-aggregate) function call.
func evalFunc(fc *FuncCall, env *evalEnv) (Value, error) {
	if isAggregateName(fc.Name) {
		return Null, errf(ErrMisuse, "sql: misuse of aggregate function %s()", fc.Name)
	}
	f, ok := env.qc.lookupFunc(fc.Name)
	if !ok {
		return Null, errf(ErrNoFunction, "sql: no such function: %s", fc.Name)
	}
	if n := len(fc.Args); n < f.MinArgs || f.MaxArgs >= 0 && n > f.MaxArgs {
		return Null, errf(ErrMisuse, "sql: wrong number of arguments to function %s()", fc.Name)
	}
	fn := f.Scalar
	args := make([]Value, len(fc.Args))
	null := false
	for i, a := range fc.Args {
		v, err := evalExpr(a, env)
		if err != nil {
			return Null, err
		}
		args[i], null = v, null || v.IsNull()
	}
	if f.Strict && null {
		return Null, nil
	}
	return fn(args)
}

// execSubquery runs a nested SELECT with the enclosing row environment
// available for correlated references, materialising its result (IN
// subqueries need the full set for NULL semantics; EXISTS and scalar
// subqueries stream through buildSelectPlan instead, see compile.go).
func execSubquery(stmt *SelectStmt, outer *evalEnv) ([]Row, []colInfo, error) {
	_, rows, cols, err := execSelect(stmt, outer.db, outer.params, outer, outer.qc)
	return rows, cols, err
}
