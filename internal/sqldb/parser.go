package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError describes a syntax error with its byte offset in the source.
type ParseError struct {
	Pos int
	Msg string
	Src string
}

func (e *ParseError) Error() string {
	line, col := 1, 1
	for i := 0; i < e.Pos && i < len(e.Src); i++ {
		if e.Src[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Sprintf("sql: parse error at line %d col %d: %s", line, col, e.Msg)
}

// Parse parses a single SQL statement. Trailing semicolons are permitted.
// Errors are *Error values with code ErrParse wrapping a *ParseError that
// carries the source position.
func Parse(src string) (Statement, error) {
	stmts, err := ParseAll(src)
	if err != nil {
		return nil, err
	}
	return oneStatement(stmts, src)
}

// oneStatement is Parse's rule over a parsed text: exactly one statement.
func oneStatement(stmts []Statement, src string) (Statement, error) {
	if len(stmts) != 1 {
		return nil, wrapErr(ErrParse, &ParseError{Pos: 0, Msg: fmt.Sprintf("expected exactly one statement, got %d", len(stmts)), Src: src})
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated script into statements. Errors are
// *Error values with code ErrParse wrapping the positioned *ParseError.
func ParseAll(src string) ([]Statement, error) {
	p := &parser{src: src}
	p.cur = p.scan()
	stmts, err := p.parseAll()
	// A lex error anywhere in the text beats a parse error before it,
	// wherever the parser stopped: scan the rest for one.
	for err != nil && p.lexErr == nil && p.scan().typ != tokEOF {
	}
	if p.lexErr != nil {
		err = p.lexErr
	}
	if err != nil {
		return nil, wrapErr(ErrParse, err)
	}
	return stmts, nil
}

func (p *parser) parseAll() ([]Statement, error) {
	var stmts []Statement
	for {
		for p.acceptOp(";") {
		}
		if p.peek().typ == tokEOF {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if p.peek().typ != tokEOF {
			if _, err := p.expectOp(";"); err != nil {
				return nil, err
			}
		}
	}
	if len(stmts) == 0 {
		return nil, &ParseError{Pos: 0, Msg: "empty statement", Src: p.src}
	}
	return stmts, nil
}

// parser is a recursive-descent parser that scans the source as it reads:
// it holds the current token, at most one token of lookahead and the
// offset the next scan starts from.
type parser struct {
	cur, ahead token
	hasAhead   bool
	off        int
	lexErr     error // the first lex error; the text reads as ending there
	src        string
	params     int // number of ? placeholders seen so far
}

// scan reads the token at p.off. A lex error is held in p.lexErr, and the
// text reads as EOF from there on; parseAll reports the held error in
// place of anything the parser made of that EOF.
func (p *parser) scan() token {
	if p.lexErr == nil {
		t, next, err := scan(p.src, p.off)
		if err == nil {
			p.off = next
			return t
		}
		p.lexErr = err
	}
	return token{typ: tokEOF, pos: len(p.src)}
}

func (p *parser) peek() token { return p.cur }
func (p *parser) peek2() token {
	if !p.hasAhead {
		p.ahead, p.hasAhead = p.scan(), true
	}
	return p.ahead
}
func (p *parser) next() token {
	t := p.cur
	if p.hasAhead {
		p.cur, p.hasAhead = p.ahead, false
	} else {
		p.cur = p.scan()
	}
	return t
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return &ParseError{Pos: t.pos, Msg: fmt.Sprintf(format, args...), Src: p.src}
}

// acceptKeyword consumes the keyword if present and reports whether it did.
func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().typ == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf(p.peek(), "expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if p.peek().typ == tokOp && p.peek().text == op {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) (token, error) {
	t := p.peek()
	if t.typ == tokOp && t.text == op {
		return p.next(), nil
	}
	return t, p.errorf(t, "expected %q, found %q", op, t.text)
}

// expectIdent consumes an identifier (or non-reserved keyword used as a
// name, which we do not allow — keep the grammar strict).
func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.typ == tokIdent {
		p.next()
		return t.text, nil
	}
	return "", p.errorf(t, "expected identifier, found %q", t.text)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.typ != tokKeyword {
		return nil, p.errorf(t, "expected statement keyword, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "CREATE":
		return p.parseCreate()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "DROP":
		return p.parseDrop()
	case "BEGIN", "COMMIT", "ROLLBACK":
		p.next()
		p.acceptKeyword("TRANSACTION")
		switch t.text {
		case "BEGIN":
			return &BeginStmt{}, nil
		case "COMMIT":
			return &CommitStmt{}, nil
		}
		return &RollbackStmt{}, nil
	default:
		return nil, p.errorf(t, "unsupported statement %q", t.text)
	}
}

// ---------------------------------------------------------------------------
// SELECT

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Distinct: p.acceptKeyword("DISTINCT")}
	if !s.Distinct {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		s.Items = append(s.Items, item)
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("FROM") {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = &tr
		for {
			var kind JoinKind
			switch {
			case p.acceptKeyword("JOIN"):
				kind = JoinInner
			case p.acceptKeyword("INNER"):
				kind, err = JoinInner, p.expectKeyword("JOIN")
			case p.acceptKeyword("LEFT"):
				p.acceptKeyword("OUTER")
				kind, err = JoinLeft, p.expectKeyword("JOIN")
			case p.acceptKeyword("CROSS"):
				kind, err = JoinCross, p.expectKeyword("JOIN")
			case p.acceptOp(","):
				kind = JoinCross
			default:
				kind = 255
			}
			if err != nil {
				return nil, err
			}
			if kind == 255 {
				break
			}
			jt, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			jc := JoinClause{Kind: kind, Table: jt}
			if kind != JoinCross {
				if err := p.expectKeyword("ON"); err != nil {
					return nil, err
				}
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				jc.On = on
			}
			s.Joins = append(s.Joins, jc)
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, g)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Limit = e
		// Support both `LIMIT n OFFSET m` and `LIMIT m, n` (SQLite).
		if p.acceptOp(",") {
			off := s.Limit
			lim, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Limit, s.Offset = lim, off
		}
	}
	if p.acceptKeyword("OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Offset = e
	}
	return s, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// `*` or `tbl.*`
	if p.acceptOp("*") {
		return SelectItem{Expr: &Star{}}, nil
	}
	if p.peek().typ == tokIdent && p.peek2().typ == tokOp && p.peek2().text == "." {
		// Lookahead for tbl.* without consuming on failure.
		save := *p
		tbl := p.next().text
		p.next() // '.'
		if p.acceptOp("*") {
			return SelectItem{Expr: &Star{Table: tbl}}, nil
		}
		*p = save
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.parseAliasName()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().typ == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

// parseAliasName accepts identifiers and string literals as alias names.
func (p *parser) parseAliasName() (string, error) {
	t := p.peek()
	if t.typ == tokIdent || t.typ == tokString {
		p.next()
		return t.text, nil
	}
	return "", p.errorf(t, "expected alias name, found %q", t.text)
}

func (p *parser) parseTableRef() (TableRef, error) {
	var tr TableRef
	if p.acceptOp("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return tr, err
		}
		if _, err := p.expectOp(")"); err != nil {
			return tr, err
		}
		tr.Sub = sub
	} else {
		name, err := p.expectIdent()
		if err != nil {
			return tr, err
		}
		tr.Name = name
	}
	if p.acceptKeyword("AS") {
		a, err := p.parseAliasName()
		if err != nil {
			return tr, err
		}
		tr.Alias = a
	} else if p.peek().typ == tokIdent {
		tr.Alias = p.next().text
	}
	if tr.Sub != nil && tr.Alias == "" {
		return tr, p.errorf(p.peek(), "derived table requires an alias")
	}
	return tr, nil
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)
//
// Precedence (low to high): OR, AND, NOT, comparison/IS/IN/LIKE/BETWEEN,
// additive (+ - ||), multiplicative (* / %), unary minus, primary.

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryOp{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryOp{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: "NOT", Expr: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var right Expr
		switch {
		case t.typ == tokOp && (t.text == "=" || t.text == "!=" || t.text == "<>" ||
			t.text == "<" || t.text == "<=" || t.text == ">" || t.text == ">="):
			p.next()
			op := t.text
			if op == "<>" {
				op = "!="
			}
			right, err = p.parseAdditive()
			left = &BinaryOp{Op: op, Left: left, Right: right}
		case p.acceptKeyword("IS"):
			not := p.acceptKeyword("NOT")
			left, err = &IsNull{Expr: left, Not: not}, p.expectKeyword("NULL")
		case p.acceptKeyword("LIKE"):
			right, err = p.parseAdditive()
			left = &BinaryOp{Op: "LIKE", Left: left, Right: right}
		case p.acceptKeyword("IN"):
			left, err = p.parseInTail(left, false)
		case p.acceptKeyword("BETWEEN"):
			left, err = p.parseBetweenTail(left, false)
		case t.typ == tokKeyword && t.text == "NOT":
			// `x NOT IN`, `x NOT LIKE`, `x NOT BETWEEN`
			nx := p.peek2()
			if nx.typ != tokKeyword || (nx.text != "IN" && nx.text != "LIKE" && nx.text != "BETWEEN") {
				return left, nil
			}
			p.next() // NOT
			switch p.next().text {
			case "IN":
				left, err = p.parseInTail(left, true)
			case "LIKE":
				right, err = p.parseAdditive()
				left = &UnaryOp{Op: "NOT", Expr: &BinaryOp{Op: "LIKE", Left: left, Right: right}}
			case "BETWEEN":
				left, err = p.parseBetweenTail(left, true)
			}
		default:
			return left, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseInTail(left Expr, not bool) (Expr, error) {
	if _, err := p.expectOp("("); err != nil {
		return nil, err
	}
	in := &InList{Expr: left, Not: not}
	if p.peek().typ == tokKeyword && p.peek().text == "SELECT" {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		in.Sub = sub
	} else {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if _, err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *parser) parseBetweenTail(left Expr, not bool) (Expr, error) {
	lo, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &Between{Expr: left, Lo: lo, Hi: hi, Not: not}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.typ == tokOp && (t.text == "+" || t.text == "-" || t.text == "||") {
			p.next()
			right, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			left = &BinaryOp{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.typ == tokOp && (t.text == "*" || t.text == "/" || t.text == "%") {
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &BinaryOp{Op: t.text, Left: left, Right: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals so that -3 prints as -3, not -(3).
		if lit, ok := e.(*Literal); ok && lit.Val.IsNumeric() {
			return &Literal{Val: negate(lit.Val)}, nil
		}
		return &UnaryOp{Op: "-", Expr: e}, nil
	}
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.typ {
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf(t, "invalid number %q", t.text)
			}
			return &Literal{Val: Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.text, 64)
			if ferr != nil {
				return nil, p.errorf(t, "invalid number %q", t.text)
			}
			return &Literal{Val: Float(f)}, nil
		}
		return &Literal{Val: Int(n)}, nil
	case tokString:
		p.next()
		return &Literal{Val: Text(t.text)}, nil
	case tokParam:
		p.next()
		e := &Param{Index: p.params}
		p.params++
		return e, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Val: Null}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: Bool(false)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		case "EXISTS":
			p.next()
			if _, err := p.expectOp("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Select: sub}, nil
		case "NOT":
			p.next()
			e, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &UnaryOp{Op: "NOT", Expr: e}, nil
		}
		return nil, p.errorf(t, "unexpected keyword %q in expression", t.text)
	case tokIdent:
		// Function call or column reference.
		if p.peek2().typ == tokOp && p.peek2().text == "(" {
			return p.parseFuncCall()
		}
		p.next()
		ref := &ColumnRef{Column: t.text, index: -1}
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ref.Table = t.text
			ref.Column = col
		}
		return ref, nil
	case tokOp:
		if t.text == "(" {
			p.next()
			if p.peek().typ == tokKeyword && p.peek().text == "SELECT" {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if _, err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &Subquery{Select: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	// A bare `*` is NOT an expression operand: select-item stars and
	// COUNT(*) are recognised by their own productions, so accepting one
	// here would let shapes like `+*` parse into trees that cannot
	// round-trip through String (found by FuzzParse).
	return nil, p.errorf(t, "unexpected token %q in expression", t.text)
}

func (p *parser) parseFuncCall() (Expr, error) {
	name := strings.ToUpper(p.next().text)
	if _, err := p.expectOp("("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if p.acceptOp("*") {
		fc.Star = true
		if _, err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.acceptOp(")") {
		return fc, nil
	}
	if p.acceptKeyword("DISTINCT") {
		fc.Distinct = true
	}
	for {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fc.Args = append(fc.Args, a)
		if !p.acceptOp(",") {
			break
		}
	}
	if _, err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func (p *parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	if !(p.peek().typ == tokKeyword && (p.peek().text == "WHEN" || p.peek().text == "END")) {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.acceptKeyword("WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{When: w, Then: th})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf(p.peek(), "CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parseCast() (Expr, error) {
	if err := p.expectKeyword("CAST"); err != nil {
		return nil, err
	}
	if _, err := p.expectOp("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	ty, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CastExpr{Expr: e, Type: ty}, nil
}

// parseTypeName accepts a bare type identifier like INTEGER or TEXT, or a
// parameterised one like VARCHAR(255) (parameters are ignored).
func (p *parser) parseTypeName() (string, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	if p.acceptOp("(") {
		for p.peek().typ == tokNumber || (p.peek().typ == tokOp && p.peek().text == ",") {
			p.next()
		}
		if _, err := p.expectOp(")"); err != nil {
			return "", err
		}
	}
	return strings.ToUpper(name), nil
}

// ---------------------------------------------------------------------------
// DDL / DML

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	unique := p.acceptKeyword("UNIQUE")
	switch {
	case p.acceptKeyword("TABLE"):
		if unique {
			return nil, p.errorf(p.peek(), "UNIQUE is not valid for CREATE TABLE")
		}
		return p.parseCreateTable()
	case p.acceptKeyword("INDEX"):
		return p.parseCreateIndex(unique)
	default:
		return nil, p.errorf(p.peek(), "expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	stmt := &CreateTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	if _, err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		// Allow trailing table constraints to be skipped gracefully:
		// PRIMARY KEY (...), UNIQUE (...), FOREIGN KEY ... are tolerated
		// and ignored (benchmark schemas are denormalised).
		if p.peek().typ == tokKeyword && (p.peek().text == "PRIMARY" || p.peek().text == "UNIQUE") {
			if err := p.skipTableConstraint(); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if _, err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if len(stmt.Columns) == 0 {
		return nil, p.errorf(p.peek(), "table %q has no columns", stmt.Name)
	}
	return stmt, nil
}

func (p *parser) skipTableConstraint() error {
	// Consume tokens until the matching close paren of the constraint's
	// column list, leaving the trailing ',' or ')' for the caller.
	depth := 0
	for {
		t := p.peek()
		if t.typ == tokEOF {
			return p.errorf(t, "unterminated table constraint")
		}
		if t.typ == tokOp {
			switch t.text {
			case "(":
				depth++
			case ")":
				if depth == 0 {
					return nil
				}
				depth--
			case ",":
				if depth == 0 {
					return nil
				}
			}
		}
		p.next()
	}
}

func (p *parser) parseColumnDef() (ColumnDef, error) {
	var col ColumnDef
	name, err := p.expectIdent()
	if err != nil {
		return col, err
	}
	col.Name = name
	ty, err := p.parseTypeName()
	if err != nil {
		return col, err
	}
	col.Type = ty
	for {
		switch {
		case p.acceptKeyword("PRIMARY"):
			if err := p.expectKeyword("KEY"); err != nil {
				return col, err
			}
			col.PrimaryKey = true
		case p.acceptKeyword("NOT"):
			if err := p.expectKeyword("NULL"); err != nil {
				return col, err
			}
			col.NotNull = true
		case p.acceptKeyword("NULL"):
			// explicit nullable; no-op
		case p.acceptKeyword("UNIQUE"):
			col.Unique = true
		default:
			return col, nil
		}
	}
}

func (p *parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectOp("("); err != nil {
		return nil, err
	}
	column, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Column: column, Unique: unique}, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &InsertStmt{Table: table}
	if p.acceptOp("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, c)
			if !p.acceptOp(",") {
				break
			}
		}
		if _, err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.peek().typ == tokKeyword && p.peek().text == "SELECT" {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.Select = sel
		return stmt, nil
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if _, err := p.expectOp(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return stmt, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	stmt := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Set = append(stmt.Set, SetClause{Column: col, Expr: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt := &DeleteStmt{Table: table}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	return stmt, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTableStmt{}
	if p.acceptKeyword("IF") {
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfExists = true
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	return stmt, nil
}
