package sqldb

import (
	"fmt"
	"strings"
)

// This file defines the SQL abstract syntax tree. Every node implements
// String() producing valid SQL so that parse→print→parse round-trips
// (exercised by property tests in parser_test.go).

// Statement is any executable SQL statement.
type Statement interface {
	fmt.Stringer
	stmtNode()
}

// Expr is any SQL expression.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// ---------------------------------------------------------------------------
// Expressions

// Literal is a constant value.
type Literal struct {
	Val Value
}

func (*Literal) exprNode()        {}
func (l *Literal) String() string { return l.Val.String() }

// Param is a positional '?' placeholder bound at execution time.
type Param struct {
	Index int // 0-based position among the statement's parameters
}

func (*Param) exprNode()        {}
func (p *Param) String() string { return "?" }

// ColumnRef references a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string // optional qualifier
	Column string // column name, or "*" in StarExpr contexts

	// index is a pre-resolved ordinal into the input schema, or -1 when
	// unresolved. The parser always emits -1; star expansion stamps the
	// ordinal it expanded from, letting compileColumnRef skip name
	// resolution (it still verifies the stamp against the compile-time
	// schema before trusting it, since ASTs are shared via the plan cache).
	index int
}

func (*ColumnRef) exprNode() {}
func (c *ColumnRef) String() string {
	if c.Table != "" {
		return quoteIdent(c.Table) + "." + quoteIdent(c.Column)
	}
	return quoteIdent(c.Column)
}

// Star is the bare `*` or `tbl.*` select item.
type Star struct {
	Table string
}

func (*Star) exprNode() {}
func (s *Star) String() string {
	if s.Table != "" {
		return quoteIdent(s.Table) + ".*"
	}
	return "*"
}

// BinaryOp applies an infix operator. Operators: = != < <= > >= + - * / %
// AND OR LIKE || .
type BinaryOp struct {
	Op    string
	Left  Expr
	Right Expr
}

func (*BinaryOp) exprNode() {}
func (b *BinaryOp) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// UnaryOp applies a prefix operator: - or NOT.
type UnaryOp struct {
	Op   string // "-" or "NOT"
	Expr Expr
}

func (*UnaryOp) exprNode() {}
func (u *UnaryOp) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.Expr.String() + ")"
	}
	return "(" + u.Op + u.Expr.String() + ")"
}

// IsNull tests `expr IS [NOT] NULL`.
type IsNull struct {
	Expr Expr
	Not  bool
}

func (*IsNull) exprNode() {}
func (e *IsNull) String() string {
	if e.Not {
		return "(" + e.Expr.String() + " IS NOT NULL)"
	}
	return "(" + e.Expr.String() + " IS NULL)"
}

// InList tests `expr [NOT] IN (e1, e2, ...)` or `expr [NOT] IN (subquery)`.
type InList struct {
	Expr Expr
	List []Expr      // nil when Sub is set
	Sub  *SelectStmt // nil when List is set
	Not  bool
}

func (*InList) exprNode() {}
func (e *InList) String() string {
	var b strings.Builder
	b.WriteString("(" + e.Expr.String())
	if e.Not {
		b.WriteString(" NOT")
	}
	b.WriteString(" IN (")
	if e.Sub != nil {
		b.WriteString(e.Sub.String())
	} else {
		for i, it := range e.List {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.String())
		}
	}
	b.WriteString("))")
	return b.String()
}

// Between tests `expr [NOT] BETWEEN lo AND hi`.
type Between struct {
	Expr Expr
	Lo   Expr
	Hi   Expr
	Not  bool
}

func (*Between) exprNode() {}
func (e *Between) String() string {
	not := ""
	if e.Not {
		not = " NOT"
	}
	return "(" + e.Expr.String() + not + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// FuncCall invokes a scalar or aggregate function.
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Star     bool // COUNT(*)
	Distinct bool // COUNT(DISTINCT x)
}

func (*FuncCall) exprNode() {}
func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	var b strings.Builder
	b.WriteString(f.Name + "(")
	if f.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, a := range f.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteString(")")
	return b.String()
}

// CaseExpr is `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
type CaseExpr struct {
	Operand Expr // optional
	Whens   []CaseWhen
	Else    Expr // optional
}

// CaseWhen is one WHEN/THEN arm of a CaseExpr.
type CaseWhen struct {
	When Expr
	Then Expr
}

func (*CaseExpr) exprNode() {}
func (c *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	if c.Operand != nil {
		b.WriteString(" " + c.Operand.String())
	}
	for _, w := range c.Whens {
		b.WriteString(" WHEN " + w.When.String() + " THEN " + w.Then.String())
	}
	if c.Else != nil {
		b.WriteString(" ELSE " + c.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// Subquery is a scalar subquery used in expression position.
type Subquery struct {
	Select *SelectStmt
}

func (*Subquery) exprNode()        {}
func (s *Subquery) String() string { return "(" + s.Select.String() + ")" }

// ExistsExpr is `[NOT] EXISTS (subquery)`.
type ExistsExpr struct {
	Select *SelectStmt
	Not    bool
}

func (*ExistsExpr) exprNode() {}
func (e *ExistsExpr) String() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return "(" + not + "EXISTS (" + e.Select.String() + "))"
}

// CastExpr is `CAST(expr AS type)`.
type CastExpr struct {
	Expr Expr
	Type string // upper-cased target type name
}

func (*CastExpr) exprNode() {}
func (c *CastExpr) String() string {
	return "CAST(" + c.Expr.String() + " AS " + c.Type + ")"
}

// ---------------------------------------------------------------------------
// SELECT

// SelectItem is one projected expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef is a named table (or view of one) with an optional alias, or a
// derived table (subquery) when Sub is non-nil.
type TableRef struct {
	Name  string
	Alias string
	Sub   *SelectStmt
}

func (t *TableRef) String() string {
	var b strings.Builder
	if t.Sub != nil {
		b.WriteString("(" + t.Sub.String() + ")")
	} else {
		b.WriteString(quoteIdent(t.Name))
	}
	if t.Alias != "" {
		b.WriteString(" AS " + quoteIdent(t.Alias))
	}
	return b.String()
}

// effectiveName is the name the table is addressable by in column qualifiers.
func (t *TableRef) effectiveName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinKind enumerates supported join types.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

func (k JoinKind) String() string {
	switch k {
	case JoinLeft:
		return "LEFT JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// JoinClause is one joined table with its ON condition.
type JoinClause struct {
	Kind  JoinKind
	Table TableRef
	On    Expr // nil for CROSS JOIN
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String() + " ASC"
}

// SelectStmt is a full SELECT statement.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     *TableRef // nil means SELECT without FROM
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil = no limit
	Offset   Expr // nil = no offset
}

func (*SelectStmt) stmtNode() {}
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.Expr.String())
		if it.Alias != "" {
			b.WriteString(" AS " + quoteIdent(it.Alias))
		}
	}
	if s.From != nil {
		b.WriteString(" FROM " + s.From.String())
		for _, j := range s.Joins {
			b.WriteString(" " + j.Kind.String() + " " + j.Table.String())
			if j.On != nil {
				b.WriteString(" ON " + j.On.String())
			}
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if s.Limit != nil {
		b.WriteString(" LIMIT " + s.Limit.String())
	}
	if s.Offset != nil {
		b.WriteString(" OFFSET " + s.Offset.String())
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// DDL / DML

// ColumnDef declares one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       string // INTEGER, REAL, TEXT, BOOLEAN (affinity name as written)
	PrimaryKey bool
	NotNull    bool
	Unique     bool
}

// CreateTableStmt is `CREATE TABLE [IF NOT EXISTS] name (cols...)`.
type CreateTableStmt struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
}

func (*CreateTableStmt) stmtNode() {}
func (c *CreateTableStmt) String() string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	if c.IfNotExists {
		b.WriteString("IF NOT EXISTS ")
	}
	b.WriteString(quoteIdent(c.Name) + " (")
	for i, col := range c.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteIdent(col.Name) + " " + col.Type)
		if col.PrimaryKey {
			b.WriteString(" PRIMARY KEY")
		}
		if col.NotNull {
			b.WriteString(" NOT NULL")
		}
		if col.Unique {
			b.WriteString(" UNIQUE")
		}
	}
	b.WriteString(")")
	return b.String()
}

// CreateIndexStmt is `CREATE [UNIQUE] INDEX name ON table (col)`.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
	Unique bool
}

func (*CreateIndexStmt) stmtNode() {}
func (c *CreateIndexStmt) String() string {
	u := ""
	if c.Unique {
		u = "UNIQUE "
	}
	return "CREATE " + u + "INDEX " + quoteIdent(c.Name) + " ON " + quoteIdent(c.Table) + " (" + quoteIdent(c.Column) + ")"
}

// InsertStmt is `INSERT INTO t [(cols)] VALUES (...), (...)` or
// `INSERT INTO t [(cols)] SELECT ...`.
type InsertStmt struct {
	Table   string
	Columns []string // empty = table order
	Rows    [][]Expr // nil when Select is set
	Select  *SelectStmt
}

func (*InsertStmt) stmtNode() {}
func (s *InsertStmt) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + quoteIdent(s.Table))
	if len(s.Columns) > 0 {
		b.WriteString(" (")
		for i, c := range s.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(quoteIdent(c))
		}
		b.WriteString(")")
	}
	if s.Select != nil {
		b.WriteString(" " + s.Select.String())
		return b.String()
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

// UpdateStmt is `UPDATE t SET col = expr, ... [WHERE ...]`.
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one `col = expr` assignment in UPDATE.
type SetClause struct {
	Column string
	Expr   Expr
}

func (*UpdateStmt) stmtNode() {}
func (s *UpdateStmt) String() string {
	var b strings.Builder
	b.WriteString("UPDATE " + quoteIdent(s.Table) + " SET ")
	for i, c := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteIdent(c.Column) + " = " + c.Expr.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	return b.String()
}

// DeleteStmt is `DELETE FROM t [WHERE ...]`.
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*DeleteStmt) stmtNode() {}
func (s *DeleteStmt) String() string {
	out := "DELETE FROM " + quoteIdent(s.Table)
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// DropTableStmt is `DROP TABLE [IF EXISTS] name`.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

func (*DropTableStmt) stmtNode() {}
func (s *DropTableStmt) String() string {
	out := "DROP TABLE "
	if s.IfExists {
		out += "IF EXISTS "
	}
	return out + quoteIdent(s.Name)
}

// BeginStmt is `BEGIN [TRANSACTION]`: it opens the session transaction
// that subsequent bare statements join until COMMIT or ROLLBACK.
type BeginStmt struct{}

func (*BeginStmt) stmtNode()      {}
func (*BeginStmt) String() string { return "BEGIN" }

// CommitStmt is `COMMIT [TRANSACTION]`.
type CommitStmt struct{}

func (*CommitStmt) stmtNode()      {}
func (*CommitStmt) String() string { return "COMMIT" }

// RollbackStmt is `ROLLBACK [TRANSACTION]`.
type RollbackStmt struct{}

func (*RollbackStmt) stmtNode()      {}
func (*RollbackStmt) String() string { return "ROLLBACK" }

// quoteIdent quotes an identifier when it needs quoting (reserved word or
// non-identifier characters); otherwise returns it unchanged.
func quoteIdent(s string) string {
	if s == "*" || s == "" {
		return s
	}
	_, needs := keyword(s)
	if !needs {
		for i := 0; i < len(s); {
			var w int
			if i == 0 {
				w = identStartWidth(s[i:])
			} else {
				w = identPartWidth(s[i:])
			}
			if w == 0 {
				needs = true
				break
			}
			i += w
		}
	}
	if !needs {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
