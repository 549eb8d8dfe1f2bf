// Package sem is the semantic-operator layer of the TAG paper's hand-written
// pipelines (§4.2, Appendix C): four kernels over plain values — Filter,
// TopK, Agg, Map (semops.go) — that are the one place a LOTUS-style operator
// turns into LM calls, and DataFrame, which carries a query result between
// them. SQL's LLM_FILTER / LLM_SCORE / LLM_MAP (core.LMFuncs) call the same
// kernels. Relational work is not done here: it belongs in the SQL a frame
// is loaded with.
//
// Every kernel batches its LM calls through Model.CompleteBatch, which —
// under the cost model in internal/llm — is the mechanism behind the
// paper's observation that an efficient TAG system "exploits efficient
// batched inference" (§4.3).
package sem

import (
	"context"
	"fmt"
	"strings"

	"tag/internal/llm"
	"tag/internal/sqldb"
)

// DataFrame is an immutable, column-ordered query result. The semantic
// operators return new frames; the receiver is never mutated.
type DataFrame struct {
	cols []string
	rows []sqldb.Row
}

// New builds a DataFrame from column names and rows. Rows must match the
// column count.
func New(cols []string, rows []sqldb.Row) (*DataFrame, error) {
	for i, r := range rows {
		if len(r) != len(cols) {
			return nil, fmt.Errorf("sem: row %d has %d values, want %d", i, len(r), len(cols))
		}
	}
	return &DataFrame{cols: append([]string(nil), cols...), rows: rows}, nil
}

// FromResult wraps a query result as a DataFrame.
func FromResult(res *sqldb.Result) *DataFrame {
	return &DataFrame{cols: append([]string(nil), res.Columns...), rows: res.Rows}
}

// FromRows drains a streaming cursor into a DataFrame and closes it
// (Rows.Collect). The cursor's error, if any, is returned.
func FromRows(rows *sqldb.Rows) (*DataFrame, error) {
	res, err := rows.Collect()
	if err != nil {
		return nil, err
	}
	return &DataFrame{cols: res.Columns, rows: res.Rows}, nil
}

// FromTable loads an entire table (SELECT *) through the streaming API.
func FromTable(db *sqldb.Database, table string) (*DataFrame, error) {
	rows, err := db.QueryRows(context.Background(), "SELECT * FROM "+table)
	if err != nil {
		return nil, err
	}
	return FromRows(rows)
}

// Len reports the number of rows.
func (d *DataFrame) Len() int { return len(d.rows) }

// Columns returns the column names.
func (d *DataFrame) Columns() []string { return append([]string(nil), d.cols...) }

// column locates a column (case-insensitive, the first of a repeated
// name); an unknown one is an error.
func (d *DataFrame) column(name string) (int, error) {
	for i, c := range d.cols {
		if strings.EqualFold(c, name) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("sem: no column %q", name)
}

// Value returns the cell at (row, col); NULL when out of range.
func (d *DataFrame) Value(row int, col string) sqldb.Value {
	ci, err := d.column(col)
	if err != nil || row < 0 || row >= len(d.rows) {
		return sqldb.Null
	}
	return d.rows[row][ci]
}

// Strings returns a column rendered as strings.
func (d *DataFrame) Strings(name string) ([]string, error) {
	ci, err := d.column(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(d.rows))
	for i, r := range d.rows {
		out[i] = r[ci].AsText()
	}
	return out, nil
}

// Head keeps the first n rows.
func (d *DataFrame) Head(n int) *DataFrame {
	if n > len(d.rows) {
		n = len(d.rows)
	}
	if n < 0 {
		n = 0
	}
	return &DataFrame{cols: d.cols, rows: d.rows[:n]}
}

// RowString flattens one row as "col=val; col=val" (the serialisation the
// summariser consumes).
func (d *DataFrame) RowString(i int) string {
	if i < 0 || i >= len(d.rows) {
		return ""
	}
	return d.rowString(i, d.allColumns())
}

func (d *DataFrame) allColumns() []int {
	all := make([]int, len(d.cols))
	for ci := range all {
		all[ci] = ci
	}
	return all
}

// rowString is RowString over the columns at idx.
func (d *DataFrame) rowString(i int, idx []int) string {
	var b strings.Builder
	for n, ci := range idx {
		if n > 0 {
			b.WriteString("; ")
		}
		b.WriteString(d.cols[ci])
		b.WriteString("=")
		b.WriteString(d.rows[i][ci].AsText())
	}
	return b.String()
}

// substitute renders an instruction template for row i: each "{Col}" is
// replaced by the row's value of Col — exactly LOTUS's instruction
// placeholder convention.
func (d *DataFrame) substitute(tmpl string, i int) string {
	out := tmpl
	for ci, c := range d.cols {
		ph := "{" + c + "}"
		if strings.Contains(out, ph) {
			out = strings.ReplaceAll(out, ph, d.rows[i][ci].AsText())
		}
	}
	return out
}

// filter judges the claims as one batch and keeps the rows whose claim —
// claims[classes[i]] for row i, claims[i] under nil classes — holds.
func (d *DataFrame) filter(ctx context.Context, m llm.Model, claims []string, classes []int) (*DataFrame, error) {
	verdicts, errs := Filter(ctx, m, claims)
	var rows []sqldb.Row
	for i, r := range d.rows {
		c := i
		if classes != nil {
			c = classes[i]
		}
		if errs != nil && errs[c] != nil {
			return nil, fmt.Errorf("sem: filter row %d: %w", i, errs[c])
		}
		if verdicts[c] {
			rows = append(rows, r)
		}
	}
	return &DataFrame{cols: d.cols, rows: rows}, nil
}

// SemFilter keeps the rows for which the instantiated claim is judged
// true. The instruction is a template with "{Column}" placeholders, such as
// llm.Claim.About writes.
func (d *DataFrame) SemFilter(ctx context.Context, m llm.Model, instruction string) (*DataFrame, error) {
	claims := make([]string, len(d.rows))
	for i := range d.rows {
		claims[i] = d.substitute(instruction, i)
	}
	return d.filter(ctx, m, claims, nil)
}

// SemFilterDistinct is SemFilter for a claim about one column's value: the
// paper's Appendix C pipeline (`df["City"].unique().sem_filter(...)`, then a
// semi-join back). The instruction's "{col}" placeholder is instantiated
// once per distinct value, in first-seen order, the claims go to the model
// as one batch, and every row whose value was judged true is kept. Values
// are distinct as they are to LLM_FILTER inside SQL (sqldb.TupleSet).
func (d *DataFrame) SemFilterDistinct(ctx context.Context, m llm.Model, instruction, col string) (*DataFrame, error) {
	ci, err := d.column(col)
	if err != nil {
		return nil, err
	}
	placeholder := "{" + d.cols[ci] + "}"
	var (
		distinct sqldb.TupleSet
		claims   []string
	)
	classes := make([]int, len(d.rows))
	for i, r := range d.rows {
		var fresh bool
		if classes[i], fresh = distinct.Add(r[ci : ci+1]); fresh {
			claims = append(claims, strings.ReplaceAll(instruction, placeholder, r[ci].AsText()))
		}
	}
	return d.filter(ctx, m, claims, classes)
}

// SemTopK ranks rows by how well the named column's text satisfies the
// criterion and returns the best k, ordered best-first (TopK).
func (d *DataFrame) SemTopK(ctx context.Context, m llm.Model, criterion, col string, k int) (*DataFrame, error) {
	texts, err := d.Strings(col)
	if err != nil {
		return nil, err
	}
	order, err := TopK(ctx, m, criterion, texts, k)
	if err != nil {
		return nil, err
	}
	rows := make([]sqldb.Row, len(order))
	for i, ri := range order {
		rows[i] = d.rows[ri]
	}
	return &DataFrame{cols: d.cols, rows: rows}, nil
}

// SemAgg summarises the named column under the instruction (Agg).
func (d *DataFrame) SemAgg(ctx context.Context, m llm.Model, instruction, col string) (string, error) {
	items, err := d.Strings(col)
	if err != nil {
		return "", err
	}
	return Agg(ctx, m, instruction, items)
}

// SemAggRows summarises rows: each item is the "col=val; col=val"
// serialisation of the named columns, or of the whole row when none is
// named ("all_cols=True" in LOTUS terms).
func (d *DataFrame) SemAggRows(ctx context.Context, m llm.Model, instruction string, cols ...string) (string, error) {
	var idx []int
	if len(cols) == 0 {
		idx = d.allColumns()
	}
	for _, c := range cols {
		ci, err := d.column(c)
		if err != nil {
			return "", err
		}
		idx = append(idx, ci)
	}
	items := make([]string, len(d.rows))
	for i := range d.rows {
		items[i] = d.rowString(i, idx)
	}
	return Agg(ctx, m, instruction, items)
}
