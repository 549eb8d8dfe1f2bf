// Package sem is the LOTUS-style semantic-operator runtime the TAG paper's
// hand-written pipelines are built on: a typed DataFrame with standard
// relational operators plus LM-backed semantic operators (SemFilter,
// SemTopK, SemAgg, SemMap, SemJoin).
//
// All semantic operators batch their LM calls through Model.CompleteBatch,
// which — under the cost model in internal/llm — is the mechanism behind
// the paper's observation that an efficient TAG system "exploits efficient
// batched inference" (§4.3).
package sem

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"tag/internal/sqldb"
)

// DataFrame is an immutable, column-ordered table. Operations return new
// frames; the receiver is never mutated.
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

// FromRows drains a streaming cursor into a DataFrame and closes it: the
// frame is built row by row as the engine produces them, without an
// intermediate Result. The cursor's error, if any, is returned.
func FromRows(rows *sqldb.Rows) (*DataFrame, error) {
	defer rows.Close()
	cols := rows.Columns()
	var out []sqldb.Row
	for rows.Next() {
		out = append(out, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return &DataFrame{cols: cols, rows: out}, nil
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

// colIndex locates a column (case-insensitive), or -1.
func (d *DataFrame) colIndex(name string) int {
	for i, c := range d.cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Value returns the cell at (row, col); NULL when out of range.
func (d *DataFrame) Value(row int, col string) sqldb.Value {
	ci := d.colIndex(col)
	if ci < 0 || row < 0 || row >= len(d.rows) {
		return sqldb.Null
	}
	return d.rows[row][ci]
}

// Col returns a column as a value slice.
func (d *DataFrame) Col(name string) ([]sqldb.Value, error) {
	ci := d.colIndex(name)
	if ci < 0 {
		return nil, fmt.Errorf("sem: no column %q", name)
	}
	out := make([]sqldb.Value, len(d.rows))
	for i, r := range d.rows {
		out[i] = r[ci]
	}
	return out, nil
}

// Strings returns a column rendered as strings.
func (d *DataFrame) Strings(name string) ([]string, error) {
	vals, err := d.Col(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.AsText()
	}
	return out, nil
}

// Filter keeps rows where pred is true. The predicate receives an accessor
// for the current row.
func (d *DataFrame) Filter(pred func(get func(col string) sqldb.Value) bool) *DataFrame {
	var rows []sqldb.Row
	for _, r := range d.rows {
		row := r
		get := func(col string) sqldb.Value {
			ci := d.colIndex(col)
			if ci < 0 {
				return sqldb.Null
			}
			return row[ci]
		}
		if pred(get) {
			rows = append(rows, r)
		}
	}
	return &DataFrame{cols: d.cols, rows: rows}
}

// FilterEq keeps rows whose column equals the value.
func (d *DataFrame) FilterEq(col string, v sqldb.Value) *DataFrame {
	return d.Filter(func(get func(string) sqldb.Value) bool {
		c := get(col)
		return !c.IsNull() && !v.IsNull() && c.Compare(v) == 0
	})
}

// Sort orders rows by a column (stable). NULLs sort first.
func (d *DataFrame) Sort(col string, desc bool) (*DataFrame, error) {
	ci := d.colIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("sem: no column %q", col)
	}
	rows := append([]sqldb.Row(nil), d.rows...)
	sort.SliceStable(rows, func(i, j int) bool {
		c := rows[i][ci].Compare(rows[j][ci])
		if desc {
			return c > 0
		}
		return c < 0
	})
	return &DataFrame{cols: d.cols, rows: rows}, nil
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

// Select projects a subset of columns.
func (d *DataFrame) Select(cols ...string) (*DataFrame, error) {
	idx := make([]int, len(cols))
	for i, c := range cols {
		ci := d.colIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("sem: no column %q", c)
		}
		idx[i] = ci
	}
	rows := make([]sqldb.Row, len(d.rows))
	for ri, r := range d.rows {
		nr := make(sqldb.Row, len(idx))
		for i, ci := range idx {
			nr[i] = r[ci]
		}
		rows[ri] = nr
	}
	return &DataFrame{cols: append([]string(nil), cols...), rows: rows}, nil
}

// Join performs an inner hash equi-join with another frame. Column-name
// collisions on the right are prefixed "right_".
func (d *DataFrame) Join(other *DataFrame, leftCol, rightCol string) (*DataFrame, error) {
	li := d.colIndex(leftCol)
	ri := other.colIndex(rightCol)
	if li < 0 {
		return nil, fmt.Errorf("sem: no left column %q", leftCol)
	}
	if ri < 0 {
		return nil, fmt.Errorf("sem: no right column %q", rightCol)
	}
	cols := append([]string(nil), d.cols...)
	taken := make(map[string]bool, len(cols))
	for _, c := range cols {
		taken[strings.ToLower(c)] = true
	}
	for _, c := range other.cols {
		name := c
		if taken[strings.ToLower(name)] {
			name = "right_" + name
		}
		taken[strings.ToLower(name)] = true
		cols = append(cols, name)
	}
	build := make(map[string][]sqldb.Row)
	for _, r := range other.rows {
		k := r[ri].Key()
		build[k] = append(build[k], r)
	}
	var rows []sqldb.Row
	for _, l := range d.rows {
		if l[li].IsNull() {
			continue
		}
		for _, r := range build[l[li].Key()] {
			nr := make(sqldb.Row, 0, len(cols))
			nr = append(nr, l...)
			nr = append(nr, r...)
			rows = append(rows, nr)
		}
	}
	return &DataFrame{cols: cols, rows: rows}, nil
}

// Distinct keeps the first row for each distinct value of the column —
// distinct as the engine's indexes and its batched calls tell values apart
// (sqldb.TupleSet), keyed on the value itself.
func (d *DataFrame) Distinct(col string) (*DataFrame, error) {
	ci := d.colIndex(col)
	if ci < 0 {
		return nil, fmt.Errorf("sem: no column %q", col)
	}
	var seen sqldb.TupleSet
	var rows []sqldb.Row
	for _, r := range d.rows {
		if _, first := seen.Add(r[ci : ci+1]); first {
			rows = append(rows, r)
		}
	}
	return &DataFrame{cols: d.cols, rows: rows}, nil
}

// WithColumn appends a computed column.
func (d *DataFrame) WithColumn(name string, vals []sqldb.Value) (*DataFrame, error) {
	if len(vals) != len(d.rows) {
		return nil, fmt.Errorf("sem: column %q has %d values for %d rows", name, len(vals), len(d.rows))
	}
	cols := append(append([]string(nil), d.cols...), name)
	rows := make([]sqldb.Row, len(d.rows))
	for i, r := range d.rows {
		rows[i] = append(append(sqldb.Row(nil), r...), vals[i])
	}
	return &DataFrame{cols: cols, rows: rows}, nil
}

// RowString flattens one row as "col=val; col=val" (the serialisation the
// summariser consumes).
func (d *DataFrame) RowString(i int) string {
	if i < 0 || i >= len(d.rows) {
		return ""
	}
	var b strings.Builder
	for ci, c := range d.cols {
		if ci > 0 {
			b.WriteString("; ")
		}
		b.WriteString(c)
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
