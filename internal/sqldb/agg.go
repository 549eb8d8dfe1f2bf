package sqldb

import (
	"cmp"
	"slices"
)

// isAggregateName reports whether the (upper-cased) function name denotes an
// aggregate.
func isAggregateName(name string) bool {
	_, ok := aggKinds[name]
	return ok
}

// column is one field of per-group state, indexed by the group's class
// (groupTable): the classes below tupleBlock in head, which doubles up to
// that size from one class, and tupleBlock classes a block from there on.
// A column allocates with its blocks, never with its groups, and a
// one-group aggregation does not pay for two thousand.
type column[T any] struct {
	head []T
	rest [][]T
}

// cell returns class's cell, or nil where the column does not reach it.
func (c *column[T]) cell(class int) *T {
	if class < len(c.head) {
		return &c.head[class]
	}
	if b := class>>tupleBlockBits - 1; b >= 0 && b < len(c.rest) {
		return &c.rest[b][class&(tupleBlock-1)]
	}
	return nil
}

// at returns class's cell, growing the column to hold it. A cell in head
// moves when head grows: use it before the next at.
func (c *column[T]) at(class int) *T {
	if class < len(c.head) {
		return &c.head[class]
	}
	return c.grow(class)
}

func (c *column[T]) grow(class int) *T {
	if p := c.cell(class); p != nil {
		return p
	}
	if class < tupleBlock {
		n := max(len(c.head), 1)
		for n <= class {
			n *= 2
		}
		c.head = append(make([]T, 0, n), c.head...)[:n]
	}
	for len(c.rest) < class>>tupleBlockBits {
		c.rest = append(c.rest, make([]T, tupleBlock))
	}
	return c.cell(class)
}

// get returns class's cell, the zero T where nothing wrote it.
func (c *column[T]) get(class int) (v T) {
	if p := c.cell(class); p != nil {
		v = *p
	}
	return v
}

// len is the number of cells the column holds.
func (c *column[T]) len() int { return len(c.head) + len(c.rest)*tupleBlock }

// aggKind is what an accumulator folds.
type aggKind uint8

const (
	aggCount  aggKind = iota
	aggSum            // NULL over no input; INTEGER while every value is one
	aggTotal          // 0.0 over no input; always REAL
	aggAvg            // REAL; NULL over no input
	aggMin            // NULLs ignored
	aggMax            // NULLs ignored
	aggConcat         // GROUP_CONCAT
)

var aggKinds = map[string]aggKind{
	"COUNT": aggCount, "SUM": aggSum, "TOTAL": aggTotal, "AVG": aggAvg,
	"MIN": aggMin, "MAX": aggMax, "GROUP_CONCAT": aggConcat,
}

// accumulator is one collected aggregate over every group of an
// aggregation: its state is a few columns indexed by the group's class, of
// which each kind uses its own —
//
//   - COUNT: n, the count.
//   - SUM, TOTAL: n, the exact sum of the integers (wrapping past int64, as
//     SUM always has), seen, and float parts once a non-integer arrives.
//   - AVG: n, the count, and the float parts of every value.
//   - MIN, MAX: best, NULL until a value arrives.
//   - GROUP_CONCAT: text and seen.
//
// The float parts define the engine's float summation order: values are
// summed left to right within a morsel, and the morsels' parts are folded
// in ascending morsel order after the integer sum (SUM, TOTAL) or from 0
// (AVG) — a function of the data and the morsel size alone, whatever the
// worker count and scheduling. The row loop and a serial fold add every
// value at morsel 0, so a class has one part, its left-to-right sum. A class
// keeps its latest morsel's part in f; an earlier one moves to spill, and
// finish folds them all.
type accumulator struct {
	aggSpec
	n     column[int64]
	seen  column[bool]
	best  column[Value]
	text  column[[]byte]
	f     column[sumPart]
	spill []sumPart
	pairs *TupleSet // DISTINCT: the (class, value) pairs seen
}

// aggSpec is what the planner makes of one collected aggregate
// (newAggSpecs); every accumulator of it starts from the spec.
type aggSpec struct {
	kind     aggKind
	distinct bool   // values dedup per class through pairs first
	arg      Expr   // nil for COUNT(*) and COUNT(), which count rows
	sep      string // GROUP_CONCAT's separator
}

// sumPart is one class's float sum over one morsel; morsel is one more than
// the morsel's ordinal, and 0 in a cell no float has reached.
type sumPart struct {
	class, morsel int32
	f             float64
}

// newAggSpecs builds the spec of each collected aggregate, checking its
// arguments: COUNT takes `*`, no argument (which counts rows as `*` does)
// or one; GROUP_CONCAT one or two, the second a constant separator
// evaluated here, once; every other aggregate one.
func newAggSpecs(aggs []*FuncCall, db *Database, params []Value, qc *queryCtx) ([]aggSpec, error) {
	specs := make([]aggSpec, len(aggs))
	for i, fc := range aggs {
		kind := aggKinds[fc.Name]
		a := aggSpec{kind: kind, sep: ",", distinct: fc.Distinct}
		args := len(fc.Args)
		switch {
		case kind == aggCount && args <= 1:
		case fc.Star || args == 0 || args > 2 || args == 2 && kind != aggConcat:
			return nil, errf(ErrMisuse, "sql: wrong number of arguments to function %s()", fc.Name)
		}
		if args > 0 {
			a.arg = fc.Args[0]
		}
		if args == 2 {
			// A separator that reads a column resolves no name without one.
			sep, err := evalConst(fc.Args[1], db, params, qc)
			if CodeOf(err) == ErrNoColumn {
				err = errf(ErrMisuse, "sql: %s() separator must be a constant", fc.Name)
			}
			if err != nil {
				return nil, err
			}
			a.sep = sep.AsText()
		}
		specs[i] = a
	}
	return specs, nil
}

// add folds v, the argument's value on a row of class's group, into the
// class's state; morsel orders float parts (0 outside a pooled fold).
func (a *accumulator) add(class int, v Value, morsel int) {
	if v.IsNull() && a.arg != nil {
		return // NULLs are skipped; only a COUNT with no argument counts rows
	}
	if a.distinct {
		if a.pairs == nil {
			a.pairs = new(TupleSet)
		}
		pair := [2]Value{Int(int64(class)), v}
		if _, fresh := a.pairs.Add(pair[:]); !fresh {
			return
		}
	}
	switch a.kind {
	case aggCount:
		*a.n.at(class)++
	case aggSum, aggTotal:
		*a.seen.at(class) = true
		if v.Kind() == KindInt {
			*a.n.at(class) += v.AsInt()
		} else {
			a.addPart(sumPart{int32(class), int32(morsel) + 1, v.AsFloat()})
		}
	case aggAvg:
		*a.n.at(class)++
		a.addPart(sumPart{int32(class), int32(morsel) + 1, v.AsFloat()})
	case aggMin, aggMax:
		a.keep(a.best.at(class), v)
	case aggConcat:
		t, seen := a.text.at(class), a.seen.at(class)
		if *seen {
			*t = append(*t, a.sep...)
		}
		*seen, *t = true, v.AppendText(*t)
	}
}

// keep makes v MIN's or MAX's best where it is the first value or better.
func (a *accumulator) keep(best *Value, v Value) {
	if c := v.Compare(*best); best.IsNull() || c < 0 && a.kind == aggMin || c > 0 && a.kind == aggMax {
		*best = v
	}
}

// addPart adds p into its class's cell when the cell is empty or holds p's
// morsel; otherwise the cell's part moves to spill and p takes its place.
func (a *accumulator) addPart(p sumPart) {
	switch c := a.f.at(int(p.class)); {
	case c.morsel == p.morsel:
		c.f += p.f
	case c.morsel != 0:
		a.spill = appendDoubling(a.spill, *c)
		fallthrough
	default:
		*c = p
	}
}

// merge folds class from of o — an accumulator of the same aggregate over
// another instance of a pooled fold, whose morsels this one never saw —
// into class to. mergeableAggregates keeps DISTINCT and GROUP_CONCAT,
// whose states do not merge, off the pooled fold.
func (a *accumulator) merge(to int, o *accumulator, from int) {
	switch a.kind {
	case aggCount, aggAvg:
		*a.n.at(to) += o.n.get(from)
	case aggSum, aggTotal:
		if o.seen.get(from) {
			*a.seen.at(to) = true
			*a.n.at(to) += o.n.get(from)
		}
	case aggMin, aggMax:
		if v := o.best.get(from); !v.IsNull() {
			a.keep(a.best.at(to), v)
		}
	}
	if p := o.f.get(from); p.morsel != 0 {
		p.class = int32(to)
		a.addPart(p)
	}
}

// finish folds every class's float parts into its cell, in the order the
// accumulator's comment defines; result reads the cell after it.
func (a *accumulator) finish() {
	start := func(class int32) float64 {
		if a.kind == aggAvg {
			return 0
		}
		return float64(a.n.get(int(class)))
	}
	spilled := len(a.spill) > 0
	if spilled { // room for every cell's part
		a.spill = slices.Grow(a.spill, a.f.len())
	}
	for _, blk := range append([][]sumPart{a.f.head}, a.f.rest...) {
		for i := range blk {
			if c := &blk[i]; c.morsel != 0 && spilled {
				a.spill = append(a.spill, *c)
				c.f = start(c.class)
			} else if c.morsel != 0 {
				c.f = start(c.class) + c.f
			}
		}
	}
	slices.SortFunc(a.spill, func(x, y sumPart) int { return cmp.Compare(x.morsel, y.morsel) })
	for _, p := range a.spill {
		a.f.at(int(p.class)).f += p.f
	}
	a.spill = nil
}

// result is class's aggregate, once finish has run.
func (a *accumulator) result(class int) Value {
	switch a.kind {
	case aggCount:
		return Int(a.n.get(class))
	case aggSum, aggTotal:
		switch n, p := a.n.get(class), a.f.get(class); {
		case p.morsel != 0:
			return Float(p.f)
		case a.kind == aggTotal:
			return Float(float64(n))
		case a.seen.get(class):
			return Int(n)
		}
		return Null
	case aggAvg:
		if n := a.n.get(class); n > 0 {
			return Float(a.f.get(class).f / float64(n))
		}
		return Null
	case aggMin, aggMax:
		return a.best.get(class)
	default: // aggConcat
		if !a.seen.get(class) {
			return Null
		}
		return Text(string(a.text.get(class)))
	}
}
