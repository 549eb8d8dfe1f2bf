package sqldb

import (
	"strings"
)

// isAggregateName reports whether the (upper-cased) function name denotes an
// aggregate.
func isAggregateName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "GROUP_CONCAT", "TOTAL":
		return true
	default:
		return false
	}
}

// aggState accumulates one aggregate over the rows of a group.
type aggState interface {
	add(v Value)
	result() Value
}

// mergeableAggState is an aggState whose partial results can be combined
// across parallel workers without observable divergence from the serial
// fold (parallel.go). GROUP_CONCAT (order-sensitive) and DISTINCT
// wrappers (unmergeable dedup sets) deliberately do not implement it;
// the planner checks eligibility before choosing parallel aggregation.
type mergeableAggState interface {
	aggState
	// merge folds another partial state of the same aggregate into this
	// one. The argument is always the same concrete type as the receiver.
	merge(other aggState)
}

// morselAdder is implemented by aggregate states whose float accumulation
// is order-sensitive (SUM, AVG, TOTAL). Parallel workers feed values
// through addMorsel with the morsel ordinal so the state can keep one
// partial float sum per morsel; result() folds the parts in ascending
// morsel order. That makes the engine's float summation order a defined
// property of the data and the morsel size — left-to-right within each
// morsel, then morsel by morsel — independent of worker count and
// scheduling. Serial execution is the degenerate single-part case
// (every add lands on morsel 0), so serial results are unchanged.
type morselAdder interface {
	addMorsel(v Value, morsel int)
}

// sumPart is one morsel's running float sum. Part lists are kept sorted
// ascending by morsel: each worker claims morsels in increasing order,
// so its appends arrive sorted, and mergeParts preserves the invariant.
type sumPart struct {
	morsel int
	f      float64
}

// mergeParts merges two morsel-sorted part lists, summing parts that
// share a morsel (defensive: one morsel is claimed by exactly one
// worker, so collisions should not occur across worker states).
func mergeParts(a, b []sumPart) []sumPart {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]sumPart, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].morsel < b[j].morsel:
			out = append(out, a[i])
			i++
		case b[j].morsel < a[i].morsel:
			out = append(out, b[j])
			j++
		default:
			out = append(out, sumPart{morsel: a[i].morsel, f: a[i].f + b[j].f})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// foldParts adds morsel partial sums to f in ascending morsel order — the
// documented float summation order.
func foldParts(f float64, parts []sumPart) float64 {
	for _, p := range parts {
		f += p.f
	}
	return f
}

// newState builds the accumulator for the named aggregate, off the slab
// for the kinds a many-group fold makes by the thousand.
func (s *groupTable) newState(fc *FuncCall) (aggState, error) {
	var base aggState
	switch fc.Name {
	case "COUNT":
		st := &s.counts.take(1)[0]
		st.star, base = fc.Star, st
	case "SUM", "TOTAL":
		st := &s.sums.take(1)[0]
		st.total, base = fc.Name == "TOTAL", st
	case "AVG":
		base = &s.avgs.take(1)[0]
	case "MIN", "MAX":
		st := &s.minMax.take(1)[0]
		st.min, base = fc.Name == "MIN", st
	case "GROUP_CONCAT":
		sep := ","
		if len(fc.Args) == 2 {
			if lit, ok := fc.Args[1].(*Literal); ok {
				sep = lit.Val.AsText()
			}
		}
		base = &concatState{sep: sep}
	default:
		return nil, errf(ErrNoFunction, "sql: unknown aggregate %s()", fc.Name)
	}
	if fc.Distinct {
		return &distinctState{inner: base, seen: make(map[Value]bool)}, nil
	}
	return base, nil
}

// countState implements COUNT(*) and COUNT(expr).
type countState struct {
	star bool
	n    int64
}

func (s *countState) add(v Value) {
	if s.star || !v.IsNull() {
		s.n++
	}
}
func (s *countState) result() Value { return Int(s.n) }

func (s *countState) merge(other aggState) { s.n += other.(*countState).n }

// sumState implements SUM (NULL over empty input) and TOTAL (0.0 over empty
// input, always REAL), matching SQLite. Integers add into an int64 sum
// (wrapping past it, as SUM always has) that merges in any order, so a
// column of integers keeps nothing else; every other value adds into a
// morsel-keyed float part list (see morselAdder). A REAL result is the
// integer sum plus the float parts in morsel order: for an all-float column
// the left-to-right, morsel-by-morsel sum, and for a mixed one still a
// function of the data and the morsel size alone.
type sumState struct {
	total  bool
	sawAny bool
	i      int64
	parts  []sumPart // empty = every value so far was an integer
}

func (s *sumState) add(v Value) { s.addMorsel(v, 0) }

func (s *sumState) addMorsel(v Value, morsel int) {
	if v.IsNull() {
		return
	}
	s.sawAny = true
	if v.Kind() == KindInt {
		s.i += v.AsInt()
		return
	}
	if n := len(s.parts); n > 0 && s.parts[n-1].morsel == morsel {
		s.parts[n-1].f += v.AsFloat()
	} else {
		s.parts = append(s.parts, sumPart{morsel: morsel, f: v.AsFloat()})
	}
}

func (s *sumState) merge(other aggState) {
	o := other.(*sumState)
	s.sawAny = s.sawAny || o.sawAny
	s.i += o.i
	s.parts = mergeParts(s.parts, o.parts)
}

func (s *sumState) result() Value {
	if !s.sawAny {
		if s.total {
			return Float(0)
		}
		return Null
	}
	if len(s.parts) == 0 && !s.total {
		return Int(s.i)
	}
	return Float(foldParts(float64(s.i), s.parts))
}

// avgState implements AVG (REAL; NULL over empty input). Like sumState
// it keeps morsel-keyed float parts so the summation order is defined
// under parallel execution.
type avgState struct {
	n     int64
	parts []sumPart
}

func (s *avgState) add(v Value) { s.addMorsel(v, 0) }

func (s *avgState) addMorsel(v Value, morsel int) {
	if v.IsNull() {
		return
	}
	s.n++
	if n := len(s.parts); n > 0 && s.parts[n-1].morsel == morsel {
		s.parts[n-1].f += v.AsFloat()
	} else {
		s.parts = append(s.parts, sumPart{morsel: morsel, f: v.AsFloat()})
	}
}

func (s *avgState) merge(other aggState) {
	o := other.(*avgState)
	s.n += o.n
	s.parts = mergeParts(s.parts, o.parts)
}

func (s *avgState) result() Value {
	if s.n == 0 {
		return Null
	}
	return Float(foldParts(0, s.parts) / float64(s.n))
}

// minMaxState implements MIN/MAX with NULLs ignored.
type minMaxState struct {
	min    bool
	sawAny bool
	best   Value
}

func (s *minMaxState) add(v Value) {
	if v.IsNull() {
		return
	}
	if !s.sawAny {
		s.sawAny = true
		s.best = v
		return
	}
	c := v.Compare(s.best)
	if (s.min && c < 0) || (!s.min && c > 0) {
		s.best = v
	}
}

func (s *minMaxState) merge(other aggState) {
	o := other.(*minMaxState)
	if !o.sawAny {
		return
	}
	if !s.sawAny {
		s.sawAny, s.best = true, o.best
		return
	}
	c := o.best.Compare(s.best)
	if (s.min && c < 0) || (!s.min && c > 0) {
		s.best = o.best
	}
}

func (s *minMaxState) result() Value {
	if !s.sawAny {
		return Null
	}
	return s.best
}

// concatState implements GROUP_CONCAT.
type concatState struct {
	sep    string
	sawAny bool
	b      strings.Builder
}

func (s *concatState) add(v Value) {
	if v.IsNull() {
		return
	}
	if s.sawAny {
		s.b.WriteString(s.sep)
	}
	s.sawAny = true
	s.b.WriteString(v.AsText())
}

func (s *concatState) result() Value {
	if !s.sawAny {
		return Null
	}
	return Text(s.b.String())
}

// distinctState deduplicates inputs before delegating to the wrapped state:
// by Compare class, keyed on the value itself (indexKey).
type distinctState struct {
	inner aggState
	seen  map[Value]bool
}

func (s *distinctState) add(v Value) {
	if !v.IsNull() { // of a NULL, inner decides whether it counts
		k := indexKey(v)
		if s.seen[k] {
			return
		}
		s.seen[k] = true
	}
	s.inner.add(v)
}

func (s *distinctState) result() Value { return s.inner.result() }
