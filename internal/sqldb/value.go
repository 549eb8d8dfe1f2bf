// Package sqldb implements an embedded, in-memory relational database
// engine with a pragmatic SQL subset. It is the substrate for the TAG
// pipeline's query-execution step (the paper uses SQLite3; sqldb is a
// behavioural stand-in at benchmark scale).
//
// The engine is organised around a plan/execute split:
//
//	lexer.go / parser.go / ast.go   SQL text -> AST
//	prepare.go                      prepared statements + the LRU plan cache
//	catalog.go                      schemas, tables, indexes
//	compile.go                      AST -> closures with ordinals bound once:
//	                                the one expression evaluator
//	expr.go / func.go / agg.go      what it stands on: scopes and name
//	                                resolution, arithmetic/CAST/LIKE,
//	                                scalar functions, aggregate accumulators
//	key.go                          value identity: the canonical key of a
//	                                Compare class
//	exec.go                         planning (the one index chooser) and
//	                                volcano-style execution
//	db.go                           the public Database API; INSERT, and the
//	                                one loop UPDATE and DELETE share
//
// Every statement runs in two phases: planning resolves every column
// reference to an ordinal, picks access paths (index scans, hash-join
// build sides, index-nested-loop joins) and compiles each expression into
// a closure; execution then runs the closures over rows without any name
// resolution, map lookups or string formatting on the per-row path.
// UPDATE and DELETE take the same access path a SELECT with their WHERE
// would and read their rows through the same scan. An operator's output row
// is its own until it is asked for the next one, so a consumer that keeps a
// row copies it; where the planner can see that the consumer does not — a
// top-K heap, an aggregation, a projection over a join — rows are built in
// one reused buffer, or (ORDER BY … LIMIT over a large scan) only for the
// rows that enter the heap: exec.go states the rule and its three plans.
//
// Values use dynamic typing with SQLite-flavoured affinity: every cell is a
// Value of kind null, integer, real, text, or boolean, and comparisons
// coerce across the numeric kinds.
//
// A Value is 16 bytes, a pointer and a payload word. A nil pointer is NULL
// (the zero Value); one of four package bytes (kindTags) marks a BOOLEAN,
// INTEGER, REAL or the empty TEXT, the payload its bits — an INTEGER's two's
// complement, a REAL's math.Float64bits (-0.0 survives; a NaN is NULL, see
// Float), a BOOLEAN's 0 or 1; any other pointer is a TEXT's bytes, the
// payload their length. Only this file knows the layout, and only it imports
// unsafe. Rows, batch columns, results and group keys are arrays of Values,
// so a field added here grows all of them, and TestValueLayout fails first.
// Value has no ==, which would compare a TEXT by its address: a zero-size
// func field makes the compiler refuse == and map[Value], and identity is
// Identical, or sameKey by Compare class (key.go).
package sqldb

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the dynamic types a Value can hold.
type Kind uint8

// Value kinds, in comparison order (Null sorts first, Text last).
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindText
)

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindText:
		return "TEXT"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single dynamically-typed SQL value. The zero Value is NULL. p
// and n hold the kind and the payload as the package comment lays out.
type Value struct {
	_ [0]func() // no ==: see the package comment
	p unsafe.Pointer
	n uint64
}

// kindTags are the addresses p takes for the kinds that carry no string
// data, in Kind order from KindBool: no string's bytes are ever one of them.
var kindTags [KindText - KindBool + 1]byte

// tag returns the pointer that marks kind k (KindBool … KindText).
func tag(k Kind) unsafe.Pointer { return unsafe.Pointer(&kindTags[k-KindBool]) }

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{p: tag(KindInt), n: uint64(v)} }

// Float returns a REAL value — for a NaN, NULL, as SQLite has it: whatever
// arithmetic, a bound parameter or a decoder hands in, no Value is a NaN, so
// Compare orders every pair and an index and a filter cannot disagree on one.
func Float(v float64) Value {
	if v != v {
		return Null
	}
	return Value{p: tag(KindFloat), n: math.Float64bits(v)}
}

// Text returns a TEXT value. The empty text takes its tag, because an empty
// string's data pointer may be anything, nil and a tag included.
func Text(v string) Value {
	if v == "" {
		return Value{p: tag(KindText)}
	}
	return Value{p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// Bool returns a BOOLEAN value.
func Bool(v bool) Value {
	if v {
		return Value{p: tag(KindBool), n: 1}
	}
	return Value{p: tag(KindBool)}
}

// i64 and f64 read the payload word of an INTEGER (or BOOLEAN) and a REAL.
func (v Value) i64() int64   { return int64(v.n) }
func (v Value) f64() float64 { return math.Float64frombits(v.n) }

// str returns a TEXT's string, and "" for every other kind.
func (v Value) str() string {
	if v.Kind() != KindText {
		return ""
	}
	return unsafe.String((*byte)(v.p), v.n)
}

// Kind reports the value's dynamic type.
func (v Value) Kind() Kind {
	if d := uintptr(v.p) - uintptr(tag(KindBool)); d < uintptr(len(kindTags)) {
		return KindBool + Kind(d)
	}
	if v.p == nil {
		return KindNull
	}
	return KindText
}

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.p == nil }

// Identical reports whether v and o are one value: one kind and one
// payload, the bits of a scalar or the bytes of a TEXT, wherever they lie.
// It is stricter than Equal, equality by Compare: 1 and 1.0, or -0.0 and
// 0.0, are Equal and not Identical.
func (v Value) Identical(o Value) bool {
	if v.p == o.p && v.n == o.n {
		return true
	}
	return v.n == o.n && v.Kind() == KindText && o.Kind() == KindText && v.str() == o.str()
}

// AsInt returns the value as an int64, coercing REAL and BOOLEAN.
// NULL and TEXT that does not parse return 0.
func (v Value) AsInt() int64 {
	switch v.Kind() {
	case KindInt, KindBool:
		return v.i64()
	case KindFloat:
		return int64(v.f64())
	case KindText:
		n, err := strconv.ParseInt(strings.TrimSpace(v.str()), 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(strings.TrimSpace(v.str()), 64)
			if ferr != nil {
				return 0
			}
			return int64(f)
		}
		return n
	default:
		return 0
	}
}

// AsFloat returns the value as a float64, coercing INTEGER, BOOLEAN and
// numeric TEXT. NULL and non-numeric TEXT return 0.
func (v Value) AsFloat() float64 {
	switch v.Kind() {
	case KindFloat:
		return v.f64()
	case KindInt, KindBool:
		return float64(v.i64())
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.str()), 64)
		if err != nil {
			return 0
		}
		return f
	default:
		return 0
	}
}

// AsText renders the value as a string. NULL renders as the empty string.
func (v Value) AsText() string {
	switch v.Kind() {
	case KindText:
		return v.str()
	case KindInt:
		return strconv.FormatInt(v.i64(), 10) // allocates nothing below 100
	}
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// AppendText appends AsText's rendering to dst and returns the extended
// slice. A REAL prints the way SQLite prints it: integral values get a
// trailing ".0" so that REAL and INTEGER remain visually distinct.
func (v Value) AppendText(dst []byte) []byte {
	switch v.Kind() {
	case KindText:
		return append(dst, v.str()...)
	case KindInt:
		return strconv.AppendInt(dst, v.i64(), 10)
	case KindBool:
		return strconv.AppendBool(dst, v.n != 0)
	case KindFloat:
		f := v.f64()
		if math.IsInf(f, 1) {
			return append(dst, "Inf"...)
		}
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return strconv.AppendFloat(dst, f, 'f', 1, 64)
		}
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	return dst
}

// AsBool returns SQL truthiness: non-zero numbers and the literal TRUE are
// true. NULL is false (callers needing three-valued logic must check IsNull
// before conversion).
func (v Value) AsBool() bool {
	switch v.Kind() {
	case KindBool, KindInt:
		return v.n != 0
	case KindFloat:
		return v.f64() != 0
	case KindText:
		return v.n != 0 // the length
	default:
		return false
	}
}

// IsNumeric reports whether the value is INTEGER or REAL.
func (v Value) IsNumeric() bool { k := v.Kind(); return k == KindInt || k == KindFloat }

// String implements fmt.Stringer with SQL literal syntax.
func (v Value) String() string {
	var buf [64]byte
	return string(v.appendSQL(buf[:0]))
}

// appendSQL appends String's rendering to dst: NULL, a quoted text with
// every ' doubled, or AppendText's number — spelled, where that would not
// parse back to the same value, as an expression that does.
func (v Value) appendSQL(dst []byte) []byte {
	switch v.Kind() {
	case KindNull:
		return append(dst, "NULL"...)
	case KindInt:
		if v.i64() == math.MinInt64 {
			// Its digits alone overflow, so they would lex as a REAL.
			return append(dst, "(-9223372036854775807-1)"...)
		}
	case KindFloat:
		if math.IsInf(v.f64(), 0) {
			// A bare Inf would parse as a column name.
			return append(v.AppendText(append(dst, "CAST('"...)), "' AS REAL)"...)
		}
	case KindText:
		dst = append(dst, '\'')
		s := v.str()
		for i := 0; i < len(s); i++ {
			if s[i] == '\'' {
				dst = append(dst, '\'')
			}
			dst = append(dst, s[i])
		}
		return append(dst, '\'')
	}
	return v.AppendText(dst)
}

// Compare defines a total order over non-NULL values and a partial order
// involving NULL. It returns:
//
//	-1 if v sorts before o
//	 0 if v equals o
//	+1 if v sorts after o
//
// Numeric kinds compare by value across INTEGER/REAL/BOOLEAN; otherwise the
// order is NULL < numeric kinds < TEXT by storage class, exactly as in
// SQLite (affinity coercion happens at insert time, never at comparison
// time, which keeps Compare a total order).
func (v Value) Compare(o Value) int {
	vk, ok := v.Kind(), o.Kind()
	// NULLs sort first and compare equal to each other (for ORDER BY /
	// GROUP BY purposes; WHERE-clause semantics handle NULL separately).
	if vk == KindNull || ok == KindNull {
		switch {
		case vk == ok:
			return 0
		case vk == KindNull:
			return -1
		default:
			return 1
		}
	}
	vn, on := vk != KindText, ok != KindText
	if vn && on {
		// Exact integer comparison when both sides are integers, and
		// exact int-vs-float comparison (as in SQLite), so that large
		// int64s never collapse through float64 rounding. This keeps
		// Compare's equivalence classes identical to indexKey's (key.go) —
		// equality must not depend on whether a plan hashes or compares.
		if vk == KindInt && ok == KindInt {
			return cmp.Compare(v.i64(), o.i64())
		}
		if vk == KindInt && ok == KindFloat {
			return compareIntFloat(v.i64(), o.f64())
		}
		if vk == KindFloat && ok == KindInt {
			return -compareIntFloat(o.i64(), v.f64())
		}
		return cmp.Compare(v.AsFloat(), o.AsFloat()) // never a NaN: Float
	}
	if vn != on {
		// Mixed numeric/text: numbers sort before text, unconditionally.
		if vk == KindText {
			return 1
		}
		return -1
	}
	// Both text.
	return strings.Compare(v.str(), o.str())
}

// compareIntFloat compares an int64 with a float64 (never a NaN: Float)
// exactly, without rounding the integer through float64.
func compareIntFloat(i int64, f float64) int {
	// math.MaxInt64 rounds to 2^63 as a float64 constant; anything at or
	// above it exceeds every int64, and anything below -2^63 undercuts
	// every int64. Inside that range Trunc(f) is exactly representable.
	if f >= math.MaxInt64 {
		return -1
	}
	if f < math.MinInt64 {
		return 1
	}
	if c := cmp.Compare(i, int64(math.Trunc(f))); c != 0 {
		return c
	}
	return cmp.Compare(0, f-math.Trunc(f))
}

// Equal reports whether two values compare equal under Compare. NULL equals
// NULL here; use SQL three-valued logic in predicates instead.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// GoValue converts a Go value into a Value. Supported inputs: nil, bool,
// all int/uint widths, float32/64, string, and Value itself. Anything else
// is rendered with fmt.Sprint as TEXT.
func GoValue(x any) Value {
	switch t := x.(type) {
	case nil:
		return Null
	case Value:
		return t
	case bool:
		return Bool(t)
	case int:
		return Int(int64(t))
	case int8:
		return Int(int64(t))
	case int16:
		return Int(int64(t))
	case int32:
		return Int(int64(t))
	case int64:
		return Int(t)
	case uint:
		if uint64(t) > math.MaxInt64 { // the REAL an integer literal this large gets
			return Float(float64(t))
		}
		return Int(int64(t))
	case uint8:
		return Int(int64(t))
	case uint16:
		return Int(int64(t))
	case uint32:
		return Int(int64(t))
	case uint64:
		if t > math.MaxInt64 {
			return Float(float64(t))
		}
		return Int(int64(t))
	case float32:
		return Float(float64(t))
	case float64:
		return Float(t)
	case string:
		return Text(t)
	default:
		return Text(fmt.Sprint(x))
	}
}

// Row is a tuple of values aligned with an output schema.
type Row []Value

// Clone returns a copy of the row sharing no backing storage.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
