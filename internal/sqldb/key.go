package sqldb

import (
	"encoding/binary"
	"math"
)

// This file implements the engine's hash-key encoding: a compact binary
// form of a Value that can be appended into a reusable []byte scratch
// buffer. GROUP BY and DISTINCT aggregates key their maps with it; a
// secondary index and a hash join, whose key is one value, key theirs with
// indexKey's Value directly, as DISTINCT and batched calls do a tuple at a
// time (TupleSet, batchcall.go), and copy nothing.
//
// Both respect Compare's equivalence classes: values that compare equal
// key identically. Numerics that hold a mathematical integer (INTEGER,
// BOOLEAN, and integral REAL within int64 range) share an exact int64
// form, so int64 keys beyond 2^53 never collapse through float64 rounding
// the way the old strconv.FormatFloat encoding did. Every encoded field is
// self-delimiting (fixed width or length-prefixed), so concatenated row
// keys are unambiguous.

const (
	keyTagNull  = 0x00
	keyTagInt   = 0x01
	keyTagFloat = 0x02
	keyTagText  = 0x03
)

// indexKey returns the canonical member of v's Compare class, usable as a
// Go map key: two values compare equal exactly when their indexKeys are ==
// (NaN aside: Compare calls it equal to every number, the key gives it a
// class of its own). TEXT, NULL and INTEGER are their own keys — a TEXT key
// shares the value's string bytes.
func indexKey(v Value) Value {
	switch v.kind {
	case KindBool:
		return Value{kind: KindInt, n: v.n}
	case KindFloat:
		f := v.f64()
		// Integral floats inside int64 range take the integer form so
		// that e.g. Int(5) and Float(5.0) — equal under Compare — key
		// identically. The upper bound is exclusive: 2^63 itself is not
		// representable as int64.
		if f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
			return Int(int64(f))
		}
		if math.IsNaN(f) {
			return Float(math.NaN()) // canonicalise NaN payloads
		}
	}
	return v
}

// appendValueKey appends the encoding of v's indexKey to dst and returns
// the extended slice — the same classes as indexKey by construction. It
// never allocates beyond growing dst.
func appendValueKey(dst []byte, v Value) []byte {
	switch v = indexKey(v); v.kind {
	case KindNull:
		return append(dst, keyTagNull)
	case KindText:
		dst = append(dst, keyTagText)
		dst = binary.AppendUvarint(dst, uint64(len(v.s)))
		return append(dst, v.s...)
	case KindInt:
		dst = append(dst, keyTagInt)
	default: // KindFloat
		dst = append(dst, keyTagFloat)
	}
	return binary.BigEndian.AppendUint64(dst, v.n)
}
