package sqldb

import "math"

// This file is the engine's one rule of value identity: indexKey, the
// canonical member of a value's Compare class. A secondary index, a hash
// join, a DISTINCT aggregate and the deferred UNIQUE check, whose key is one
// value, key their Go maps with it directly; GROUP BY, DISTINCT, batched
// calls and the semantic operators, whose key is a tuple, hash and compare
// it a tuple at a time (TupleSet, batchcall.go). Nobody encodes a value to
// key it: the byte encoding in key_test.go is the tests' independent
// statement of the same classes, which indexKey and TupleSet are held to.
//
// Values that compare equal key identically. Numerics that hold a
// mathematical integer (INTEGER, BOOLEAN, and integral REAL within int64
// range) share an exact int64 form, so int64 keys beyond 2^53 never collapse
// through float64 rounding the way a strconv.FormatFloat key would.

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
