package sqldb

import (
	"hash/maphash"
	"math"
)

// This file is the engine's one rule of value identity: indexKey, the
// canonical member of a value's Compare class, and keyHash, the one hash of
// it. A hash join, a DISTINCT aggregate and the deferred UNIQUE check, whose
// key is one value, key their Go maps with indexKey directly; a secondary
// index files row ids by the key's hash class (hashKey) and leaves the key
// where the row has it; GROUP BY, DISTINCT, batched calls and the semantic
// operators, whose key is a tuple, hash and compare it a tuple at a time
// (TupleSet, batchcall.go). Nobody encodes a value to key it: the byte
// encoding in key_test.go is the tests' independent statement of the same
// classes, which indexKey and TupleSet are held to.
//
// Values that compare equal key identically. Numerics that hold a
// mathematical integer (INTEGER, BOOLEAN, and integral REAL within int64
// range) share an exact int64 form, so int64 keys beyond 2^53 never collapse
// through float64 rounding the way a strconv.FormatFloat key would.

// indexKey returns the canonical member of v's Compare class, usable as a
// Go map key: two values compare equal exactly when their indexKeys are ==.
// TEXT, NULL and INTEGER are their own keys — a TEXT key shares the value's
// string bytes.
func indexKey(v Value) Value {
	switch v.kind {
	case KindBool:
		return Value{kind: KindInt, n: v.n}
	case KindFloat:
		// Integral floats inside int64 range take the integer form so
		// that e.g. Int(5) and Float(5.0) — equal under Compare — key
		// identically. The upper bound is exclusive: 2^63 itself is not
		// representable as int64.
		if f := v.f64(); f == math.Trunc(f) && f >= math.MinInt64 && f < math.MaxInt64 {
			return Int(int64(f))
		}
	}
	return v
}

// keySeed seeds every hash of a key for the life of the process, as Go seeds
// its own maps: a wire client that picks the keys cannot pick colliding ones.
var keySeed = maphash.MakeSeed()

// keyHash hashes a canonical key (an indexKey).
func keyHash(k Value) uint64 {
	if k.kind == KindText {
		return maphash.String(keySeed, k.s)
	}
	return maphash.Comparable(keySeed, k.n^uint64(k.kind)<<56)
}

// hashFold is the odd multiplier (2^64 over the golden ratio) that folds a
// keyHash into fewer bits: the product's top bits depend on every bit of the
// hash, which the hash's own top bits — one column of an AES round — do not.
const hashFold = 0x9E3779B97F4A7C15

// hashKey returns a canonical key's hash class, what an Index files row ids
// under (TupleSet's hash of the one-value tuple). Keys that differ share a
// class once in 2^32 pairs: whoever reads one compares the keys of its rows.
func hashKey(k Value) uint32 { return uint32(keyHash(k) * hashFold >> 32) }
