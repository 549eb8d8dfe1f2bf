package sqldb

import (
	"hash/maphash"
	"math"
)

// This file is the engine's one rule of value identity: indexKey, the
// canonical member of a value's Compare class, and keyHash, the one hash of
// it. No Go map is keyed by a Value (Value has no ==, value.go): a
// secondary index files row ids by the key's hash class (hashKey) and leaves
// the key where the row has it, and whoever reads a class compares keys with
// sameKey; every other keyed lookup — GROUP BY, DISTINCT and DISTINCT
// aggregates, a hash join's build side, the deferred UNIQUE check's tallies,
// batched calls and the semantic operators — files its keys, one value or a
// tuple, in a TupleSet (batchcall.go), which hashes and compares them a tuple
// at a time. Nobody encodes a value to key it: the byte encoding in
// key_test.go is the tests' independent statement of the same classes, which
// indexKey and TupleSet are held to.
//
// Values that compare equal key identically. Numerics that hold a
// mathematical integer (INTEGER, BOOLEAN, and integral REAL within int64
// range) share an exact int64 form, so int64 keys beyond 2^53 never collapse
// through float64 rounding the way a strconv.FormatFloat key would.

// indexKey returns the canonical member of v's Compare class: two values
// compare equal exactly when their indexKeys are Identical (sameKey). TEXT,
// NULL and INTEGER are their own keys — a TEXT key shares the value's string
// bytes.
func indexKey(v Value) Value {
	switch v.Kind() {
	case KindBool:
		return Int(v.i64())
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

// sameKey reports whether a and b are in one Compare class.
func sameKey(a, b Value) bool { return indexKey(a).Identical(indexKey(b)) }

// keySeed seeds every hash of a key for the life of the process, as Go seeds
// its own maps: a wire client that picks the keys cannot pick colliding ones.
var keySeed = maphash.MakeSeed()

// keyHash hashes a canonical key (an indexKey).
func keyHash(k Value) uint64 {
	if k.Kind() == KindText {
		return maphash.String(keySeed, k.str())
	}
	return maphash.Comparable(keySeed, uint64(k.i64())^uint64(k.Kind())<<56)
}

// hashFold is the odd multiplier (2^64 over the golden ratio) that folds a
// keyHash into fewer bits: the product's top bits depend on every bit of the
// hash, which the hash's own top bits — one column of an AES round — do not.
const hashFold = 0x9E3779B97F4A7C15

// hashKey returns a canonical key's hash class, what an Index files row ids
// under (TupleSet's hash of the one-value tuple). Keys that differ share a
// class once in 2^32 pairs: whoever reads one compares the keys of its rows.
func hashKey(k Value) uint32 { return uint32(keyHash(k) * hashFold >> 32) }
