package sqldb

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The reference encoding of a value's key: a compact, self-delimiting binary
// form (fixed width or length-prefixed, so concatenated row keys are
// unambiguous). Nothing in production calls it — every operator keys on the
// values themselves — and it stays here as the independent statement of the
// classes that indexKey and TupleSet are compared against
// (TestKeyEqualIffEqual, FuzzKeyClasses). A key that routes integers through
// float64 lets int64s beyond 2^53 that differ share a key and silently
// corrupt GROUP BY / DISTINCT / join results; these tests pin the encoder's
// exactness and its agreement with Compare.

const (
	keyTagNull  = 0x00
	keyTagInt   = 0x01
	keyTagFloat = 0x02
	keyTagText  = 0x03
)

// appendValueKey appends the encoding of v's indexKey to dst and returns
// the extended slice — the same classes as indexKey by construction. It
// never allocates beyond growing dst.
func appendValueKey(dst []byte, v Value) []byte {
	switch v = indexKey(v); v.Kind() {
	case KindNull:
		return append(dst, keyTagNull)
	case KindText:
		dst = append(dst, keyTagText)
		dst = binary.AppendUvarint(dst, uint64(len(v.AsText())))
		return append(dst, v.AsText()...)
	case KindInt:
		dst = append(dst, keyTagInt)
	default: // KindFloat
		dst = append(dst, keyTagFloat)
	}
	return binary.BigEndian.AppendUint64(dst, uint64(v.i64()))
}

// Key returns v's reference key as a string: values that compare equal
// produce identical keys, and distinct int64s always produce distinct keys
// (no float64 round-trip).
func (v Value) Key() string { return string(appendValueKey(nil, v)) }

// appendRowKey appends the concatenated key encodings of every value in r:
// the tests' reference identity for a row (self-delimiting fields make the
// concatenation injective over rows of equal arity).
func appendRowKey(dst []byte, r Row) []byte {
	for _, v := range r {
		dst = appendValueKey(dst, v)
	}
	return dst
}

func rowKey(r Row) string { return string(appendRowKey(nil, r)) }

func TestKeyExactForLargeInt64(t *testing.T) {
	const base = int64(1) << 53 // beyond here float64 loses integer precision
	pairs := [][2]int64{
		{base, base + 1},
		{base + 2, base + 3},
		{math.MaxInt64, math.MaxInt64 - 1},
		{math.MinInt64, math.MinInt64 + 1},
	}
	for _, p := range pairs {
		a, b := Int(p[0]), Int(p[1])
		// For the first pair the float64 images collide, which is exactly
		// the case the old string encoding got wrong.
		if a.Key() == b.Key() {
			t.Errorf("Int(%d) and Int(%d) share a key", p[0], p[1])
		}
	}
}

func TestKeyRespectsCompareEquivalence(t *testing.T) {
	// Values that compare equal must encode identically.
	equal := [][2]Value{
		{Int(5), Float(5.0)},
		{Int(0), Bool(false)},
		{Int(1), Bool(true)},
		{Float(-3), Int(-3)},
		{Text("x"), Text("x")},
		{Null, Null},
	}
	for _, p := range equal {
		if p[0].Compare(p[1]) != 0 {
			t.Fatalf("test bug: %v and %v do not compare equal", p[0], p[1])
		}
		if p[0].Key() != p[1].Key() {
			t.Errorf("%v and %v compare equal but key differently", p[0], p[1])
		}
	}
	distinct := []Value{
		Null, Bool(false), Int(1), Int(2), Float(2.5), Float(math.Inf(1)),
		Float(math.Inf(-1)), Text(""), Text("a"), Text("ab"), Int(1 << 60),
		Int(1<<60 + 1),
	}
	for i, a := range distinct {
		for j, b := range distinct {
			if i != j && a.Key() == b.Key() {
				t.Errorf("distinct values %v and %v share a key", a, b)
			}
		}
	}
}

// keyCorpus is the mixed-kind corpus of the key-class tests: every kind,
// both zeros, the 2^53 precision cliff from both sides as INTEGER and as
// REAL, the int64 range ends and the REALs just past them, and texts that
// spell numbers.
func keyCorpus() []Value {
	const cliff = int64(1) << 53
	vals := []Value{Null, Bool(false), Bool(true)}
	for _, i := range []int64{0, 1, -1, 2, 5, cliff - 1, cliff, cliff + 1, 1<<62 + 1, math.MaxInt64, math.MinInt64} {
		vals = append(vals, Int(i))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 2.5, 5, float64(cliff - 1), float64(cliff),
		float64(cliff + 2), 1 << 62, 1 << 63, -(1 << 63), -(1 << 63) - 2048, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.NaN(), layoutNaN} {
		vals = append(vals, Float(f))
	}
	for _, s := range []string{"", "0", "1", "5", "2.5", "a", "ab", "bc", "c", "a\x00", "\x00a"} {
		vals = append(vals, Text(s))
	}
	return vals
}

// keyClassesAgree states the one rule the three keyings share: two values
// have the same indexKey exactly when they have the same Key(), exactly
// when Compare calls them equal — and then they hash alike. No value is
// exempt: a NaN handed to Float is a NULL (value.go), in the NULL class on
// every side.
func keyClassesAgree(a, b Value) error {
	sameIndexKey, sameKey := identical(indexKey(a), indexKey(b)), a.Key() == b.Key()
	if sameIndexKey != sameKey {
		return fmt.Errorf("%v (%v) and %v (%v): same indexKey = %v, same Key() = %v", a, a.Kind(), b, b.Kind(), sameIndexKey, sameKey)
	}
	if equal := a.Equal(b); equal != sameKey {
		return fmt.Errorf("%v (%v) and %v (%v): same key = %v, Equal = %v", a, a.Kind(), b, b.Kind(), sameKey, equal)
	}
	if sameKey && hashKey(indexKey(a)) != hashKey(indexKey(b)) {
		return fmt.Errorf("%v (%v) and %v (%v) share a key and hash apart", a, a.Kind(), b, b.Kind())
	}
	if k := indexKey(a); !identical(indexKey(k), k) || !k.Equal(a) {
		return fmt.Errorf("indexKey(%v) = %v is not a canonical member of its class", a, k)
	}
	return nil
}

// tupleSetAgrees holds a TupleSet to the reference encoding over tuples of
// one width, filed in order and then once more: two tuples land in one class
// exactly when their concatenated reference keys are equal, classes count up
// in first-seen order, a tuple founds its class the first time and no other,
// and — after every growth of the slot array and every new block —
// Tuple(class) is still the first-seen original, bit for bit. Tuples reach
// Add through one scratch buffer, which the set must not keep.
func tupleSetAgrees(tuples [][]Value) error {
	var set TupleSet
	ref := make(map[string]int)
	var firsts [][]Value
	var buf []Value
	for pass := 0; pass < 2; pass++ {
		for _, tup := range tuples {
			key := rowKey(tup)
			want, seen := ref[key]
			if !seen {
				want, ref[key] = len(firsts), len(firsts)
				firsts = append(firsts, tup)
			}
			buf = append(buf[:0], tup...)
			class, fresh := set.Add(buf)
			clear(buf)
			if class != want || fresh == seen {
				return fmt.Errorf("pass %d: Add(%v) = class %d, fresh %v; the reference keys say class %d, fresh %v",
					pass, tup, class, fresh, want, !seen)
			}
		}
	}
	for class, first := range firsts {
		if got := set.Tuple(class); !identical(got, first) {
			return fmt.Errorf("Tuple(%d) = %v, want the first-seen original %v", class, got, first)
		}
	}
	return nil
}

// tuplesOver returns every tuple of the given width over vals, the last
// value varying fastest.
func tuplesOver(vals []Value, width int) [][]Value {
	tuples := [][]Value{nil}
	for ; width > 0; width-- {
		var next [][]Value
		for _, t := range tuples {
			for _, v := range vals {
				next = append(next, append(t[:len(t):len(t)], v))
			}
		}
		tuples = next
	}
	return tuples
}

// TestKeyEqualIffEqual pins the substitution the index and its rechecks
// rely on, over every pair of the corpus: indexKey, the reference byte key
// and Compare draw the same classes, so comparing the indexKey of a row's
// value with the probe's decides what `row[col].Equal(probe)` would. TupleSet —
// the group table of GROUP BY, DISTINCT and batched calls — is held to the
// same classes a tuple at a time, over every tuple of width 1 to 3 of the
// two corpora: ("a","bc") apart from ("ab","c"), NULLs together (the NaN
// payloads among them), Int(1<<53+1) apart from Float(1<<53), through 148,877
// classes at width 3 (the slot array grows 16 times, the tuples fill 156
// blocks).
func TestKeyEqualIffEqual(t *testing.T) {
	vals := keyCorpus()
	for _, a := range vals {
		for _, b := range vals {
			if err := keyClassesAgree(a, b); err != nil {
				t.Error(err)
			}
		}
	}
	if a, b := indexKey(Float(math.NaN())), indexKey(Float(layoutNaN)); !a.IsNull() || !b.IsNull() {
		t.Errorf("NaN payloads key outside the NULL class: %v, %v", a, b)
	}
	vals = append(vals, textCorpus()...)
	for width := 1; width <= 3; width++ {
		if err := tupleSetAgrees(tuplesOver(vals, width)); err != nil {
			t.Errorf("width %d: %v", width, err)
		}
	}
	var set TupleSet
	if c, fresh := set.Add(nil); c != 0 || !fresh || len(set.Tuple(0)) != 0 {
		t.Errorf("the empty tuple founded class %d (fresh %v)", c, fresh)
	}
	if c, fresh := set.Add(nil); c != 0 || fresh {
		t.Errorf("the empty tuple came back as class %d (fresh %v)", c, fresh)
	}
}

// FuzzKeyClasses holds arbitrary pairs to the same rule — as values, and as
// the tuples of width 1 to 3 over the pair in a TupleSet — and each value of
// the pair to textAgrees; the two corpora seed it.
func FuzzKeyClasses(f *testing.F) {
	parts := func(v Value) (uint8, uint64, string) { return uint8(v.Kind()), uint64(v.i64()), v.str() }
	vals := append(keyCorpus(), textCorpus()...)
	for i, a := range vals {
		ka, na, sa := parts(a)
		kb, nb, sb := parts(vals[(i+1)%len(vals)])
		f.Add(ka, na, sa, kb, nb, sb)
		f.Add(ka, na, sa, ka, na, sa)
	}
	build := func(k uint8, n uint64, s string) Value {
		switch Kind(k % 5) {
		case KindBool:
			return Bool(n&1 == 1)
		case KindInt:
			return Int(int64(n))
		case KindFloat:
			return Float(math.Float64frombits(n))
		case KindText:
			return Text(s)
		}
		return Null
	}
	f.Fuzz(func(t *testing.T, ka uint8, na uint64, sa string, kb uint8, nb uint64, sb string) {
		a, b := build(ka, na, sa), build(kb, nb, sb)
		if err := keyClassesAgree(a, b); err != nil {
			t.Fatal(err)
		}
		for _, v := range []Value{a, b} {
			if err := textAgrees(v); err != nil {
				t.Fatal(err)
			}
		}
		// The pair as tuples, among enough others that the set grows and
		// starts new blocks between their first filing and their second.
		for width := 1; width <= 3; width++ {
			tuples := tuplesOver([]Value{a, b}, width)
			for i := int64(0); i < 40; i++ {
				tuples = append(tuples, tuplesOver([]Value{Int(i)}, width)...)
			}
			if err := tupleSetAgrees(tuples); err != nil {
				t.Fatalf("width %d: %v", width, err)
			}
		}
	})
}

func TestCompareIntFloatExact(t *testing.T) {
	// Compare must agree with the key encoding: mixed int/float comparisons
	// are exact, never routed through float64 rounding of the integer.
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1<<53 + 1), Float(1 << 53), 1}, // float64 images collide; ints win exactly
		{Float(1 << 53), Int(1<<53 + 1), -1},
		{Int(1 << 53), Float(1 << 53), 0},
		{Int(math.MaxInt64), Float(math.MaxInt64), -1}, // float rounds up to 2^63
		{Int(math.MinInt64), Float(math.MinInt64), 0},  // -2^63 is exact
		{Int(5), Float(5.5), -1},
		{Int(6), Float(5.5), 1},
		{Int(-5), Float(-5.5), 1},
		{Int(0), Float(math.Inf(1)), -1},
		{Int(0), Float(math.Inf(-1)), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Plan-shape independence: the same equality must give the same answer
	// through a hash join (key-based) and a WHERE clause (Compare-based).
	db := NewDatabase()
	db.MustExec("CREATE TABLE ti (x INTEGER)")
	db.MustExec("CREATE TABLE tf (y REAL)")
	db.MustExec("INSERT INTO ti VALUES (?)", int64(1<<53+1))
	db.MustExec("INSERT INTO tf VALUES (9007199254740992.0)")
	joined, err := db.Query("SELECT COUNT(*) FROM ti JOIN tf ON ti.x = tf.y")
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := db.Query("SELECT COUNT(*) FROM ti, tf WHERE ti.x = tf.y")
	if err != nil {
		t.Fatal(err)
	}
	if jn, fn := joined.Rows[0][0].AsInt(), filtered.Rows[0][0].AsInt(); jn != fn {
		t.Errorf("hash join found %d matches but WHERE found %d for the same equality", jn, fn)
	} else if jn != 0 {
		t.Errorf("2^53+1 must not equal 2^53.0, got %d matches", jn)
	}
}

func TestRowKeySelfDelimiting(t *testing.T) {
	// Concatenated encodings must not be confusable across column
	// boundaries: ("ab","c") vs ("a","bc"), ("a",NULL) vs ("a").
	cases := [][2]Row{
		{{Text("ab"), Text("c")}, {Text("a"), Text("bc")}},
		{{Text("a"), Null}, {Null, Text("a")}},
		{{Int(1), Int(2)}, {Int(12)}},
		{{Text("1")}, {Int(1)}},
	}
	for _, c := range cases {
		if rowKey(c[0]) == rowKey(c[1]) {
			t.Errorf("rows %v and %v share a key", c[0], c[1])
		}
	}
}

func TestGroupByDistinctJoinWithHugeInts(t *testing.T) {
	// End-to-end regression: two ids straddling the float64 precision
	// cliff must stay distinct through GROUP BY, DISTINCT, index lookups
	// and hash joins.
	const a = int64(1)<<53 + 1
	const b = int64(1) << 53 // float64(a) == float64(b)
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)")
	db.MustExec("CREATE TABLE u (grp INTEGER, tag TEXT)")
	db.MustExec("INSERT INTO t VALUES (1, ?, 10), (2, ?, 20), (3, ?, 30)", a, b, a)
	db.MustExec("INSERT INTO u VALUES (?, 'A'), (?, 'B')", a, b)

	res, err := db.Query("SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("GROUP BY merged >2^53 keys: %d groups, want 2", len(res.Rows))
	}
	if res.Rows[0][1].AsInt() != 1 || res.Rows[1][1].AsInt() != 2 {
		t.Fatalf("group counts = %v,%v; want 1,2", res.Rows[0][1], res.Rows[1][1])
	}

	res, err = db.Query("SELECT DISTINCT grp FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("DISTINCT merged >2^53 keys: %d rows, want 2", len(res.Rows))
	}

	res, err = db.Query("SELECT t.v, u.tag FROM t JOIN u ON t.grp = u.grp ORDER BY t.v")
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"10", "A"}, {"20", "B"}, {"30", "A"}}
	if len(res.Rows) != len(want) {
		t.Fatalf("join rows = %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		if res.Rows[i][0].AsText() != w[0] || res.Rows[i][1].AsText() != w[1] {
			t.Errorf("join row %d = %v, want %v", i, res.Rows[i], w)
		}
	}

	// UNIQUE (primary-key) index with huge int keys: both inserts must be
	// accepted (distinct keys) and a point lookup must find the right row.
	db.MustExec("CREATE TABLE pk (id INTEGER PRIMARY KEY)")
	db.MustExec("INSERT INTO pk VALUES (?), (?)", a, b)
	res, err = db.Query("SELECT COUNT(*) FROM pk WHERE id = ?", a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("point lookup matched %v rows, want 1", res.Rows[0][0])
	}
}

func TestAppendValueKeyNoSideAllocScratchReuse(t *testing.T) {
	// A reused scratch buffer must produce the same encodings as fresh ones.
	vals := []Value{Int(7), Text("hello"), Float(2.75), Null, Bool(true), Int(1 << 60)}
	var buf []byte
	for _, v := range vals {
		buf = appendValueKey(buf[:0], v)
		if string(buf) != v.Key() {
			t.Errorf("scratch encoding of %v differs from Key()", v)
		}
	}
}
