package sqldb

import (
	"fmt"
	"math"
	"testing"
)

// The old string-based Value.Key() routed integers through float64, so
// int64s beyond 2^53 that differ could share a key and silently corrupt
// GROUP BY / DISTINCT / join results. These tests pin the binary encoder's
// exactness and its agreement with Compare.

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
	for _, s := range []string{"", "0", "1", "5", "2.5", "a", "ab", "a\x00", "\x00a"} {
		vals = append(vals, Text(s))
	}
	return vals
}

// keyClassesAgree states the one rule the three keyings share: two values
// have the same indexKey exactly when they have the same Key(), exactly
// when Compare calls them equal. A NaN is held to the first two only —
// Compare documents it as equal to every number, the keys give it a class
// of its own, and no SQL path stores one.
func keyClassesAgree(a, b Value) error {
	sameIndexKey, sameKey := indexKey(a) == indexKey(b), a.Key() == b.Key()
	if sameIndexKey != sameKey {
		return fmt.Errorf("%v (%v) and %v (%v): same indexKey = %v, same Key() = %v", a, a.Kind(), b, b.Kind(), sameIndexKey, sameKey)
	}
	isNaN := func(v Value) bool { return v.Kind() == KindFloat && math.IsNaN(v.AsFloat()) }
	if equal := a.Equal(b); !isNaN(a) && !isNaN(b) && equal != sameKey {
		return fmt.Errorf("%v (%v) and %v (%v): same key = %v, Equal = %v", a, a.Kind(), b, b.Kind(), sameKey, equal)
	}
	if k := indexKey(a); indexKey(k) != k || !(isNaN(a) || k.Equal(a)) {
		return fmt.Errorf("indexKey(%v) = %v is not a canonical member of its class", a, k)
	}
	return nil
}

// TestKeyEqualIffEqual pins the substitution the index and its rechecks
// rely on, over every pair of the corpus: the index's map key, the hash
// operators' byte key and Compare draw the same classes, so
// `row[col].Equal(probe)` decides what comparing two keys would.
func TestKeyEqualIffEqual(t *testing.T) {
	vals := keyCorpus()
	for _, a := range vals {
		for _, b := range vals {
			if err := keyClassesAgree(a, b); err != nil {
				t.Error(err)
			}
		}
	}
	if a, b := indexKey(Float(math.NaN())), indexKey(Float(layoutNaN)); a != b {
		t.Errorf("NaN payloads key apart: %x vs %x", a.n, b.n)
	}
}

// FuzzKeyClasses holds arbitrary pairs to the same rule, and each value of
// the pair to textAgrees; the two corpora seed it.
func FuzzKeyClasses(f *testing.F) {
	parts := func(v Value) (uint8, uint64, string) { return uint8(v.kind), v.n, v.s }
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

func BenchmarkAppendRowKey(b *testing.B) {
	row := Row{Int(12345678901234), Text("some text value"), Float(3.25), Null}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendRowKey(buf[:0], row)
	}
	_ = fmt.Sprint(len(buf))
}
