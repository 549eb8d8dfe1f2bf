package sqldb

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null, KindNull},
		{Int(7), KindInt},
		{Float(2.5), KindFloat},
		{Text("hi"), KindText},
		{Bool(true), KindBool},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind() = %v, want %v", c.v.Kind(), c.kind)
		}
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
}

func TestValueConversions(t *testing.T) {
	if got := Text("42").AsInt(); got != 42 {
		t.Errorf("Text(42).AsInt() = %d", got)
	}
	if got := Text("3.5").AsFloat(); got != 3.5 {
		t.Errorf("Text(3.5).AsFloat() = %v", got)
	}
	if got := Text("3.9").AsInt(); got != 3 {
		t.Errorf("Text(3.9).AsInt() = %d, want 3 (truncate)", got)
	}
	if got := Float(3.0).AsText(); got != "3.0" {
		t.Errorf("Float(3).AsText() = %q, want 3.0", got)
	}
	if got := Int(-5).AsText(); got != "-5" {
		t.Errorf("Int(-5).AsText() = %q", got)
	}
	if got := Bool(true).AsInt(); got != 1 {
		t.Errorf("Bool(true).AsInt() = %d", got)
	}
	if Text("abc").AsInt() != 0 || Text("abc").AsFloat() != 0 {
		t.Error("non-numeric text should convert to 0")
	}
	if Null.AsText() != "" {
		t.Error("Null.AsText() should be empty")
	}
}

func TestValueCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{Text("a"), Text("b"), -1},
		{Text("b"), Text("b"), 0},
		{Null, Int(1), -1},
		{Int(1), Null, 1},
		{Null, Null, 0},
		{Int(5), Text("banana"), -1}, // numbers before non-numeric text
		{Text("10"), Int(10), 1},     // strict storage-class order: text after numbers
		{Bool(true), Int(1), 0},
		{Bool(false), Int(0), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareLargeInts(t *testing.T) {
	a := Int(1 << 62)
	b := Int(1<<62 + 1)
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("large int comparison lost precision")
	}
}

// randomValue generates arbitrary values for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(5) {
	case 0:
		return Null
	case 1:
		return Int(int64(r.Intn(2001) - 1000))
	case 2:
		return Float(float64(r.Intn(2001)-1000) / 8)
	case 3:
		letters := []string{"", "a", "ab", "zebra", "10", "-3.5", "Hello World"}
		return Text(letters[r.Intn(len(letters))])
	default:
		return Bool(r.Intn(2) == 0)
	}
}

func TestValueCompareProperties(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	// Antisymmetry and reflexivity.
	f := func() bool {
		a, b := randomValue(r), randomValue(r)
		if a.Compare(a) != 0 || b.Compare(b) != 0 {
			return false
		}
		return a.Compare(b) == -b.Compare(a)
	}
	for i := 0; i < 2000; i++ {
		if !f() {
			t.Fatal("Compare violates antisymmetry/reflexivity")
		}
	}
	// Transitivity over random triples.
	for i := 0; i < 2000; i++ {
		a, b, c := randomValue(r), randomValue(r), randomValue(r)
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("Compare violates transitivity: %v, %v, %v", a, b, c)
		}
	}
}

func TestValueKeyConsistentWithEqual(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a, b := randomValue(r), randomValue(r)
		if a.Equal(b) && a.Key() != b.Key() {
			t.Fatalf("Equal values with different keys: %v (%q) vs %v (%q)", a, a.Key(), b, b.Key())
		}
		if !a.Equal(b) && a.Key() == b.Key() {
			t.Fatalf("Unequal values with same key: %v vs %v (key %q)", a, b, a.Key())
		}
	}
}

func TestGoValueRoundTrip(t *testing.T) {
	if err := quick.Check(func(i int64, f float64, s string, b bool) bool {
		return GoValue(i).AsInt() == i &&
			(GoValue(f).AsFloat() == f || f != f) && // NaN allowed to differ
			GoValue(s).AsText() == s &&
			GoValue(b).AsBool() == b
	}, nil); err != nil {
		t.Error(err)
	}
	if !GoValue(nil).IsNull() {
		t.Error("GoValue(nil) should be NULL")
	}
	if GoValue(uint8(3)).AsInt() != 3 {
		t.Error("GoValue(uint8) mismatch")
	}
}

// TestUnsignedParamAboveMaxInt64: a uint or uint64 parameter too large for
// an INTEGER binds as the REAL the same literal parses to, never as a
// wrapped negative.
func TestUnsignedParamAboveMaxInt64(t *testing.T) {
	db := NewDatabase()
	for _, p := range []any{uint64(math.MaxUint64), uint(math.MaxUint64)} {
		got := queryStrings(t, db, "SELECT 18446744073709551615, ?, ? = 18446744073709551615", p, p)
		if want := "[[1.8446744073709552e+19 1.8446744073709552e+19 true]]"; fmt.Sprint(got) != want {
			t.Errorf("%T parameter: %v, want %s", p, got, want)
		}
	}
	if got := GoValue(uint64(math.MaxInt64)); got != Int(math.MaxInt64) {
		t.Errorf("GoValue(uint64(MaxInt64)) = %v, want the INTEGER", got)
	}
}

func TestValueStringSQLLiterals(t *testing.T) {
	if got := Text("it's").String(); got != "'it''s'" {
		t.Errorf("Text escape = %q", got)
	}
	if got := Null.String(); got != "NULL" {
		t.Errorf("Null literal = %q", got)
	}
	if got := Int(12).String(); got != "12" {
		t.Errorf("Int literal = %q", got)
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), Text("x")}
	c := r.Clone()
	c[0] = Int(99)
	if r[0].AsInt() != 1 {
		t.Error("Clone shares storage with original")
	}
}

// ---------------------------------------------------------------------------
// Layout: Value is one kind byte, one 8-byte payload word and one string
// header — 32 bytes. Every row, result set, group key and index key is
// built from it, so a field added here costs a third of the heap silently;
// this test makes it cost a red build instead. The byte-level pins below
// were generated on the commit before the layout change: on-disk and
// on-wire encodings are the same bytes.

// layoutBigText is a 70 KB string: past every inline buffer and varint
// width the encoders use.
var layoutBigText = strings.Repeat("0123456789abcdefghijklmnopqrstuvwxyz", 2000)[:70*1024]

// layoutNaN is a quiet NaN carrying a payload. Float makes NULL of it, so
// the corpora that list it hold a NULL in its place: no encoding and no key
// ever sees a NaN (the float and raw pins below carry 00 where, before Float
// did that, they carried 03efbe0000addef87f).
var layoutNaN = math.Float64frombits(0x7ff8dead0000beef)

// layoutColumns is the corpus, one slice per sealed-column encoding.
func layoutColumns() map[string][]Value {
	ints := []Value{Int(math.MinInt64), Int(math.MaxInt64), Int(0), Null, Int(-1)}
	floats := []Value{Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(layoutNaN), Null, Float(1.5)}
	texts := []Value{Text(""), Text("a"), Null, Text(""), Text("héllo")}
	bools := []Value{Bool(true), Bool(false), Null, Bool(true)}
	var raw []Value
	for _, c := range [][]Value{ints, floats, texts, bools} {
		raw = append(raw, c...)
	}
	// Past one restart point of the streams, and past one-byte dictionary codes.
	var intrun, textwide []Value
	for i := int64(0); i < 3*segRestart; i++ {
		intrun = append(intrun, Int(i*i-7*i))
		if i%5 == 0 {
			intrun = append(intrun, Null)
		}
	}
	for i := 0; i < 300; i++ {
		textwide = append(textwide, Text(strconv.Itoa(i%257)))
	}
	// Cents, negatives among them, past one restart point: a float column
	// sealed as its scaled integers (exp 2). Each distinct text is its own
	// dictionary entry, so the column writes no codes.
	var decimal []Value
	for i := int64(0); i < 3*segRestart; i++ {
		decimal = append(decimal, Float(float64(i*i*37%20011-10000)/100))
		if i%7 == 0 {
			decimal = append(decimal, Null)
		}
	}
	textdistinct := []Value{Text("item-0"), Text(""), Null, Text("héllo"), Text("item-10"), Null, Text("x")}
	return map[string][]Value{"int": ints, "float": floats, "text": texts, "bool": bools, "raw": raw,
		"bigtext": {Text(layoutBigText), Null, Text(layoutBigText)}, "bigraw": {Int(1), Text(layoutBigText)},
		"intrun": intrun, "textwide": textwide, "decimal": decimal, "textdistinct": textdistinct}
}

// sameBits is kind- and bit-level identity through the accessors alone, so
// it means the same thing whatever the fields are.
func sameBits(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case KindInt:
		return a.AsInt() == b.AsInt()
	case KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	case KindText:
		return a.AsText() == b.AsText()
	case KindBool:
		return a.AsBool() == b.AsBool()
	}
	return true
}

// pinBytes renders an encoding for comparison with its pin: hex, or the
// SHA-256 of it once hex would not fit a source line.
func pinBytes(b []byte) string {
	if len(b) > 256 {
		sum := sha256.Sum256(b)
		return fmt.Sprintf("sha256:%x/%d", sum, len(b))
	}
	return hex.EncodeToString(b)
}

func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32: every row array, result set and index key grows with it", got)
	}
	if (Value{}) != Null || !(Value{}).IsNull() || Null.Kind() != KindNull {
		t.Fatal("the zero Value must be NULL")
	}
	for _, i := range []int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 53, 1<<53 + 1} {
		if v := Int(i); v.Kind() != KindInt || v.AsInt() != i {
			t.Errorf("Int(%d) round trip = %v %d", i, v.Kind(), v.AsInt())
		}
	}
	if v := Float(layoutNaN); v != Null || Float(math.NaN()) != Null {
		t.Errorf("Float(NaN) = %v (%v), want NULL: a stored NaN equals every number under Compare", v, v.Kind())
	}
	for _, f := range []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		if v := Float(f); v.Kind() != KindFloat || math.Float64bits(v.AsFloat()) != math.Float64bits(f) {
			t.Errorf("Float(%x) round trip = %v %x", math.Float64bits(f), v.Kind(), math.Float64bits(v.AsFloat()))
		}
	}
	for _, b := range []bool{true, false} {
		if v := Bool(b); v.Kind() != KindBool || v.AsBool() != b {
			t.Errorf("Bool(%v) round trip = %v %v", b, v.Kind(), v.AsBool())
		}
	}
	for _, s := range []string{"", "a", layoutBigText} {
		if v := Text(s); v.Kind() != KindText || v.AsText() != s {
			t.Errorf("Text(len %d) round trip = %v len %d", len(s), v.Kind(), len(v.AsText()))
		}
	}
}

// TestValueEncodingsPinned round-trips the corpus through the WAL value
// codec and all five sealed-column encodings — whole and value by value —
// and compares the bytes with pins: the WAL's taken on the 48-byte layout,
// the sealed columns' when a float column became its scaled integers (or,
// holding -0 and ±Inf as "float" does, the raw stream) and an all-distinct
// dictionary stopped writing codes.
func TestValueEncodingsPinned(t *testing.T) {
	wantEnc := map[string]byte{"int": segEncInt, "float": segEncRaw, "text": segEncText,
		"bool": segEncBool, "raw": segEncRaw, "bigtext": segEncText, "bigraw": segEncRaw,
		"intrun": segEncInt, "textwide": segEncText, "decimal": segEncFloat, "textdistinct": segEncText}
	for name, vals := range layoutColumns() {
		var wal []byte
		for _, v := range vals {
			wal = appendWalValue(wal, v)
		}
		if got := pinBytes(wal); got != layoutWalPins[name] {
			t.Errorf("appendWalValue(%s) drifted:\n got %s\nwant %s", name, got, layoutWalPins[name])
		}
		dec := walDecoder{b: wal}
		for i, v := range vals {
			if got := dec.value(); dec.err != nil || !sameBits(got, v) {
				t.Errorf("wal %s[%d]: decoded %v (err %v), want %v", name, i, got, dec.err, v)
			}
		}
		col := sealColumn(vals)
		if col.enc != wantEnc[name] || name == "decimal" && col.exp != 2 {
			t.Errorf("sealColumn(%s) chose encoding %d (exp %d), want %d", name, col.enc, col.exp, wantEnc[name])
		}
		if bmLen := (len(vals) + 7) / 8; name == "textdistinct" && len(col.data) != bmLen {
			t.Errorf("sealColumn(textdistinct) wrote %d bytes of codes, want none", len(col.data)-bmLen)
		}
		if got := pinBytes(append([]byte(col.dict), col.data...)); got != layoutSealPins[name] {
			t.Errorf("sealColumn(%s) drifted:\n got %s\nwant %s", name, got, layoutSealPins[name])
		}
		out := make([]Value, len(vals))
		if err := col.decode(len(vals), out); err != nil {
			t.Fatalf("decode %s: %v", name, err)
		}
		for i, v := range vals {
			if at, err := col.valueAt(i, len(vals), nil); !sameBits(out[i], v) || err != nil || !sameBits(at, v) {
				t.Errorf("seal %s[%d]: decoded %v, at random %v (%v), want %v", name, i, out[i], at, err, v)
			}
		}
	}
	// The wire's text form of a cell is AsText (pgwire/messages.go dataRow).
	var text []string
	for _, v := range layoutColumns()["raw"] {
		text = append(text, v.AsText())
	}
	if got := strings.Join(text, "|"); got != layoutTextPin {
		t.Errorf("AsText drifted:\n got %s\nwant %s", got, layoutTextPin)
	}
}

// asTextReference is AsText as it was written before it folded onto
// AppendText: strconv's Format functions and the SQLite-style float rule,
// kept as the reference the append form is held to.
func asTextReference(v Value) string {
	switch v.Kind() {
	case KindText:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case KindFloat:
		f := v.AsFloat()
		if math.IsInf(f, 1) {
			return "Inf"
		}
		if math.IsInf(f, -1) {
			return "-Inf"
		}
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return strconv.FormatFloat(f, 'f', 1, 64)
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	case KindBool:
		if v.AsBool() {
			return "true"
		}
		return "false"
	}
	return ""
}

// textAgrees holds AsText and AppendText (onto an empty and onto a used
// slice, which must keep what it held) to the reference.
func textAgrees(v Value) error {
	want := asTextReference(v)
	if got := v.AsText(); got != want {
		return fmt.Errorf("%v (%v): AsText = %q, reference %q", v, v.Kind(), got, want)
	}
	if got := string(v.AppendText(nil)); got != want {
		return fmt.Errorf("%v (%v): AppendText(nil) = %q, reference %q", v, v.Kind(), got, want)
	}
	if got := string(v.AppendText([]byte("- col: "))); got != "- col: "+want {
		return fmt.Errorf("%v (%v): AppendText onto a prefix = %q, reference %q", v, v.Kind(), got, "- col: "+want)
	}
	return nil
}

// textCorpus is what the key corpus lacks for text rendering: both sides of
// the 1e15 switch from "%.1f" to "%g", the largest exact integers, the
// shortest-round-trip cases and the longest renderings.
func textCorpus() []Value {
	var vals []Value
	for _, f := range []float64{1e15, -1e15, 1e15 - 1, 1 - 1e15, math.Nextafter(1e15, 0), math.Nextafter(1e15, math.Inf(1)),
		999999999999999.9, 1e16, 1e21, 1e-7, 0.1, 1.0 / 3, 123456.789, -2.5e-300, math.MaxFloat64, -math.MaxFloat64} {
		vals = append(vals, Float(f))
	}
	for _, i := range []int64{9, 10, 99, 100, -99, 1e15, -1e15} {
		vals = append(vals, Int(i))
	}
	return append(vals, Text("tab\tand\nnewline"), Text(strings.Repeat("x", 40)))
}

// TestAppendTextMatchesAsText: every renderer of a cell — AsText, the
// wire's dataRow and the prompt writer's arena, both through AppendText —
// prints what AsText printed before the fold.
func TestAppendTextMatchesAsText(t *testing.T) {
	for _, v := range append(keyCorpus(), textCorpus()...) {
		if err := textAgrees(v); err != nil {
			t.Error(err)
		}
	}
	for v, want := range map[Value]string{Float(math.Inf(1)): "Inf", Float(math.Inf(-1)): "-Inf", Float(math.NaN()): "",
		Float(math.Copysign(0, -1)): "-0.0", Float(1e15 - 1): "999999999999999.0", Float(1e15): "1e+15",
		Int(math.MinInt64): "-9223372036854775808", Null: "", Bool(true): "true", Float(2.5): "2.5", Float(5): "5.0"} {
		if got := string(v.AppendText(nil)); got != want {
			t.Errorf("AppendText(%v %v) = %q, want %q", v.Kind(), v, got, want)
		}
	}
}

var layoutWalPins = map[string]string{
	"int":          "02000000000000008002ffffffffffffff7f0200000000000000000002ffffffffffffffff",
	"float":        "03000000000000008003000000000000f07f03000000000000f0ff000003000000000000f83f",
	"text":         "0400000000040100000061000400000000040600000068c3a96c6c6f",
	"bool":         "01010100000101",
	"raw":          "02000000000000008002ffffffffffffff7f0200000000000000000002ffffffffffffffff03000000000000008003000000000000f07f03000000000000f0ff000003000000000000f83f0400000000040100000061000400000000040600000068c3a96c6c6f01010100000101",
	"bigtext":      "sha256:e19dcabee73defd0477bd53e2474d01f4e37ba7026e56411f6fb26b3667d1032/143371",
	"bigraw":       "sha256:e9c38af14c32984a4769062cc0f9fc2f04453c0a56eea515cb1b7b03d6e2c945/71694",
	"intrun":       "sha256:3cd69eedf59ddb9784b6d7f69438bcb6107870f16a45078d1264e5c79384fe35/1767",
	"textwide":     "sha256:d15b552fd30313fa22e4d293d6f2b7ab0822fe2665c712c5e7154197de3bf8f0/2237",
	"decimal":      "sha256:2ed8549b201fa8ccc28b1bd56e45dd999a59a4ed6ae0f33596b023047175a28f/1756",
	"textdistinct": "04060000006974656d2d30040000000000040600000068c3a96c6c6f04070000006974656d2d313000040100000078",
}

var layoutSealPins = map[string]string{
	"int":          "08ffffffffffffffffff0101fdffffffffffffffff0101",
	"float":        "1803000000000000008003000000000000f07f03000000000000f0ff03000000000000f83f",
	"text":         "6168c3a96c6c6f0400010002",
	"bool":         "0405",
	"raw":          "08230402000000000000008002ffffffffffffff7f02000000000000000002ffffffffffffffff03000000000000008003000000000000f07f03000000000000f0ff03000000000000f83f04000000000401000000610400000000040600000068c3a96c6c6f010101000101",
	"bigtext":      "sha256:264b828ab9056a3ede0923cd8610a53a1c16af698147bb397f8ba7c8b69de155/71683",
	"bigraw":       "sha256:a7e2b723fb60673589764f14ca3c720c0e847fc91686f5d9a194c593520e882d/71695",
	"intrun":       "sha256:8aa081ae2351486d4a4248ea0580b8da380d9a3a7f8b682585ecb62807e0fb68/378",
	"textwide":     "sha256:77e2da3a34d0125fa5095da94cace3a5a749edc1044c24237236262b46ead60e/1299",
	"decimal":      "sha256:92e3e45482f18069b5db004e81ddb14f9d04b552b1f096a860b02ddf50c6923f/493",
	"textdistinct": "6974656d2d3068c3a96c6c6f6974656d2d31307824",
}

const layoutTextPin = "-9223372036854775808|9223372036854775807|0||-1|-0.0|Inf|-Inf|||1.5||a|||héllo|true|false||true"
