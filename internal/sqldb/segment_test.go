package sqldb

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Tests for the compressed column segments (segment.go): per-encoding
// codec round-trips (including the adversarial int64 extremes the
// mod-2^64 delta arithmetic exists for), the seal/unseal lifecycle
// against DML, and the fuzz target that feeds both random column data
// through seal->decode and arbitrary bytes through decode alone.

// sealRoundTrip seals one column and decodes it back, asserting exact
// value equality (bit-exact for floats).
func sealRoundTrip(t *testing.T, vals []Value) {
	t.Helper()
	c := sealColumn(vals)
	dst := make([]Value, len(vals))
	if err := c.decode(len(vals), dst); err != nil {
		t.Fatalf("decode(enc=%d): %v", c.enc, err)
	}
	for i := range vals {
		if !segValuesEqual(vals[i], dst[i]) {
			t.Fatalf("enc=%d: value %d round-tripped %v -> %v", c.enc, i, vals[i], dst[i])
		}
	}
}

// segValuesEqual is kind-and-bits identity, so NaN and negative zero
// round-trips are checked exactly.
func segValuesEqual(a, b Value) bool { return a == b }

func TestSegmentCodecIntRoundTrip(t *testing.T) {
	cases := [][]Value{
		{Int(0)},
		{Int(1), Int(2), Int(3), Int(4)},
		// Extremes and wraparound-sized deltas: MaxInt64 -> MinInt64 is a
		// delta that only mod-2^64 arithmetic represents exactly.
		{Int(math.MaxInt64), Int(math.MinInt64), Int(0), Int(-1), Int(math.MaxInt64)},
		{Int(-5), Null, Int(7), Null, Null, Int(math.MinInt64)},
		{Null, Null, Null}, // all-NULL stays raw but must still round-trip
	}
	for i, vals := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) { sealRoundTrip(t, vals) })
	}
	if enc := sealColumn([]Value{Int(1), Int(2)}).enc; enc != segEncInt {
		t.Fatalf("all-int column sealed as enc=%d, want segEncInt", enc)
	}
	r := rand.New(rand.NewSource(11))
	vals := make([]Value, segBlockSlots)
	for i := range vals {
		switch r.Intn(10) {
		case 0:
			vals[i] = Null
		case 1:
			vals[i] = Int(r.Int63() - r.Int63())
		default:
			vals[i] = Int(int64(r.Intn(1000) - 500))
		}
	}
	sealRoundTrip(t, vals)
}

func TestSegmentCodecFloatRoundTrip(t *testing.T) {
	cases := [][]Value{
		{Float(0)},
		{Float(1.5), Float(1.5), Float(1.25), Float(-1.25)},
		{Float(0), Float(math.Copysign(0, -1)), Float(math.Inf(1)), Float(math.Inf(-1)), Float(math.NaN())},
		{Float(math.MaxFloat64), Float(math.SmallestNonzeroFloat64), Null, Float(-0.1)},
	}
	for i, vals := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) { sealRoundTrip(t, vals) })
	}
	if enc := sealColumn([]Value{Float(1), Float(2)}).enc; enc != segEncFloat {
		t.Fatalf("all-float column sealed as enc=%d, want segEncFloat", enc)
	}
	r := rand.New(rand.NewSource(12))
	vals := make([]Value, segBlockSlots)
	for i := range vals {
		if r.Intn(8) == 0 {
			vals[i] = Null
		} else {
			vals[i] = Float(r.NormFloat64() * math.Pow(10, float64(r.Intn(20)-10)))
		}
	}
	sealRoundTrip(t, vals)
}

func TestSegmentCodecTextRoundTrip(t *testing.T) {
	cases := [][]Value{
		{Text("")},
		{Text("a"), Text("a"), Text("b"), Text("a")}, // dictionary repeats
		{Text("héllo"), Text("wörld\x00raw"), Null, Text(""), Text("héllo")},
	}
	for i, vals := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) { sealRoundTrip(t, vals) })
	}
	if enc := sealColumn([]Value{Text("x"), Text("y")}).enc; enc != segEncText {
		t.Fatalf("all-text column sealed as enc=%d, want segEncText", enc)
	}
	words := []string{"ant", "bee", "cat", "", "a-much-longer-dictionary-entry"}
	r := rand.New(rand.NewSource(13))
	vals := make([]Value, segBlockSlots)
	for i := range vals {
		if r.Intn(9) == 0 {
			vals[i] = Null
		} else {
			vals[i] = Text(words[r.Intn(len(words))])
		}
	}
	sealRoundTrip(t, vals)
}

func TestSegmentCodecBoolAndRawRoundTrip(t *testing.T) {
	sealRoundTrip(t, []Value{Bool(true), Bool(false), Null, Bool(true), Bool(true)})
	if enc := sealColumn([]Value{Bool(true)}).enc; enc != segEncBool {
		t.Fatalf("all-bool column sealed as enc=%d, want segEncBool", enc)
	}
	// Mixed kinds force the raw fallback.
	mixed := []Value{Int(7), Text("x"), Float(2.5), Bool(false), Null, Int(-9)}
	if enc := sealColumn(mixed).enc; enc != segEncRaw {
		t.Fatalf("mixed column sealed as enc=%d, want segEncRaw", enc)
	}
	sealRoundTrip(t, mixed)
}

// TestSegmentDecodeCorruptionSafe feeds truncations of every encoding's
// valid stream through decode: each must return a typed error or decode
// cleanly, never panic — the same contract the fuzz target enforces.
func TestSegmentDecodeCorruptionSafe(t *testing.T) {
	cols := []segCol{
		sealColumn([]Value{Int(1), Int(math.MinInt64), Null}),
		sealColumn([]Value{Float(1.5), Float(-2.5), Null}),
		sealColumn([]Value{Text("abc"), Text("abc"), Text("d")}),
		sealColumn([]Value{Bool(true), Null, Bool(false)}),
		sealColumn([]Value{Int(1), Text("x"), Null}),
	}
	dst := make([]Value, 3)
	for _, c := range cols {
		for cut := 0; cut <= len(c.data); cut++ {
			trunc := segCol{enc: c.enc, kinds: c.kinds, data: c.data[:cut]}
			if err := trunc.decode(3, dst); err != nil && CodeOf(err) != ErrInternal {
				t.Fatalf("enc=%d cut=%d: error %v, want ErrInternal", c.enc, cut, err)
			}
		}
	}
	bad := segCol{enc: 99, data: make([]byte, 8)}
	if err := bad.decode(3, dst); CodeOf(err) != ErrInternal {
		t.Fatalf("unknown encoding error = %v, want ErrInternal", err)
	}
}

// sealedTestDB builds a database whose table holds enough committed rows
// for `blocks` full sealable blocks, then seals synchronously.
func sealedTestDB(t testing.TB, blocks int) *Database {
	t.Helper()
	// A few blocks sit far below the production size gate; lower it so
	// scans of this table take the batch pipeline and read the segments.
	lowerMorselMinRows(t, 1)
	db := NewDatabase()
	db.MustExec("CREATE TABLE s (id INTEGER, a INTEGER, f FLOAT, c TEXT, ok BOOL)")
	words := []string{"ant", "bee", "cat", "dge", "eel"}
	n := blocks * segBlockSlots
	for i := 0; i < n; i++ {
		db.MustExec("INSERT INTO s VALUES (?, ?, ?, ?, ?)",
			i, i%97, float64(i)/8, words[i%len(words)], i%3 == 0)
	}
	if sealed := db.Seal(); sealed != n {
		t.Fatalf("Seal() sealed %d rows, want %d", sealed, n)
	}
	return db
}

// TestSealUnsealDMLInterplay pins the hybrid-storage lifecycle: sealing
// covers cold full blocks, scans read sealed data identically, DML on a
// covered slot unseals exactly the covering segment before the change is
// visible, and a later Seal pass re-freezes the region.
func TestSealUnsealDMLInterplay(t *testing.T) {
	db := sealedTestDB(t, 2)
	if got := db.Stats().SegmentsSealed; got == 0 {
		t.Fatal("Stats().SegmentsSealed = 0 after Seal")
	}
	tbl := db.tableMap()["s"]
	if len(tbl.loadSegs()) == 0 {
		t.Fatal("no segments published after Seal")
	}

	before := db.Stats()
	rows := queryStrings(t, db, "SELECT COUNT(*), MIN(a), MAX(a) FROM s WHERE a < 50")
	if rows[0][1] != "0" || rows[0][2] != "49" {
		t.Fatalf("sealed aggregate = %v", rows[0])
	}
	after := db.Stats()
	if after.SegmentScans <= before.SegmentScans || after.DecodedBlocks <= before.DecodedBlocks {
		t.Fatalf("sealed scan did not bump segment counters: %+v -> %+v",
			before.SegmentScans, after.SegmentScans)
	}

	// DML into block 0 must unseal its covering segment; rows stay served
	// by the heap, so the update is immediately visible.
	db.MustExec("UPDATE s SET a = 1000 WHERE id = 10")
	rows = queryStrings(t, db, "SELECT a FROM s WHERE id = 10")
	if rows[0][0] != "1000" {
		t.Fatalf("post-unseal read = %q, want 1000", rows[0][0])
	}
	rows = queryStrings(t, db, "SELECT COUNT(*) FROM s WHERE a = 1000")
	if rows[0][0] != "1" {
		t.Fatalf("post-unseal count = %q, want 1", rows[0][0])
	}

	// DELETE on an unsealed region then re-seal: the deleted row's slot is
	// a tombstone until vacuum, so its block is not yet resealable, but
	// Seal must still cover every other cold block and total counts agree.
	db.MustExec("DELETE FROM s WHERE id = 20")
	db.Seal()
	rows = queryStrings(t, db, "SELECT COUNT(*) FROM s")
	if want := fmt.Sprint(2*segBlockSlots - 1); rows[0][0] != want {
		t.Fatalf("post-reseal count = %q, want %s", rows[0][0], want)
	}
}

// TestSealSkipsHotBlocks: a block with an uncommitted or multi-version
// slot must not seal; after vacuum clears the dead version it becomes
// sealable again.
func TestSealSkipsHotBlocks(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE h (id INTEGER, v INTEGER)")
	for i := 0; i < segBlockSlots; i++ {
		db.MustExec("INSERT INTO h VALUES (?, ?)", i, i)
	}
	// A second version on one slot blocks sealing of its block.
	db.MustExec("UPDATE h SET v = -1 WHERE id = 5")
	if sealed := db.Seal(); sealed != 0 {
		t.Fatalf("Seal() sealed %d rows despite a version chain, want 0", sealed)
	}
	db.Vacuum()
	if sealed := db.Seal(); sealed != segBlockSlots {
		t.Fatalf("Seal() after vacuum sealed %d rows, want %d", sealed, segBlockSlots)
	}
}

// TestSealedSnapshotIsolation: a snapshot opened before DML keeps reading
// the pre-DML state even though the DML unsealed the segment mid-scan.
func TestSealedSnapshotIsolation(t *testing.T) {
	db := sealedTestDB(t, 1)
	rows, err := db.QueryRows(context.Background(), "SELECT id, a FROM s WHERE id < 3")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got [][]string
	first := true
	for rows.Next() {
		r := rows.Row()
		got = append(got, []string{r[0].AsText(), r[1].AsText()})
		if first {
			first = false
			// Unseals the covering segment under the open cursor.
			db.MustExec("UPDATE s SET a = 999 WHERE id = 2")
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2][1] == "999" {
		t.Fatalf("snapshot read saw post-DML state: %v", got)
	}
	if q := queryStrings(t, db, "SELECT a FROM s WHERE id = 2"); q[0][0] != "999" {
		t.Fatalf("fresh read = %q, want 999", q[0][0])
	}
}

// FuzzSegmentCodec drives the segment codecs from two directions: random
// column data must round-trip seal->decode bit-exactly, and arbitrary
// bytes fed straight into every decoder must fail with a typed error or
// succeed — never panic, never over-read.
func FuzzSegmentCodec(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 255}, uint8(0), uint8(4))
	f.Add([]byte("hello world dictionary"), uint8(3), uint8(8))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x01}, uint8(1), uint8(16))
	f.Add([]byte{0xFF, 0x00, 0x42}, uint8(2), uint8(3))
	f.Add([]byte{}, uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, enc uint8, nrows uint8) {
		n := int(nrows)%segBlockSlots + 1

		// Direction 1: arbitrary bytes through every decoder.
		dst := make([]Value, n)
		for e := byte(0); e <= segEncBool+1; e++ {
			c := segCol{enc: e, kinds: kmInt | kmNull, data: data}
			if err := c.decode(n, dst); err != nil && CodeOf(err) != ErrInternal {
				t.Fatalf("enc=%d: decode error %v, want ErrInternal or nil", e, err)
			}
		}

		// Direction 2: derive a column from the fuzz bytes deterministically
		// and round-trip it. enc biases the kind mix so single-kind
		// encodings and the raw fallback all get coverage.
		vals := make([]Value, n)
		for i := range vals {
			var b byte
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			sel := int(enc)%6 + 1
			switch (int(b) + i) % 8 % sel {
			case 1:
				vals[i] = Float(math.Float64frombits(uint64(b)<<56 | uint64(i)))
			case 2:
				end := i % (len(data) + 1)
				vals[i] = Text(string(data[:end]))
			case 3:
				vals[i] = Bool(b&1 == 1)
			case 4:
				vals[i] = Null
			case 5:
				vals[i] = Int(math.MinInt64 + int64(b))
			default:
				vals[i] = Int(int64(b)*2654435761 - int64(i)<<40)
			}
		}
		c := sealColumn(vals)
		got := make([]Value, n)
		if err := c.decode(n, got); err != nil {
			t.Fatalf("round-trip decode failed (enc=%d): %v", c.enc, err)
		}
		for i := range vals {
			if !segValuesEqual(vals[i], got[i]) {
				t.Fatalf("enc=%d: value %d round-tripped %v -> %v", c.enc, i, vals[i], got[i])
			}
		}
	})
}
