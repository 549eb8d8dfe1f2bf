package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Tests for the compressed column blocks (segment.go): per-encoding codec
// round-trips, whole and by random access (including the adversarial int64
// extremes the mod-2^64 delta arithmetic exists for), the seal / rehydrate
// lifecycle against DML, and the fuzz target that feeds both random column
// data through seal->decode and arbitrary bytes through both decoders.

// sealRoundTrip seals one column and decodes it back, whole and value by
// value, asserting exact value equality (bit-exact for floats).
func sealRoundTrip(t *testing.T, vals []Value) {
	t.Helper()
	if err := roundTrips(sealColumn(vals), vals); err != nil {
		t.Fatal(err)
	}
}

// roundTrips reports the first value c does not give back as vals holds it,
// through decode or through valueAt — from the restart point, and walking
// up and down with a seek position.
func roundTrips(c segCol, vals []Value) error {
	dst := make([]Value, len(vals))
	if err := c.decode(len(vals), dst); err != nil {
		return fmt.Errorf("decode(enc=%d): %v", c.enc, err)
	}
	var up, down segPos
	for i := range vals {
		d := len(vals) - 1 - i
		v, err := c.valueAt(i, len(vals), nil)
		vu, erru := c.valueAt(i, len(vals), &up)
		vd, errd := c.valueAt(d, len(vals), &down)
		if err = errors.Join(err, erru, errd); err != nil || !identical(vals[i], dst[i]) ||
			!identical(vals[i], v) || !identical(vals[i], vu) || !identical(vals[d], vd) {
			return fmt.Errorf("enc=%d: value %d round-tripped %v -> %v, at random %v, walking up %v (%v)",
				c.enc, i, vals[i], dst[i], v, vu, err)
		}
	}
	return nil
}

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
	// A decimal block is its scaled integers at the least exp that holds
	// every value; one value that is no decimal — -0, ±Inf, seven places,
	// or 2^52 at its scale — makes the whole block raw.
	for _, c := range []struct {
		vals []Value
		enc  byte
		exp  byte
	}{
		{[]Value{Float(1), Float(2)}, segEncFloat, 0},
		{[]Value{Float(12.5), Null, Float(-0.25), Float(3)}, segEncFloat, 2},
		{[]Value{Float(37.42199), Float(-122.08426)}, segEncFloat, 5},
		{[]Value{Float(0.000001), Float(1 << 30)}, segEncFloat, 6},
		{[]Value{Float(0.000001), Float(1 << 40)}, segEncRaw, 0},
		{[]Value{Float(1<<52 - 1), Float(-(1<<52 - 1))}, segEncFloat, 0},
		{[]Value{Float(0.1), Float(1 << 52)}, segEncRaw, 0},
		// The scale is the whole block's: a value that fits at a low one
		// must fit at the one a later value raises it to.
		{[]Value{Float(1e13), Float(0.000001)}, segEncRaw, 0},
		{[]Value{Float(1<<51 + 1), Float(0.5)}, segEncRaw, 0},
		{[]Value{Float(1e9), Float(-0.000001)}, segEncFloat, 6},
		{[]Value{Float(0.5), Float(math.Copysign(0, -1))}, segEncRaw, 0},
		{[]Value{Float(1.25), Float(math.Inf(1))}, segEncRaw, 0},
		{[]Value{Float(0.1234567)}, segEncRaw, 0},
		{[]Value{Float(2.5), Float(1.0 / 3)}, segEncRaw, 0},
	} {
		col := sealColumn(c.vals)
		if col.enc != c.enc || col.exp != c.exp {
			t.Errorf("%v sealed as enc=%d exp=%d, want enc=%d exp=%d", c.vals, col.enc, col.exp, c.enc, c.exp)
		}
		if err := roundTrips(col, c.vals); err != nil {
			t.Error(err)
		}
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
// valid stream, with and without its rank and offset tables, through both
// decoders: each must return ErrCorrupt or decode cleanly, never panic — the
// same contract the fuzz target enforces. A truncation that drops a value is
// never clean.
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
		for cut := 0; cut < len(c.data); cut++ {
			for _, trunc := range []segCol{{enc: c.enc, kinds: c.kinds, data: c.data[:cut]}, c} {
				trunc.data = c.data[:cut]
				if err := trunc.decode(3, dst); CodeOf(err) != ErrCorrupt {
					t.Fatalf("enc=%d cut=%d: decode error %v, want ErrCorrupt", c.enc, cut, err)
				}
				for i := 0; i < 3; i++ {
					if _, err := trunc.valueAt(i, 3, nil); err != nil && CodeOf(err) != ErrCorrupt {
						t.Fatalf("enc=%d cut=%d: valueAt(%d) error %v, want ErrCorrupt", c.enc, cut, i, err)
					}
				}
			}
		}
	}
	bad := segCol{enc: 99, data: make([]byte, 8)}
	if err := bad.decode(3, dst); CodeOf(err) != ErrCorrupt {
		t.Fatalf("unknown encoding error = %v, want ErrCorrupt", err)
	}
}

// sealedTestDB builds a database whose table holds enough committed rows
// for `blocks` full sealable blocks, then seals synchronously.
func sealedTestDB(t testing.TB, blocks int) *Database {
	t.Helper()
	// A few blocks sit far below the pool's size gate; lower it so a pooled
	// database's scans of this table take the pool too.
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

// latestRowOf is the tests' own read of slot id's latest committed row, a
// sealed one decoded off its block: no visibility fault reaches it.
func latestRowOf(t *Table, id int) Row {
	head, blk := t.resolve(t.run(id/segBlockSlots), id)
	if blk == nil {
		return latestRow(head)
	}
	r := make(Row, len(t.Columns))
	if err := blk.row(id, r, nil); err != nil {
		panic(err)
	}
	return r
}

// sealedBlocks counts the table's published blocks.
func sealedBlocks(t *Table) int {
	n := 0
	for _, blk := range t.blocks() {
		if blk != nil {
			n++
		}
	}
	return n
}

// rehydrations counts the blocks DML turned back into heap versions: every
// block sealed that is no longer published.
func rehydrations(db *Database) int {
	n := int(db.Stats().SegmentsSealed)
	for _, t := range db.tableMap() {
		n -= sealedBlocks(t)
	}
	return n
}

// TestSealUnsealDMLInterplay pins the hybrid-storage lifecycle: sealing
// covers cold full blocks and drops their runs, scans read sealed
// data identically, DML on a covered slot rehydrates exactly the covering
// block before the change is visible, and a later Seal pass re-freezes the
// region.
func TestSealUnsealDMLInterplay(t *testing.T) {
	db := sealedTestDB(t, 2)
	if got := db.Stats().SegmentsSealed; got != 2 {
		t.Fatalf("Stats().SegmentsSealed = %d after Seal, want 2 blocks", got)
	}
	tbl := db.tableMap()["s"]
	if sealedBlocks(tbl) != 2 || tbl.run(0) != nil || tbl.run(1) != nil {
		t.Fatal("Seal did not publish both blocks and drop their runs")
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

	// DML into block 0 must rehydrate that block and no other; its rows are
	// served by the heap again, so the update is immediately visible.
	db.MustExec("UPDATE s SET a = 1000 WHERE id = 10")
	if sealedBlocks(tbl) != 1 || tbl.block(1) == nil || rehydrations(db) != 1 || tbl.run(0) == nil || tbl.run(1) != nil {
		t.Fatal("the UPDATE did not rehydrate exactly block 0")
	}
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

// TestVacuumPassesSealedMorsels: a vacuum walks the heap's runs only — over
// a fully sealed table it visits no slot and reclaims nothing, and after one
// UPDATE it walks exactly the rehydrated morsel's run and reclaims the
// superseded version.
func TestVacuumPassesSealedMorsels(t *testing.T) {
	db := sealedTestDB(t, 2)
	tbl := db.tableMap()["s"]
	vacuum := func() (int, int) {
		db.writeMu.Lock()
		defer db.writeMu.Unlock()
		return tbl.vacuum(db.tm.horizon())
	}
	if reclaimed, visited := vacuum(); reclaimed != 0 || visited != 0 {
		t.Fatalf("vacuum over a sealed table reclaimed %d, visited %d slots: want 0, 0", reclaimed, visited)
	}
	db.MustExec("UPDATE s SET a = a + 1 WHERE id = ?", segBlockSlots+5)
	if reclaimed, visited := vacuum(); reclaimed != 1 || visited != segBlockSlots {
		t.Fatalf("vacuum after one UPDATE reclaimed %d, visited %d slots: want 1, %d", reclaimed, visited, segBlockSlots)
	}
}

// TestSealSkipsHotBlocks: a block with an uncommitted or multi-version
// slot must not seal; after vacuum clears the dead version it becomes
// sealable again — to the background sealer once a pass has gone by with
// no write to it.
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
	// A background pass leaves a block written since the previous pass in
	// the heap — a hot block is not rehydrated after every pass — and takes
	// it once a pass has gone by without a write.
	db.MustExec("UPDATE h SET v = -2 WHERE id = 7")
	db.Vacuum()
	if sealed := db.seal(true); sealed != 0 {
		t.Fatalf("a background pass sealed %d rows of a block written since the last, want 0", sealed)
	}
	if sealed := db.seal(true); sealed != segBlockSlots {
		t.Fatalf("the next background pass sealed %d rows, want %d", sealed, segBlockSlots)
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
// column data must round-trip seal->decode bit-exactly, whole and value by
// value, and arbitrary bytes fed straight into every decoder must fail with
// ErrCorrupt or succeed — never panic, never over-read.
func FuzzSegmentCodec(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 250, 255}, uint8(0), uint8(4))
	f.Add([]byte("hello world dictionary"), uint8(3), uint8(8))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x01}, uint8(1), uint8(16))
	f.Add([]byte{0xFF, 0x00, 0x42}, uint8(2), uint8(3))
	f.Add([]byte{}, uint8(4), uint8(0))
	f.Add([]byte{2, 17, 33, 50, 3, 0, 1, 200, 99}, uint8(0x80), uint8(150))
	f.Add([]byte{4, 5, 9, 0x7f, 40}, uint8(0xc1), uint8(70))
	// A rank table one short makes the text column codeless to valueAt only.
	f.Add([]byte(strings.Repeat("0", 82)), uint8(0x80), uint8(93))
	f.Fuzz(func(t *testing.T, data []byte, enc uint8, nrows uint8) {
		n := int(nrows)%segBlockSlots + 1

		// Direction 1: arbitrary bytes through every decoder, a float
		// column's scale drawn from enc — past segPow10 as often as not.
		dst := make([]Value, n)
		for e := byte(0); e <= segEncBool+1; e++ {
			c := segCol{enc: e, exp: enc >> 4, kinds: kmInt | kmNull, data: data}
			if err := c.decode(n, dst); err != nil && CodeOf(err) != ErrCorrupt {
				t.Fatalf("enc=%d: decode error %v, want ErrCorrupt or nil", e, err)
			}
			for i := 0; i < n; i++ {
				if _, err := c.valueAt(i, n, nil); err != nil && CodeOf(err) != ErrCorrupt {
					t.Fatalf("enc=%d: valueAt(%d) error %v, want ErrCorrupt or nil", e, i, err)
				}
			}
		}

		// A text column whose rank table is the bitmap's own but for its
		// last entry, and whose dictionary has about as many entries as
		// either count of the non-null values says: where a count makes the
		// column codeless, its reader must fail or agree with the other.
		if bmLen := (n + 7) / 8; len(data) >= bmLen {
			rank, nn := []uint16{0}, 0
			for i := 0; i < n; i++ {
				nn += int(data[i/8]>>(i%8)&1 ^ 1)
				if i%64 == 63 || i == n-1 {
					rank = append(rank, uint16(nn))
				}
			}
			rank[len(rank)-1] += uint16(int(enc&3) - 1)
			entries := max(nn+int(enc>>2&3)-1, 0)
			c, dict := segCol{enc: segEncText, kinds: kmText | kmNull, data: data, rank: rank}, []byte{}
			for k := range entries {
				c.offs, dict = append(c.offs, uint32(len(dict))), append(dict, byte(k), byte(k>>8))
			}
			c.offs, c.dict = append(c.offs, uint32(len(dict))), string(dict)
			derr := c.decode(n, dst)
			for i := 0; i < n; i++ {
				v, err := c.valueAt(i, n, nil)
				if err != nil && CodeOf(err) != ErrCorrupt || err == nil && derr == nil && !identical(v, dst[i]) {
					t.Fatalf("text valueAt(%d) = %v, %v; decode gave %v, %v", i, v, err, dst[i], derr)
				}
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
		// With the top bit of enc set, the column is decimal floats m/10^e
		// (e drawn per value, up to one place too many) and NULLs, with a -0
		// or an |m| near 2^52 now and then: at a scale another value raises
		// it to, such an m no longer fits, and the block is raw.
		for i := range vals {
			if enc < 0x80 || len(data) == 0 {
				break
			}
			b := data[i%len(data)]
			e := int(b>>4) % (len(segPow10) + 1)
			switch m := int64(b)*7919 - int64(i)*31; b % 16 {
			case 0:
				vals[i] = Null
			case 1:
				vals[i] = Float(float64(1<<52-int64(b)) / math.Pow10(e))
			case 2:
				vals[i] = Float(float64(-(1<<52)+int64(i)) / math.Pow10(e))
			case 3:
				vals[i] = Float(math.Copysign(0, -1))
			default:
				vals[i] = Float(float64(m) / math.Pow10(e))
			}
		}
		if err := roundTrips(sealColumn(vals), vals); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSealedBytesPerRow seals 16,384 rows of the items table analytics_scan
// reads and weighs each block's buffers by capacity: a REAL column of cents
// is its scaled integers (9.3 B a row while it was an XOR stream), the
// all-distinct name column writes no codes, and no buffer keeps append's
// slack — 32.8 B a row in all before these, 20.2 after.
func TestSealedBytesPerRow(t *testing.T) {
	const n = 16 * segBlockSlots
	db := benchDB(t, n)
	db.vacWG.Wait()
	db.Seal()
	tbl := db.tableMap()["items"]
	if got := sealedBlocks(tbl); got != n/segBlockSlots {
		t.Fatalf("%d items blocks sealed, want %d", got, n/segBlockSlots)
	}
	per := make([]float64, len(tbl.Columns))
	total := 0.0
	for _, blk := range tbl.blocks() {
		for c, col := range blk.cols {
			b := float64(cap(col.data) + len(col.dict) + 4*cap(col.offs) + 2*cap(col.rank))
			per[c], total = per[c]+b/n, total+b/n
		}
	}
	for c, b := range per {
		t.Logf("%-7s %5.2f B a row", tbl.Columns[c].Name, b)
	}
	t.Logf("total   %5.2f B a row", total)
	if price := per[tbl.ColumnIndex("price")]; total > 24 || price > 2.5 {
		t.Errorf("sealed items take %.2f B a row (price %.2f): want at most 24 (price 2.5)", total, price)
	}
}

// TestSealedReadsAllocateNothingPerRow: a read that reaches sealed rows by
// id — a point read, the index-nested-loop probe of a join, an index range
// fetch — allocates per statement, never per row it decodes: a point read
// no more than over heap rows, the 8,192-probe join and the 1,000-row fetch
// a handful more, and a TEXT block decodes with no string per dictionary
// entry.
func TestSealedReadsAllocateNothingPerRow(t *testing.T) {
	const n = 8 * segBlockSlots
	heap, sealed := benchDB(t, n, WithMaxWorkers(1)), benchDB(t, n, WithMaxWorkers(1))
	unsealAll(heap)
	sealed.vacWG.Wait()
	sealed.Seal()
	if got := sealedBlocks(sealed.tableMap()["items"]); got != n/segBlockSlots || sealedBlocks(heap.tableMap()["items"]) != 0 {
		t.Fatalf("%d items blocks sealed, want %d (and none on the heap side)", got, n/segBlockSlots)
	}
	allocs := func(db *Database, q string, args []any) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := db.Query(q, args...); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct {
		q     string
		args  []any
		slack float64 // allocations a sealed read may add, whatever the rows
	}{
		{"SELECT name, price FROM items WHERE id = ?", []any{4321}, 0},
		{"SELECT cats.label, SUM(items.qty) AS s FROM items JOIN cats ON items.cat_id = cats.id GROUP BY cats.label ORDER BY s DESC, cats.label LIMIT 10", nil, 4},
		{"SELECT id, name, price FROM items WHERE id BETWEEN ? AND ?", []any{2000, 2999}, 4},
	} {
		if lines, err := sealed.Explain(c.q, c.args...); err != nil {
			t.Fatal(err)
		} else if plan := strings.Join(lines, "\n"); strings.Contains(c.q, "JOIN") && !strings.Contains(plan, "index nested loop join") {
			t.Fatalf("%q does not probe an index:\n%s", c.q, plan)
		}
		h, s := allocs(heap, c.q, c.args), allocs(sealed, c.q, c.args)
		t.Logf("%.0f allocations over heap rows, %.0f over sealed ones: %s", h, s, c.q)
		if s > h+c.slack {
			t.Errorf("%q: %.0f allocations over sealed rows, %.0f over heap rows: more than %.0f added", c.q, s, h, c.slack)
		}
	}
	vals := make([]Value, segBlockSlots)
	for i := range vals {
		vals[i] = Text(fmt.Sprintf("entry-%d", i))
	}
	col, dst := sealColumn(vals), make([]Value, segBlockSlots)
	if a := testing.AllocsPerRun(20, func() { _ = col.decode(segBlockSlots, dst) }); a != 0 {
		t.Errorf("a TEXT block of %d entries decodes with %.0f allocations, want 0", segBlockSlots, a)
	}
}

// scribble overwrites every byte of table name's first sealed block with
// 0xFF: a block damaged in memory, the only copy of its rows.
func scribble(db *Database, name string) {
	for _, c := range db.tableMap()[name].block(0).cols {
		for i := range c.data {
			c.data[i] = 0xFF
		}
	}
}

// TestCorruptBlockIsAnError: once the block is the only copy of its rows,
// bytes that do not decode fail the statement with ErrCorrupt on every path
// that reads a sealed row — the whole-block decode of a scan that folds and
// of one that emits table rows, random access by an index probe, rehydration
// for DML, the dump — and never read as NULLs or as no rows.
func TestCorruptBlockIsAnError(t *testing.T) {
	db := sealedTestDB(t, 2)
	db.MustExec("CREATE INDEX idx_s_id ON s (id)")
	scribble(db, "s")
	for _, q := range []string{
		"SELECT COUNT(*), SUM(a) FROM s",
		"SELECT id, a FROM s ORDER BY a",
		"SELECT a FROM s WHERE id = 5",
		"SELECT a FROM s WHERE id BETWEEN 1 AND 9",
	} {
		if _, err := db.Query(q); CodeOf(err) != ErrCorrupt || SQLStateFor(err) != "XX001" {
			t.Errorf("%q: error %v, want ErrCorrupt (XX001)", q, err)
		}
	}
	if _, err := db.Exec("UPDATE s SET a = 1 WHERE id = 5"); CodeOf(err) != ErrCorrupt {
		t.Errorf("UPDATE of a corrupt row: error %v, want ErrCorrupt", err)
	}
	tbl := db.tableMap()["s"]
	db.writeMu.Lock()
	err := tbl.rehydrate(0)
	db.writeMu.Unlock()
	if CodeOf(err) != ErrCorrupt || tbl.block(0) == nil {
		t.Errorf("rehydrating a corrupt block: error %v, block still published %v; want ErrCorrupt and the block kept", err, tbl.block(0) != nil)
	}
	if err := db.Dump(&strings.Builder{}); CodeOf(err) != ErrCorrupt {
		t.Errorf("Dump over a corrupt block: error %v, want ErrCorrupt", err)
	}
	// The healthy block still answers.
	if got := queryStrings(t, db, "SELECT a FROM s WHERE id = 1500"); len(got) != 1 || got[0][0] != fmt.Sprint(1500%97) {
		t.Errorf("a read of the healthy block = %v, want [[%d]]", got, 1500%97)
	}
}
