package sqldb

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
)

// This file implements the cold half of the hybrid storage layout:
// immutable compressed column blocks sealed off the MVCC row heap, each the
// only copy of its rows.
//
// A background sealer freezes *cold* blocks — segBlockSlots consecutive
// slots, each empty or holding one committed version visible to every
// current and future snapshot — into column-major blocks compressed per
// column (zigzag-delta varints for ints and for a decimal float's scaled
// integers, a dictionary for strings, a bitmap for bools, a raw fallback for
// mixed kinds and other floats), each buffer allocated once at its final
// size. Sealing publishes the block in Table.segs at its morsel number,
// then a directory (Table.slots) whose entry for that morsel is nil rather
// than a run of heads: the run and its heap versions become garbage, and a
// sealed row costs the table nothing beyond its share of the block.
//
// Any value of a block is read without decoding the rest (valueAt): the null
// bitmap is ranked a 64-row word at a time, the delta and raw streams
// restart every segRestart values, dictionary codes have a fixed width — or
// none, when every value is its own entry.
// Large scans (source.go) decode a block at a time; every other reader
// starts at resolve: the run's head or — if the run is nil — the current
// block.
//
// DML on a sealed slot rehydrates that block (writeMu held): it decodes the
// block into one slab of versions and one of values, installs them as the
// heads of a new run visible to every snapshot, publishes the directory
// holding the run, and only then unpublishes the block, before the change
// publishes. A reader whose nil run lost its block therefore finds the run
// when it reads the directory again — and a block is not sealed anew while
// a snapshot older than its rehydration lives (touched), so that run is
// never dropped again under it. A reader still holding a run sealing
// dropped reads the versions it held, which every snapshot sees. The
// background sealer also leaves alone a block DML wrote since its previous
// pass: a hot block stays in the heap rather than being rehydrated after
// every pass. Slot ids are never reused and appends land past the sealed
// range, so a published block stays what every snapshot sees until it is
// unpublished.

// segBlockSlots is the number of heap slots one sealed block spans. It
// equals morselSize so a morsel is always either fully sealed or fully
// heap-resident.
const segBlockSlots = morselSize

// sealThreshold is the number of newly inserted rows that wakes the
// background sealer.
const sealThreshold = 4 * segBlockSlots

// segRestart is how many non-null values of a stream (int, float, raw
// column) lie between restart points: reading one decodes at most this many.
const segRestart = 64

// Column encodings. Chosen per (block, column) by the kinds present.
const (
	segEncRaw   byte = iota // mixed kinds, or floats not all decimal: appendWalValue stream
	segEncInt               // all-int: zigzag delta varints
	segEncFloat             // all-float, each m/10^exp: segEncInt's stream of the m's
	segEncText              // all-text: dictionary + fixed-width codes, none if all distinct
	segEncBool              // all-bool: bitmap
)

// segPow10 holds the scales a decimal float column may take: 10^exp, exact.
var segPow10 = [...]float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}

// Kind masks, shared with the vector engine (vector.go).
const (
	kmNull  = 1 << uint16(KindNull)
	kmBool  = 1 << uint16(KindBool)
	kmInt   = 1 << uint16(KindInt)
	kmFloat = 1 << uint16(KindFloat)
	kmText  = 1 << uint16(KindText)
)

// segCol is one compressed column of one block.
type segCol struct {
	enc   byte
	exp   byte     // a segEncFloat column's scale: a value is its stream's integer / 10^exp
	kinds uint16   // mask of kinds present (incl. kmNull), for kernel dispatch
	data  []byte   // null bitmap over the rows, then the non-null values (a text column's codes)
	dict  string   // a text column's entries back to back: a value is a substring
	rank  []uint16 // non-null values before each 64-row bitmap word, and in all; nil: no NULL
	offs  []uint32 // a stream's restart points in data; the bounds of each dict entry
}

// segBlock holds segBlockSlots consecutive heap slots' rows in slot order.
// Empty slots contribute nothing (exactly like the heap scan, which passes
// them silently), and sealability guarantees zero tombstones.
type segBlock struct {
	nrows int
	cols  []segCol
	holes *[segBlockSlots / 64]uint64 // the slots that hold no row; nil when none
}

// pos returns where slot id's row sits among the block's rows.
func (b *segBlock) pos(id int) int {
	i := id % segBlockSlots
	if b.holes == nil {
		return i
	}
	p := i - bits.OnesCount64(b.holes[i/64]&(1<<(i%64)-1))
	for _, w := range b.holes[:i/64] {
		p -= bits.OnesCount64(w)
	}
	return p
}

// value returns column col of slot id's row.
func (b *segBlock) value(id, col int, s *blockSeek) (Value, error) {
	return b.cols[col].valueAt(b.pos(id), b.nrows, s.at(b, col))
}

// row decodes slot id's row into dst.
func (b *segBlock) row(id int, dst Row, s *blockSeek) (err error) {
	for c := range b.cols {
		if dst[c], err = b.value(id, c, s); err != nil {
			return err
		}
	}
	return nil
}

// blockSeek is where a reader walking a block's rows in ascending order
// stands in each column, so that a value after the last one read in the
// same restart group decodes from there, not from the restart point. The
// zero value stands nowhere; a nil one always restarts.
type blockSeek struct {
	blk *segBlock
	pos []segPos
}

// segPos is where value j of a stream column ends in data, and its bits (a
// decimal float's: its scaled integer).
type segPos struct {
	j, off int
	prev   uint64
}

// at returns column c's position in blk, starting afresh in a new block.
func (s *blockSeek) at(blk *segBlock, c int) *segPos {
	if s == nil {
		return nil
	}
	if s.blk != blk {
		s.blk, s.pos = blk, slices.Grow(s.pos[:0], len(blk.cols))[:len(blk.cols)]
		clear(s.pos)
	}
	return &s.pos[c]
}

func errCorrupt(what string) error {
	return errf(ErrCorrupt, "sql: sealed block corrupt: %s", what)
}

// blocks returns the table's sealed blocks by morsel (nil: in the heap).
func (t *Table) blocks() []*segBlock {
	if p := t.segs.Load(); p != nil {
		return *p
	}
	return nil
}

// block returns the published block of morsel m, or nil.
func (t *Table) block(m int) *segBlock {
	if segs := t.blocks(); m < len(segs) {
		return segs[m]
	}
	return nil
}

// hole reports whether slot id holds no row of the block.
func (b *segBlock) hole(id int) bool {
	i := id % segBlockSlots
	return b.holes != nil && b.holes[i/64]&(1<<(i%64)) != 0
}

// resolve is where every reader of a slot starts, with the run of slot id's
// morsel it read: the head or, when the run is nil, the block holding the
// row. A nil run whose block is gone was rehydrated after it was read, so
// the run read again is real; a slot no reader can place — or a hole in
// its block — resolves to no version at all.
func (t *Table) resolve(run *slotRun, id int) (*rowVersion, *segBlock) {
	if run == nil {
		m := id / segBlockSlots
		if blk := t.block(m); blk != nil {
			if blk.hole(id) {
				return nil, nil
			}
			return nil, blk
		}
		if run = t.run(m); run == nil {
			return nil, nil
		}
	}
	return run[id%segBlockSlots].Load(), nil
}

// ---------------------------------------------------------------------------
// Sealing and rehydration

// maybeSeal wakes the background sealer when enough rows have been
// inserted since the last pass. Single-flight, like maybeVacuum.
func (db *Database) maybeSeal() {
	if db.sealDebt.Load() >= sealThreshold {
		db.spawn(&db.sealing, func(db *Database) { db.seal(true) })
	}
}

// Seal synchronously freezes every currently cold full block into a
// compressed column block and returns how many rows were newly sealed.
// The background sealer runs the same pass; this entry point exists for
// tests, benchmarks, and embedders that want deterministic sealing.
func (db *Database) Seal() int {
	return db.seal(false)
}

// seal runs one sealing pass over every table under the single-writer
// latch (writers pause; lock-free readers do not), each table's blocks
// encoded on the worker pool; a background pass skips the blocks written
// since the previous one.
func (db *Database) seal(background bool) int {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.sealDebt.Store(0)
	h := db.tm.horizon()
	since := h
	if background {
		since, db.sealH = min(h, db.sealH), h
	}
	rows, nblk := 0, 0
	for _, t := range db.tableMap() {
		r, b := t.seal(h, since, db.maxWorkers)
		rows, nblk = rows+r, nblk+b
	}
	db.stats.add(func(s *Stats) { s.SegmentsSealed += uint64(nblk) })
	return rows
}

// seal freezes this table's cold full blocks — none written at or after
// since — publishing the new blocks first and then a directory without
// their runs. Only full blocks are sealed: appends land past n, so a full
// block's slot population is final. Up to workers workers claim the blocks
// and encode them (fork, parallel.go). Returns (rows sealed, blocks sealed).
func (t *Table) seal(h, since uint64, workers int) (int, int) {
	dir, n := t.loadSlots()
	segs := make([]*segBlock, n/segBlockSlots)
	copy(segs, t.blocks())
	var cold []int
	for m := range segs {
		if dir[m] != nil && (m >= len(t.touched) || t.touched[m] == 0 || t.touched[m] < since) {
			cold = append(cold, m)
		}
	}
	var claim atomic.Int64
	fork(min(workers, len(cold)), func(int) {
		for i := int(claim.Add(1)) - 1; i < len(cold); i = int(claim.Add(1)) - 1 {
			segs[cold[i]] = sealBlock(dir[cold[i]], len(t.Columns), h)
		}
	})
	next := slices.Clone(dir)
	rows, nblk := 0, 0
	for _, m := range cold {
		if segs[m] != nil {
			rows, nblk, next[m] = rows+segs[m].nrows, nblk+1, nil
		}
	}
	if nblk == 0 {
		return 0, 0
	}
	t.segs.Store(&segs)
	t.slots.Store(&next)
	return rows, nblk
}

// sealBlock encodes the rows of a run, or returns nil when one holds a
// version that is not committed below the horizon, alone and undeleted.
func sealBlock(run *slotRun, width int, h uint64) *segBlock {
	rows := make([]Row, 0, segBlockSlots)
	var holes [segBlockSlots / 64]uint64
	for i := range run {
		head := run[i].Load()
		if head == nil {
			holes[i/64] |= 1 << (i % 64) // permanently empty slot
			continue
		}
		if head.next.Load() != nil || head.xmax.Load() != 0 || head.xmin >= h || head.row == nil {
			return nil
		}
		rows = append(rows, head.row)
	}
	blk := &segBlock{nrows: len(rows), cols: make([]segCol, width)}
	if len(rows) < segBlockSlots {
		blk.holes = &holes
	}
	vals := make([]Value, len(rows))
	for c := 0; c < width; c++ {
		for i, r := range rows {
			vals[i] = r[c]
		}
		blk.cols[c] = sealColumn(vals)
	}
	return blk
}

// thaw returns slot id's head for a change (writeMu held): the slot's block
// is stamped written by tx and, when it is sealed, rehydrated first — under
// a transaction id of its own, which every earlier snapshot precedes.
func (t *Table) thaw(id int, tx *Txn) (*rowVersion, error) {
	m := id / segBlockSlots
	if len(t.touched) <= m {
		t.touched = append(t.touched, make([]uint64, m+1-len(t.touched))...)
	}
	if t.touched[m] = max(t.touched[m], tx.xid); t.run(m) == nil {
		t.touched[m] = tx.db.tm.begin()
		tx.db.tm.finish(t.touched[m])
		if err := t.rehydrate(m); err != nil {
			return nil, err
		}
	}
	return t.head(id), nil
}

// rehydrate turns block m back into heap versions (writeMu held): one slab
// of versions, visible to every snapshot, and one of values (TEXT values
// stay substrings of the dictionary) become the heads of a new run, the
// directory holding it is published, and only then is the block
// unpublished.
func (t *Table) rehydrate(m int) error {
	blk, w, base := t.block(m), len(t.Columns), m*segBlockSlots
	b := getBatch(w)
	defer putBatch(b)
	if err := b.fillSealed(blk, base, nil, false); err != nil {
		return err
	}
	vals, vers, run := make([]Value, blk.nrows*w), make([]rowVersion, blk.nrows), new(slotRun)
	for j := range vers {
		vers[j].row = vals[j*w : (j+1)*w : (j+1)*w]
		for c := range vers[j].row {
			vers[j].row[c] = b.cols[c].vals[j]
		}
		run[b.ids[j]-base].Store(&vers[j])
	}
	dir := slices.Clone(t.dir())
	dir[m] = run
	t.slots.Store(&dir)
	segs := slices.Clone(t.blocks())
	segs[m] = nil
	t.segs.Store(&segs)
	return nil
}

// ---------------------------------------------------------------------------
// Encoding

// sealColumn picks the tightest encoding the column's kinds allow and
// encodes: null bitmap first, then the non-null values — with the rank and
// offset tables that make each one addressable. Every buffer is sized before
// it is written, so each is allocated once, at its final length.
func sealColumn(vals []Value) segCol {
	n, nn, c := len(vals), 0, segCol{enc: segEncRaw}
	for _, v := range vals {
		c.kinds |= 1 << uint16(v.Kind())
		if !v.IsNull() {
			nn++
		}
	}
	switch c.kinds &^ kmNull {
	case kmInt:
		c.enc = segEncInt
	case kmFloat:
		if exp := decimalScale(vals); int(exp) < len(segPow10) {
			c.enc, c.exp = segEncFloat, exp
		}
	case kmText:
		c.enc = segEncText
	case kmBool:
		c.enc = segEncBool
	}
	bmLen, index, dictLen := (n+7)/8, map[string]int(nil), 0 // index: a text column's entries, by value
	size := bmLen
	switch c.enc {
	case segEncText:
		index = make(map[string]int, nn)
		for _, v := range vals {
			if s := v.str(); v.Kind() == KindText {
				if _, ok := index[s]; !ok {
					index[s], dictLen = len(index), dictLen+len(s)
				}
			}
		}
		c.offs = make([]uint32, len(index)+1)
		size += nn * c.codeWidth(nn)
	case segEncBool:
		size += (nn + 7) / 8
	default:
		c.offs = make([]uint32, (nn+segRestart-1)/segRestart)
		size = c.stream(vals, nil, size)
	}
	c.data = make([]byte, size)
	if nn < n {
		c.rank = make([]uint16, 1, (n+63)/64+1)
	}
	var dict strings.Builder
	dict.Grow(dictLen)
	w, j, next := c.codeWidth(nn), 0, 0
	for i, v := range vals {
		switch {
		case v.IsNull():
			c.data[i/8] |= 1 << (i % 8)
		case c.enc == segEncText:
			di := next // with no codes, value j is entry j
			if w > 0 {
				di = index[v.str()]
			}
			if di == next {
				c.offs[di], next = uint32(dict.Len()), next+1
				dict.WriteString(v.str())
			}
			for b := range w {
				c.data[bmLen+j*w+b] = byte(di >> (8 * b))
			}
		case c.enc == segEncBool:
			c.data[bmLen+j/8] |= byte(v.i64()) << (j % 8)
		}
		if !v.IsNull() {
			j++
		}
		if c.rank != nil && (i%64 == 63 || i == n-1) {
			c.rank = append(c.rank, uint16(j))
		}
	}
	switch c.enc {
	case segEncText:
		c.offs[next], c.dict = uint32(dict.Len()), dict.String()
	case segEncInt, segEncFloat, segEncRaw:
		c.stream(vals, c.data, bmLen)
	}
	return c
}

// stream writes the non-null values of an int, float or raw column to data
// from off — or only measures them, when data is nil — recording each
// restart point in offs, and returns the offset past them. An int, or a
// decimal float's scaled integer, is a zigzag delta from the value before it
// in mod-2^64 arithmetic (exact for the full int64 range, wraparound gaps
// included); any other value is appendWalValue's bytes.
func (c *segCol) stream(vals []Value, data []byte, off int) int {
	prev, j := uint64(0), 0
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		if j%segRestart == 0 {
			c.offs[j/segRestart], prev = uint32(off), 0
		}
		u := uint64(v.i64())
		if c.enc == segEncFloat {
			u = uint64(int64(math.Round(v.AsFloat() * segPow10[c.exp])))
		}
		z := zigzag(int64(u - prev))
		switch {
		case c.enc == segEncRaw && data == nil:
			off += walValueLen(v)
		case c.enc == segEncRaw:
			off = len(appendWalValue(data[:off], v))
		case data == nil:
			off += (bits.Len64(z|1) + 6) / 7 // PutUvarint's length
		default:
			off += binary.PutUvarint(data[off:], z)
		}
		prev, j = u, j+1
	}
	return off
}

// decimalScale is the least exp at which every float x of vals is
// float64(m)/10^exp bit for bit, where m = round(x·10^exp) — the integer the
// stream stores — has |m| < 2^52; len(segPow10) when there is none (±Inf,
// -0, more than six places). One exp is tried on the whole block at a time.
func decimalScale(vals []Value) byte {
	exp := byte(0)
	for i := 0; i < len(vals) && int(exp) < len(segPow10); i++ {
		v, p := vals[i], segPow10[exp]
		if m := math.Round(v.AsFloat() * p); v.Kind() == KindFloat && (math.Abs(m) >= 1<<52 || math.Float64bits(float64(int64(m))/p) != math.Float64bits(v.f64())) {
			exp, i = exp+1, -1 // every value again, at the next scale
		}
	}
	return exp
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// ---------------------------------------------------------------------------
// Decoding: bytes that do not decode to exactly the sealed values are
// ErrCorrupt — the block is the only copy.

// codeWidth is the byte width of the dictionary codes of a text column with
// nn non-null values: none when each is its own entry, in order.
func (c *segCol) codeWidth(nn int) int {
	switch {
	case len(c.offs) == nn+1:
		return 0
	case len(c.offs) > 257:
		return 2
	}
	return 1
}

// decode reconstructs the column's n row values into dst (len >= n),
// bit-identical to the values sealed; a TEXT value is a substring of the
// dictionary. The non-null values are decoded to the front of dst, then
// spread over the NULLs from the back.
func (c *segCol) decode(n int, dst []Value) (err error) {
	d, bmLen, nn := c.data, (n+7)/8, n
	if len(d) < bmLen || c.enc > segEncBool || (n%8 != 0 && d[bmLen-1]>>(n%8) != 0) {
		return errCorrupt("bitmap truncated or encoding unknown")
	}
	for _, b := range d[:bmLen] {
		nn -= bits.OnesCount8(b)
	}
	off := bmLen
	switch c.enc {
	case segEncText:
		w := c.codeWidth(nn)
		for j := 0; j < nn && err == nil; j++ {
			dst[j], err = c.text(bmLen, j, w)
		}
		off += max(nn, 0) * w
	case segEncBool:
		for j := 0; j < nn && err == nil; j++ {
			dst[j], err = c.bool(bmLen, j)
		}
		off += (max(nn, 0) + 7) / 8
	default:
		for lo := 0; lo < nn && off >= 0; lo += segRestart {
			off, _ = c.steps(off, 0, min(segRestart, nn-lo), dst[lo:])
		}
	}
	if err != nil || nn < 0 || off != len(d) {
		return cmp.Or(err, errCorrupt("values do not fill the column"))
	}
	for i, j := n-1, nn-1; i > j; i-- {
		if d[i/8]&(1<<(i%8)) != 0 {
			dst[i] = Null
		} else {
			dst[i], j = dst[j], j-1
		}
	}
	return nil
}

// valueAt returns value i of the column's n without decoding the others:
// the bitmap word's rank says which non-null value it is, a code or a bool
// is found at once, a stream decodes from the restart point before it — or
// from at, the value last read, when that is earlier in the same group.
func (c *segCol) valueAt(i, n int, at *segPos) (Value, error) {
	j, null, err := c.locate(i, n)
	switch {
	case err != nil || null:
		return Null, err
	case c.enc == segEncText:
		// The code width follows from the non-null count, which the rank
		// table ends on: the codes must then fill the column, as decode,
		// which counts the bitmap instead, requires.
		nn := n
		if len(c.rank) > 0 {
			nn = int(c.rank[len(c.rank)-1])
		}
		w := c.codeWidth(nn)
		if len(c.data) != (n+7)/8+nn*w {
			return Null, errCorrupt("text codes do not fill the column")
		}
		return c.text((n+7)/8, j, w)
	case c.enc == segEncBool:
		return c.bool((n+7)/8, j)
	case j/segRestart >= len(c.offs):
		return Null, errCorrupt("no restart point")
	}
	k, prev, off := j/segRestart*segRestart, uint64(0), int(c.offs[j/segRestart])
	if at != nil && at.off > 0 && at.j >= k && at.j < j {
		k, prev, off = at.j+1, at.prev, at.off
	}
	var v [1]Value
	if off, prev = c.steps(off, prev, j-k+1, v[:]); off < 0 {
		return Null, errCorrupt("value stream")
	}
	if at != nil {
		*at = segPos{j, off, prev}
	}
	return v[0], nil
}

// locate ranks row i of n: its index among the non-null values, or null.
// The bitmap word is checked against the rank table, so a bit lost or
// gained is corruption, not a NULL.
func (c *segCol) locate(i, n int) (int, bool, error) {
	bmLen, w := (n+7)/8, i/64
	if i >= n || len(c.data) < bmLen {
		return 0, false, errCorrupt("bitmap truncated")
	}
	var word uint64
	for k := 8 * w; k < min(8*w+8, bmLen); k++ {
		word |= uint64(c.data[k]) << (8 * (k - 8*w))
	}
	switch {
	case c.rank == nil && word == 0:
		return i, false, nil
	case c.rank == nil || w+1 >= len(c.rank) || int(c.rank[w+1]-c.rank[w]) != min(64, n-64*w)-bits.OnesCount64(word):
		return 0, false, errCorrupt("bitmap disagrees with its rank")
	}
	below := bits.OnesCount64(word & (1<<(i%64) - 1))
	return int(c.rank[w]) + i%64 - below, word>>(i%64)&1 != 0, nil
}

// text reads non-null value j's dictionary entry: entry j when width is
// 0, else the one its width-byte code in the codes at data[at:] names.
func (c *segCol) text(at, j, width int) (Value, error) {
	code, at := j, at+j*width
	if at+width > len(c.data) {
		return Null, errCorrupt("text codes truncated")
	}
	if width > 0 {
		code = int(c.data[at])
	}
	if width == 2 {
		code |= int(c.data[at+1]) << 8
	}
	if code >= len(c.offs)-1 {
		return Null, errCorrupt("code outside the dictionary")
	}
	return Text(c.dict[c.offs[code]:c.offs[code+1]]), nil
}

// bool reads bool j of the bitmap at data[at:].
func (c *segCol) bool(at, j int) (Value, error) {
	if at+j/8 >= len(c.data) {
		return Null, errCorrupt("bool column truncated")
	}
	return Bool(c.data[at+j/8]&(1<<(j%8)) != 0), nil
}

// steps decodes count stream values from data[off:], the first following
// the value whose bits (as segPos holds them) are prev, into dst — value k at dst[min(k,
// len(dst)-1)], so a one-value dst ends holding the last — and returns the
// offset past them (negative when the bytes do not decode) and the last
// one's bits.
func (c *segCol) steps(off int, prev uint64, count int, dst []Value) (int, uint64) {
	d, last, enc := c.data, len(dst)-1, c.enc
	if enc == segEncFloat && int(c.exp) >= len(segPow10) {
		return -1, 0
	}
	for k := 0; k < count; k++ {
		if off >= len(d) {
			return -1, 0
		}
		switch enc {
		case segEncInt, segEncFloat:
			u, sz := binary.Uvarint(d[off:])
			if sz <= 0 {
				return -1, 0
			}
			prev, off = prev+uint64(unzigzag(u)), off+sz
			v := Int(int64(prev))
			if enc == segEncFloat {
				v = Float(float64(int64(prev)) / segPow10[c.exp])
			}
			dst[min(k, last)] = v
		default:
			dec := walDecoder{b: d, off: off}
			if dst[min(k, last)], off = dec.value(), dec.off; dec.err != nil {
				return -1, 0
			}
		}
	}
	return off, prev
}
