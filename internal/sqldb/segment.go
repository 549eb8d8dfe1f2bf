package sqldb

import (
	"encoding/binary"
	"math"
	"math/bits"
	"sort"
)

// This file implements the cold half of the hybrid storage layout:
// immutable compressed column segments sealed off the MVCC row heap.
//
// The row heap (catalog.go) stays the hot store and the single source of
// truth — every version chain, index, DML path and the WAL are untouched.
// A background sealer freezes *cold* rows — slots whose single committed
// version lies below the vacuum horizon, i.e. is visible to every current
// and future snapshot — into column-major blocks of segBlockSlots slots,
// compressed per column (zigzag-delta varints for ints, byte-aligned XOR
// for floats, dictionary coding for strings, bitmaps for bools, and a raw
// fallback for mixed-kind columns). Large scans (source.go) decode a block
// at a time instead of chasing version pointers; everything else keeps
// reading the heap.
//
// Because segments are redundant with the heap, correctness never depends
// on them: DML that touches a covered slot simply drops the covering
// segment (the "unseal" — the heap already holds the truth) *before* the
// change is published at tm.finish, so any snapshot that can see the
// change can no longer observe the stale segment. Slot ids are never
// reused and appends only land past the sealed range, so a published
// segment stays bit-identical to what every snapshot sees until it is
// dropped.

// segBlockSlots is the number of heap slots one sealed block spans. It
// equals morselSize so a morsel is always either fully sealed or fully
// heap-resident.
const segBlockSlots = morselSize

// segMaxBlocks bounds the blocks per segment so unsealing on DML drops a
// bounded range.
const segMaxBlocks = 64

// sealThreshold is the number of newly inserted rows that wakes the
// background sealer.
const sealThreshold = 4 * segBlockSlots

// Column encodings. Chosen per (block, column) by the kinds present.
const (
	segEncRaw   byte = iota // mixed kinds: appendWalValue stream
	segEncInt               // all-int: zigzag delta varints
	segEncFloat             // all-float: byte-aligned XOR vs previous
	segEncText              // all-text: dictionary + varint indexes
	segEncBool              // all-bool: bitmap
)

// Kind masks, shared with the vector engine (vector.go).
const (
	kmNull  = 1 << uint16(KindNull)
	kmBool  = 1 << uint16(KindBool)
	kmInt   = 1 << uint16(KindInt)
	kmFloat = 1 << uint16(KindFloat)
	kmText  = 1 << uint16(KindText)
)

// segCol is one compressed column of one block: a null bitmap over the
// block's rows followed by the encoded non-null values.
type segCol struct {
	enc   byte
	kinds uint16 // mask of kinds present (incl. kmNull), for kernel dispatch
	data  []byte
}

// segBlock holds segBlockSlots consecutive heap slots' live rows in slot
// order. Empty slots contribute nothing (exactly like the heap scan, which
// passes them silently), and sealability guarantees zero tombstones.
type segBlock struct {
	nrows int
	cols  []segCol
}

// segment is a run of consecutive sealed blocks covering slot ids
// [lo, hi). Immutable once published.
type segment struct {
	lo, hi int
	blocks []*segBlock
}

// block returns the sealed block covering slot lo (a multiple of
// segBlockSlots inside [s.lo, s.hi)).
func (s *segment) block(lo int) *segBlock {
	return s.blocks[(lo-s.lo)/segBlockSlots]
}

// loadSegs returns the table's published segment list (sorted by lo,
// non-overlapping), or nil.
func (t *Table) loadSegs() []*segment {
	if p := t.segs.Load(); p != nil {
		return *p
	}
	return nil
}

// findSeg returns the segment covering slot id, or nil.
func findSeg(segs []*segment, id int) *segment {
	i := sort.Search(len(segs), func(i int) bool { return segs[i].hi > id })
	if i < len(segs) && segs[i].lo <= id {
		return segs[i]
	}
	return nil
}

// dropSegFor unseals the segment covering slot id, if any: the covering
// segment is removed copy-on-write (writeMu held — DML is the only
// caller) and readers atomically stop seeing it. The heap never stopped
// holding the rows, so no data moves.
func (t *Table) dropSegFor(id int) {
	segs := t.loadSegs()
	if segs == nil {
		return
	}
	s := findSeg(segs, id)
	if s == nil {
		return
	}
	kept := make([]*segment, 0, len(segs)-1)
	for _, o := range segs {
		if o != s {
			kept = append(kept, o)
		}
	}
	t.segs.Store(&kept)
	for _, b := range s.blocks {
		t.sealedRows.Add(-int64(b.nrows))
	}
}

// ---------------------------------------------------------------------------
// Sealing

// maybeSeal wakes the background sealer when enough rows have been
// inserted since the last pass. Single-flight, like maybeVacuum.
func (db *Database) maybeSeal() {
	if db.closed.Load() || db.sealDebt.Load() < sealThreshold {
		return
	}
	if !db.sealing.CompareAndSwap(false, true) {
		return
	}
	db.vacWG.Add(1)
	go func() {
		defer db.vacWG.Done()
		defer db.sealing.Store(false)
		db.seal()
	}()
}

// Seal synchronously freezes every currently cold full block into
// compressed column segments and returns how many rows were newly sealed.
// The background sealer runs the same pass; this entry point exists for
// tests, benchmarks, and embedders that want deterministic sealing.
func (db *Database) Seal() int {
	return db.seal()
}

// seal runs one sealing pass over every table under the single-writer
// latch (writers pause; lock-free readers do not).
func (db *Database) seal() int {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.sealDebt.Store(0)
	h := db.tm.horizon()
	rows, nsegs := 0, 0
	for _, t := range db.tableMap() {
		r, s := t.seal(h)
		rows, nsegs = rows+r, nsegs+s
	}
	if nsegs > 0 {
		db.stats.segmentsSealed.Add(uint64(nsegs))
	}
	return rows
}

// seal freezes this table's cold full blocks. A block is sealable when
// every slot in its range either holds no versions at all or holds exactly
// one committed version with no deleter and xmin below the horizon — such
// a block reads identically for every current and future snapshot, with
// zero tombstones, until DML drops it. Only full blocks are sealed:
// appends land past n, so a full block's slot population is final.
// Returns (rows sealed, segments created).
func (t *Table) seal(h uint64) (int, int) {
	arr, n := t.loadSlots()
	nb := n / segBlockSlots
	if nb == 0 {
		return 0, 0
	}
	old := t.loadSegs()
	var created []*segment
	var cur *segment
	rows := 0
	for b := 0; b < nb; b++ {
		lo := b * segBlockSlots
		if findSeg(old, lo) != nil {
			cur = nil
			continue
		}
		blk := sealBlock(arr, lo, len(t.Columns), h)
		if blk == nil {
			cur = nil
			continue
		}
		if cur == nil || len(cur.blocks) >= segMaxBlocks {
			cur = &segment{lo: lo, hi: lo}
			created = append(created, cur)
		}
		cur.blocks = append(cur.blocks, blk)
		cur.hi = lo + segBlockSlots
		rows += blk.nrows
	}
	if len(created) == 0 {
		return 0, 0
	}
	merged := make([]*segment, 0, len(old)+len(created))
	merged = append(merged, old...)
	merged = append(merged, created...)
	sort.Slice(merged, func(i, j int) bool { return merged[i].lo < merged[j].lo })
	t.segs.Store(&merged)
	t.sealedRows.Add(int64(rows))
	return rows, len(created)
}

// sealBlock encodes the live rows of slots [lo, lo+segBlockSlots), or
// returns nil when the block is not sealable.
func sealBlock(arr []*rowSlot, lo, width int, h uint64) *segBlock {
	rows := make([]Row, 0, segBlockSlots)
	for id := lo; id < lo+segBlockSlots; id++ {
		head := arr[id].head.Load()
		if head == nil {
			continue // permanently empty slot
		}
		if head.next.Load() != nil || head.xmax.Load() != 0 || head.xmin >= h || head.row == nil {
			return nil
		}
		rows = append(rows, head.row)
	}
	blk := &segBlock{nrows: len(rows), cols: make([]segCol, width)}
	vals := make([]Value, len(rows))
	for c := 0; c < width; c++ {
		for i, r := range rows {
			vals[i] = r[c]
		}
		blk.cols[c] = sealColumn(vals)
	}
	return blk
}

// sealColumn picks the tightest encoding the column's kinds allow and
// encodes: null bitmap first, then the non-null values.
func sealColumn(vals []Value) segCol {
	n := len(vals)
	var kinds uint16
	for _, v := range vals {
		kinds |= 1 << uint16(v.kind)
	}
	data := make([]byte, (n+7)/8)
	nonNull := 0
	for i, v := range vals {
		if v.kind == KindNull {
			data[i/8] |= 1 << (i % 8)
		} else {
			nonNull++
		}
	}
	enc := segEncRaw
	if nonNull > 0 {
		switch kinds &^ kmNull {
		case kmInt:
			enc = segEncInt
		case kmFloat:
			enc = segEncFloat
		case kmText:
			enc = segEncText
		case kmBool:
			enc = segEncBool
		}
	}
	switch enc {
	case segEncInt:
		prev := int64(0)
		for _, v := range vals {
			if v.kind == KindNull {
				continue
			}
			// Delta in mod-2^64 arithmetic, zigzagged: exact for the full
			// int64 range including wraparound-sized gaps.
			d := v.n - uint64(prev)
			data = binary.AppendUvarint(data, zigzag(int64(d)))
			prev = int64(v.n)
		}
	case segEncFloat:
		prev := uint64(0)
		for _, v := range vals {
			if v.kind == KindNull {
				continue
			}
			data = appendXORFloat(data, v.n^prev)
			prev = v.n
		}
	case segEncText:
		dict := make(map[string]int)
		var order []string
		idxs := make([]int, 0, nonNull)
		for _, v := range vals {
			if v.kind == KindNull {
				continue
			}
			di, ok := dict[v.s]
			if !ok {
				di = len(order)
				dict[v.s] = di
				order = append(order, v.s)
			}
			idxs = append(idxs, di)
		}
		data = binary.AppendUvarint(data, uint64(len(order)))
		for _, s := range order {
			data = binary.AppendUvarint(data, uint64(len(s)))
			data = append(data, s...)
		}
		for _, di := range idxs {
			data = binary.AppendUvarint(data, uint64(di))
		}
	case segEncBool:
		bm := make([]byte, (nonNull+7)/8)
		j := 0
		for _, v := range vals {
			if v.kind == KindNull {
				continue
			}
			if v.n != 0 {
				bm[j/8] |= 1 << (j % 8)
			}
			j++
		}
		data = append(data, bm...)
	default:
		for _, v := range vals {
			if v.kind == KindNull {
				continue
			}
			data = appendWalValue(data, v)
		}
	}
	return segCol{enc: enc, kinds: kinds, data: data}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendXORFloat writes one XOR'd float64 bit pattern byte-aligned: a
// control byte (leadingZeroBytes<<4 | significantBytes) followed by the
// significant middle bytes, little-endian. Similar consecutive floats
// share sign/exponent/leading-mantissa bits (high bytes) and often have
// zero mantissa tails (low bytes), so x is usually a short middle run.
func appendXORFloat(data []byte, x uint64) []byte {
	if x == 0 {
		return append(data, 0x80) // lz=8, sig=0
	}
	lz := bits.LeadingZeros64(x) / 8
	tz := bits.TrailingZeros64(x) / 8
	sig := 8 - lz - tz
	data = append(data, byte(lz<<4|sig))
	v := x >> (tz * 8)
	for i := 0; i < sig; i++ {
		data = append(data, byte(v>>(8*i)))
	}
	return data
}

// ---------------------------------------------------------------------------
// Decoding

// decode reconstructs the column's n row values into dst (len >= n),
// bit-identical to the values sealed. Errors indicate corruption and are
// impossible for blocks this process sealed; they exist for the fuzz
// harness, which feeds arbitrary bytes.
func (c *segCol) decode(n int, dst []Value) error {
	d := c.data
	bmLen := (n + 7) / 8
	if len(d) < bmLen {
		return errf(ErrInternal, "sql: segment column truncated")
	}
	bm, body := d[:bmLen], d[bmLen:]
	isNull := func(i int) bool { return bm[i/8]&(1<<(i%8)) != 0 }
	switch c.enc {
	case segEncInt:
		prev := int64(0)
		for i := 0; i < n; i++ {
			if isNull(i) {
				dst[i] = Null
				continue
			}
			u, sz := binary.Uvarint(body)
			if sz <= 0 {
				return errf(ErrInternal, "sql: segment int column truncated")
			}
			body = body[sz:]
			prev = int64(uint64(prev) + uint64(unzigzag(u)))
			dst[i] = Int(prev)
		}
	case segEncFloat:
		prev := uint64(0)
		for i := 0; i < n; i++ {
			if isNull(i) {
				dst[i] = Null
				continue
			}
			if len(body) == 0 {
				return errf(ErrInternal, "sql: segment float column truncated")
			}
			ctl := body[0]
			body = body[1:]
			lz, sig := int(ctl>>4), int(ctl&0xF)
			if lz > 8 || sig > 8 || lz+sig > 8 || len(body) < sig {
				return errf(ErrInternal, "sql: segment float column corrupt")
			}
			var x uint64
			for j := 0; j < sig; j++ {
				x |= uint64(body[j]) << (8 * j)
			}
			body = body[sig:]
			if sig > 0 {
				x <<= uint(8-lz-sig) * 8
			}
			prev ^= x
			dst[i] = Float(math.Float64frombits(prev))
		}
	case segEncText:
		nd, sz := binary.Uvarint(body)
		if sz <= 0 || nd > uint64(len(body)) {
			return errf(ErrInternal, "sql: segment dictionary corrupt")
		}
		body = body[sz:]
		dictVals := make([]Value, nd)
		for j := range dictVals {
			l, sz := binary.Uvarint(body)
			if sz <= 0 || l > uint64(len(body)-sz) {
				return errf(ErrInternal, "sql: segment dictionary corrupt")
			}
			body = body[sz:]
			dictVals[j] = Text(string(body[:l]))
			body = body[l:]
		}
		for i := 0; i < n; i++ {
			if isNull(i) {
				dst[i] = Null
				continue
			}
			di, sz := binary.Uvarint(body)
			if sz <= 0 || di >= nd {
				return errf(ErrInternal, "sql: segment text column corrupt")
			}
			body = body[sz:]
			dst[i] = dictVals[di]
		}
	case segEncBool:
		j := 0
		for i := 0; i < n; i++ {
			if isNull(i) {
				dst[i] = Null
				continue
			}
			if j/8 >= len(body) {
				return errf(ErrInternal, "sql: segment bool column truncated")
			}
			dst[i] = Bool(body[j/8]&(1<<(j%8)) != 0)
			j++
		}
	case segEncRaw:
		dec := walDecoder{b: body}
		for i := 0; i < n; i++ {
			if isNull(i) {
				dst[i] = Null
				continue
			}
			dst[i] = dec.value()
			if dec.err != nil {
				return errf(ErrInternal, "sql: segment raw column corrupt")
			}
		}
	default:
		return errf(ErrInternal, "sql: unknown segment encoding %d", c.enc)
	}
	return nil
}
