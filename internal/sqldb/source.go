package sqldb

// This file is the one place large scans read table storage. The
// 1024-slot morsel — which is also one sealed block and one vector batch —
// is the unit: a batchSource captures the table, its slot array, the
// statement snapshot, the sealed blocks and (for index and range access)
// the id list once, on the owner goroutine, and load fills batch idx from
// whichever storage backs those positions. Every consumer — the serial batch
// pipeline and each pool worker (vecops.go, parallel.go) — calls load on the
// shared source with a private vecBatch, under no lock. Visibility is
// decided by the single function below, for these scans and (through
// Table.resolve and Table.visibleRow) for every other snapshot read.

// debugDisableTombstoneSkip is a fault-injection switch for the
// metamorphic/property test layer: scans ignore visibility, so deleted
// rows reappear, and the suites must notice. Never set outside tests; read
// only by visible and newBatchSource.
var debugDisableTombstoneSkip bool

// visible returns the row of a version chain a reader holding snap should
// see, or nil. A nil snapshot means "latest committed" (valid only under
// writeMu or for best-effort display paths such as plain EXPLAIN). Under
// the debugDisableTombstoneSkip fault it is the newest version whatever
// its visibility.
func visible(head *rowVersion, snap *snapshot) Row {
	switch {
	case head == nil:
		return nil
	case debugDisableTombstoneSkip:
		return head.row
	case snap == nil:
		return latestRow(head)
	default:
		return visibleVersion(head, snap)
	}
}

// batchSource is the position space of one large scan: an explicit id
// list (equality/range index access) or the slot array [0, n). Immutable
// once built, so workers share it freely.
type batchSource struct {
	table *Table
	ids   []int // nil = the whole slot array
	arr   []*rowSlot
	n     int
	snap  *snapshot
	segs  []*segBlock // the sealed blocks by morsel (segment.go); nil = none
}

// newBatchSource captures the scan's iteration space. Full scans also
// capture the sealed blocks, so a sealed morsel decodes its block instead of
// reading it row by row — except under the visibility fault, where blocks
// (which hold live rows only) would hide the deleted rows the fault is meant
// to expose. The snapshot is taken first, so a block captured here stays
// what it sees even once rehydrated: a change to its rows publishes later.
func newBatchSource(t *Table, ids []int, snap *snapshot) *batchSource {
	m := &batchSource{table: t, ids: ids, snap: snap}
	if ids == nil {
		m.arr, m.n = t.loadSlots()
		if !debugDisableTombstoneSkip {
			m.segs = t.blocks()
		}
	}
	return m
}

// batches is the number of morsels the source spans.
func (m *batchSource) batches() int {
	total := m.n
	if m.ids != nil {
		total = len(m.ids)
	}
	return (total + morselSize - 1) / morselSize
}

// load fills b with the visible rows of morsel idx, in position order.
// need marks the columns the consumer reads; needRows asks for b.rows even
// when the morsel is a sealed block (heap and id-list morsels always carry
// their rows: a heap row is the cheapest form there is, and a sealed row an
// id list names — or one of a morsel sealed since the capture — is decoded
// whole into the batch). b.pre and b.tail record the invisible versions
// stepped over, so consumers can bill tombstones exactly where the row
// iterator would. b.sel is left to the caller.
func (m *batchSource) load(idx int, need []bool, needRows bool, b *vecBatch) error {
	lo := idx * morselSize
	b.blk = nil
	if m.ids == nil && idx < len(m.segs) && m.segs[idx] != nil {
		return b.fillSealed(m.segs[idx], need, needRows)
	}
	n, carry := 0, int32(0)
	b.arena.used = 0
	var err error
	gather := func(slot *rowSlot, id int) {
		head, blk := m.table.resolve(slot, id)
		var r Row
		switch {
		case blk != nil:
			r = b.arena.alloc(len(m.table.Columns))
			if e := blk.row(id, r, &b.seek); e != nil {
				err = e
			}
		case head == nil && m.ids == nil:
			// A slot with no versions at all (vacuumed, or a rolled-back
			// insert) is stepped over silently; one holding only invisible
			// versions, or an index id naming such a slot, is a tombstone.
			return
		default:
			r = visible(head, m.snap)
		}
		if r == nil {
			carry++
			return
		}
		b.pre[n], carry = carry, 0
		b.rowBuf[n] = r
		n++
	}
	if m.ids != nil {
		for _, id := range m.ids[lo:min(lo+morselSize, len(m.ids))] {
			gather(m.table.slot(id), id)
		}
	} else {
		for i, slot := range m.arr[lo:min(lo+morselSize, m.n)] {
			gather(slot, lo+i)
		}
	}
	if err != nil {
		return err
	}
	b.n, b.tail, b.rows = n, carry, b.rowBuf[:n]
	for c, needed := range need {
		if !needed {
			b.cols[c] = vecCol{}
			continue
		}
		buf := b.colBuf(c)
		for j, r := range b.rows {
			buf[j] = r[c]
		}
		b.cols[c].setVals(buf[:n])
	}
	return nil
}

// fillSealed decodes the needed columns of one sealed block (nil need: every
// column). Sealed blocks hold no tombstones by construction. With needRows
// the batch also gets a row view over the decoded columns — full width, but
// only the needed ordinals are populated — carved from storage the next load
// overwrites.
func (b *vecBatch) fillSealed(blk *segBlock, need []bool, needRows bool) error {
	nr := blk.nrows
	b.blk, b.n, b.tail, b.rows, b.arena.used = nil, nr, 0, nil, 0
	clear(b.pre[:nr])
	for c := range blk.cols {
		if need != nil && !need[c] {
			b.cols[c] = vecCol{}
			continue
		}
		buf := b.colBuf(c)[:nr]
		if err := blk.cols[c].decode(nr, buf); err != nil {
			return err
		}
		b.cols[c] = vecCol{vals: buf, kinds: blk.cols[c].kinds}
	}
	b.blk = blk
	if !needRows {
		return nil
	}
	width := len(blk.cols)
	if len(b.arena.buf) < nr*width {
		b.arena.buf = make([]Value, vecBatchRows*width)
	}
	for j := 0; j < nr; j++ {
		b.rowBuf[j] = b.arena.alloc(width)
	}
	for c, col := range b.cols {
		for j, v := range col.vals {
			b.rowBuf[j][c] = v
		}
	}
	b.rows = b.rowBuf[:nr]
	return nil
}
