package sqldb

// This file is the one place a scan reads table storage. The 1024-slot
// morsel — which is also one sealed block and one vector batch — is the
// unit: a batchSource captures the table, its directory of runs, the
// statement snapshot, the sealed blocks and (for index and range access) the
// id list once, on the owner goroutine, and load fills batch idx from whichever
// storage backs those positions. Every consumer — the serial scan, each pool
// worker (vecops.go, parallel.go) and UPDATE/DELETE's walk over their victims
// (db.go) — calls load with a private vecBatch, under no lock. Visibility is
// decided by the single function below, for these scans and (through
// Table.resolve and Table.visibleRow) for every other snapshot read.

// debugFault deliberately breaks one invariant, so that the test layer can
// prove it notices (the mutation table of TestDifferential, the crash
// matrix's detection tests). Never set outside tests.
var debugFault fault

type fault uint8

const (
	noFault               fault = iota
	faultTombstoneSkip          // scans ignore visibility: deleted rows reappear
	faultOrdMaintain            // DML leaves ordered views stale; removal drops keys a survivor carries
	faultRowCopy                // the top-K heap retains the rows it is offered instead of copying them
	faultVectorKernel           // the comparison kernels answer inverted
	faultWALDanglingFrame       // recovery applies a frame with no commit record
	faultWALSkipSync            // every WAL fsync is a no-op
)

// visible returns the row of a version chain a reader holding snap should
// see, or nil. A nil snapshot means "latest committed" (valid only under
// writeMu or for best-effort display paths such as plain EXPLAIN). Under
// faultTombstoneSkip it is the newest version whatever its visibility.
func visible(head *rowVersion, snap *snapshot) Row {
	switch {
	case head == nil:
		return nil
	case debugFault == faultTombstoneSkip:
		return head.row
	case snap == nil:
		return latestRow(head)
	default:
		return visibleVersion(head, snap)
	}
}

// batchSource is the position space of one scan: an explicit id list
// (equality/range index access), the runs of an ordered walk, or every
// slot of the table. Immutable once captured but for the walk, which only
// serial scans take, so workers share it freely.
type batchSource struct {
	table *Table
	ids   []int // nil = every slot (or the walk's)
	walk  *ordWalk
	dir   []*slotRun // the runs by morsel (nil: sealed) of the n slots the scan's snapshot can see
	n     int
	snap  *snapshot
	segs  []*segBlock // the sealed blocks by morsel (segment.go); nil = none
}

// capture takes the scan's iteration space. Full scans also capture the
// sealed blocks, so a sealed morsel decodes its block instead of reading it
// row by row — except under the visibility fault, where blocks (which hold
// live rows only) would hide the deleted rows the fault is meant to expose.
// The snapshot is taken first, so a block captured here stays what it sees
// even once rehydrated: a change to its rows publishes later.
func (m *batchSource) capture(t *Table, ids []int, walk *ordWalk, snap *snapshot) {
	*m = batchSource{table: t, ids: ids, walk: walk, snap: snap}
	if ids == nil && walk == nil {
		m.dir, m.n = t.loadSlots()
		if debugFault != faultTombstoneSkip {
			m.segs = t.blocks()
		}
	}
}

// batches is the number of morsels the source spans — for a walk, the runs
// handed out so far and the next one while it has ids left: consumers load
// morsels in order, so the count is known one run ahead.
func (m *batchSource) batches() int {
	if w := m.walk; w != nil {
		if w.done() {
			return w.runs
		}
		return w.runs + 1
	}
	total := m.n
	if m.ids != nil {
		total = len(m.ids)
	}
	return (total + morselSize - 1) / morselSize
}

// load fills b with the visible rows of morsel idx, in position order, and
// their slot ids; under an ordered walk the morsel is the walk's next run.
// vec marks the columns the consumer's kernels read, which load gathers into
// column vectors; a sealed block decodes dec (nil: every column) and builds a
// row view over them only when rows asks for one (heap and id-list morsels
// always carry their rows: a heap row is the cheapest form there is, and a
// sealed row an id list names — or one of a morsel sealed since the capture —
// is decoded whole into the batch). b.pre and b.tail record the invisible
// versions stepped over, so consumers can bill tombstones where each row is
// consumed. b.sel is left to the caller.
func (m *batchSource) load(idx int, vec, dec []bool, rows bool, b *vecBatch) error {
	lo, w := idx*morselSize, m.walk
	end := min(lo+morselSize, m.n)
	b.blk = nil
	switch {
	case w != nil:
		lo, end = 0, w.run()
	case m.ids != nil:
		end = min(lo+morselSize, len(m.ids))
	case idx < len(m.segs) && m.segs[idx] != nil:
		return b.fillSealed(m.segs[idx], lo, dec, rows)
	}
	b.reserve(end - lo)
	n, carry := 0, int32(0)
	b.arena.used = 0
	for pos := lo; pos < end && (w == nil || !w.done()); pos++ {
		id, run, key := pos, (*slotRun)(nil), Null
		switch {
		case w != nil:
			id, key = w.pop()
			run = m.table.run(id / segBlockSlots)
		case m.ids != nil:
			id = m.ids[pos]
			run = m.table.run(id / segBlockSlots)
		default:
			run = m.dir[idx]
		}
		head, blk := m.table.resolve(run, id)
		var r Row
		switch {
		case blk != nil:
			r = b.arena.alloc(len(m.table.Columns))
			if err := blk.row(id, r, &b.seek); err != nil {
				return err
			}
		case head == nil && m.ids == nil && w == nil:
			// A slot with no versions at all (vacuumed, or a rolled-back
			// insert) is stepped over silently; one holding only invisible
			// versions, or an index id naming such a slot, is a tombstone.
			continue
		default:
			r = visible(head, m.snap)
		}
		if r == nil || w != nil && !r[w.col].Equal(key) { // not the value the walk filed it under
			carry++
			continue
		}
		b.pre[n], b.ids[n], carry = carry, id, 0
		b.rowBuf[n] = r
		n++
	}
	b.n, b.tail, b.rows = n, carry, b.rowBuf[:n]
	for c := range b.cols {
		if vec == nil || !vec[c] {
			b.cols[c] = vecCol{}
			continue
		}
		buf := b.colBuf(c, n)
		for j, r := range b.rows {
			buf[j] = r[c]
		}
		b.cols[c].setVals(buf)
	}
	return nil
}

// fillSealed decodes the dec columns of the sealed block of morsel base /
// morselSize (nil dec: every column). Sealed blocks hold no tombstones by
// construction. With rows the batch also gets a row view over the decoded
// columns — full width, but only the decoded ordinals are populated —
// carved from storage the next load overwrites.
func (b *vecBatch) fillSealed(blk *segBlock, base int, dec []bool, rows bool) error {
	nr := blk.nrows
	b.reserve(nr)
	b.blk, b.n, b.tail, b.rows, b.arena.used = nil, nr, 0, nil, 0
	clear(b.pre[:nr])
	for i, j := 0, 0; j < nr; i++ { // the slots the block's rows sit in
		if !blk.hole(i) {
			b.ids[j], j = base+i, j+1
		}
	}
	for c := range blk.cols {
		if dec != nil && !dec[c] {
			b.cols[c] = vecCol{}
			continue
		}
		buf := b.colBuf(c, nr)
		if err := blk.cols[c].decode(nr, buf); err != nil {
			return err
		}
		b.cols[c] = vecCol{vals: buf, kinds: blk.cols[c].kinds}
	}
	b.blk = blk
	if !rows {
		return nil
	}
	width := len(blk.cols)
	if len(b.arena.buf) < nr*width {
		b.arena.buf = make([]Value, nr*width)
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
