package sqldb

import (
	"sort"
	"strings"
	"sync/atomic"
)

// This file implements the ordered half of the dual-structure Index
// (catalog.go) and the operators that exploit it. The hash map's postings
// are the source of truth; the ordered view — distinct values sorted by
// Value.Compare, each with its row ids ascending — is derived from them
// lazily and then maintained incrementally by DML while it is live. Under
// MVCC both structures are supersets of what any one snapshot can see, so
// every consumer here re-checks each candidate id: fetch the version
// visible to the scan's snapshot, emit only if its indexed value equals
// the entry's value. On top of the view sit:
//
//	ordScanOp     streams a table in index order (optionally bounded),
//	              letting ORDER BY ... LIMIT k read exactly O(k) rows
//	              and range predicates skip the heap entirely
//	collectRangeIDs  materialises a range as heap-ordered row ids for
//	              plans that need scan order preserved (no ORDER BY)
//	mergeJoinOp   equi-joins two tables by walking both ordered views
//	              in lockstep, with no build phase and no hashing
//
// Order equivalence is exact, not approximate: within one entry the ids
// are ascending heap positions, so "walk entries in Compare order, ids
// within" yields precisely what a stable sort of the heap scan on that
// column yields — per snapshot, because the recheck pins each visible row
// to exactly one entry. The planner relies on this to drop sortOp without
// changing any observable ordering, including ties.
//
// Concurrency: readers load the published view pointer once per scan and
// entry id lists atomically per entry; they take no lock. Writers (under
// the single-writer latch, holding the index latch) maintain the live
// view copy-on-write — replacing an entry's id slice for an existing
// value, publishing a fresh entry array for a new one — so a reader's
// loaded view stays internally consistent for its whole iteration.

// ordEntry is one distinct value of an ordered index view. The id list is
// replaced copy-on-write by maintenance; entries themselves are immutable
// apart from that pointer.
type ordEntry struct {
	val Value
	ids atomic.Pointer[[]int]
}

// entryIDs loads the entry's current id list (ascending).
func (e *ordEntry) entryIDs() []int { return *e.ids.Load() }

// debugBreakOrdMaintain is a fault-injection switch for the property test
// layer: DML leaves live ordered views stale, and the suites must notice.
// Never set outside tests.
var debugBreakOrdMaintain bool

// orderedEntries returns the index's ordered view, building it from the
// hash map under the index latch on first ordered access after wholesale
// invalidation (CREATE INDEX, vacuum sweep). The double-checked fast path
// is a single atomic load; builders and maintainers serialise on idx.mu.
// Entry id slices are copied at build — they are never shared with the
// postings.
func (idx *Index) orderedEntries() []*ordEntry {
	if entp := idx.ord.Load(); entp != nil {
		return *entp
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if entp := idx.ord.Load(); entp != nil {
		return *entp
	}
	entries := make([]*ordEntry, 0, len(idx.m))
	for _, p := range idx.m {
		e := &ordEntry{val: p.val}
		ids := append([]int(nil), p.ids...)
		e.ids.Store(&ids)
		entries = append(entries, e)
	}
	sort.Slice(entries, func(a, b int) bool {
		return entries[a].val.Compare(entries[b].val) < 0
	})
	idx.ord.Store(&entries)
	return entries
}

// ordAdd maintains a live ordered view for one added (id, value) pair:
// binary search for the value's entry, then copy-on-write the entry's id
// list, or publish a fresh entry array with the new value spliced in at
// its sorted position. Caller holds idx.mu. A nil view stays nil — the
// next ordered access builds it from the hash map for free. Reports
// whether a live view was maintained.
func (idx *Index) ordAdd(v Value, id int) bool {
	entp := idx.ord.Load()
	if entp == nil || debugBreakOrdMaintain {
		return false
	}
	entries := *entp
	pos := sort.Search(len(entries), func(i int) bool { return entries[i].val.Compare(v) >= 0 })
	if pos < len(entries) && entries[pos].val.Compare(v) == 0 {
		ids := entries[pos].entryIDs()
		cp := make([]int, len(ids), len(ids)+1)
		copy(cp, ids)
		cp = spliceID(cp, id)
		entries[pos].ids.Store(&cp)
		return true
	}
	grown := make([]*ordEntry, len(entries)+1)
	copy(grown, entries[:pos])
	e := &ordEntry{val: v}
	eids := []int{id}
	e.ids.Store(&eids)
	grown[pos] = e
	copy(grown[pos+1:], entries[pos:])
	idx.ord.Store(&grown)
	return true
}

// rangeBound is one end of a key range: the bounding value and whether
// the bound itself is included.
type rangeBound struct {
	val  Value
	incl bool
}

// rangeSpec is a one-column key range extracted from WHERE conjuncts
// (col > x, col <= y, BETWEEN). The zero value means "unbounded".
type rangeSpec struct {
	lo, hi *rangeBound
}

func (s rangeSpec) bounded() bool { return s.lo != nil || s.hi != nil }

// describe renders the range as SQL-ish text for EXPLAIN.
func (s rangeSpec) describe(col string) string {
	var parts []string
	if s.lo != nil {
		op := ">"
		if s.lo.incl {
			op = ">="
		}
		parts = append(parts, col+" "+op+" "+s.lo.val.String())
	}
	if s.hi != nil {
		op := "<"
		if s.hi.incl {
			op = "<="
		}
		parts = append(parts, col+" "+op+" "+s.hi.val.String())
	}
	if parts == nil {
		return col + " unbounded"
	}
	return strings.Join(parts, " AND ")
}

// tightenLo returns the stricter of two lower bounds (nil = unbounded).
// On equal values the exclusive bound is tighter.
func tightenLo(cur, nb *rangeBound) *rangeBound {
	if cur == nil {
		return nb
	}
	if nb == nil {
		return cur
	}
	c := nb.val.Compare(cur.val)
	if c > 0 || (c == 0 && !nb.incl) {
		return nb
	}
	return cur
}

// tightenHi returns the stricter of two upper bounds.
func tightenHi(cur, nb *rangeBound) *rangeBound {
	if cur == nil {
		return nb
	}
	if nb == nil {
		return cur
	}
	c := nb.val.Compare(cur.val)
	if c < 0 || (c == 0 && !nb.incl) {
		return nb
	}
	return cur
}

// rangeStart returns the first entry index inside the lower bound. With
// no lower bound NULL entries are still skipped: SQL range predicates
// are never true of NULL, and NULLs sort first under Compare.
func rangeStart(entries []*ordEntry, lo *rangeBound) int {
	if lo == nil {
		return sort.Search(len(entries), func(i int) bool { return !entries[i].val.IsNull() })
	}
	if lo.incl {
		return sort.Search(len(entries), func(i int) bool { return entries[i].val.Compare(lo.val) >= 0 })
	}
	return sort.Search(len(entries), func(i int) bool { return entries[i].val.Compare(lo.val) > 0 })
}

// rangeEnd returns one past the last entry index inside the upper bound.
func rangeEnd(entries []*ordEntry, hi *rangeBound) int {
	if hi == nil {
		return len(entries)
	}
	if hi.incl {
		return sort.Search(len(entries), func(i int) bool { return entries[i].val.Compare(hi.val) > 0 })
	}
	return sort.Search(len(entries), func(i int) bool { return entries[i].val.Compare(hi.val) >= 0 })
}

// collectRangeIDs gathers the row ids inside the range that are visible
// to snap, in ascending heap order, so an unordered range scan emits rows
// exactly as a filtered full scan would (the property plan-equivalence
// tests rely on this under LIMIT truncation). Ids whose visible version
// no longer carries the entry's value — superset leftovers, deleted or
// not-yet-visible rows — are skipped and counted in the second return.
// Always returns a non-nil slice.
func collectRangeIDs(t *Table, col int, entries []*ordEntry, spec rangeSpec, snap *snapshot) ([]int, uint64) {
	lo, hi := rangeStart(entries, spec.lo), rangeEnd(entries, spec.hi)
	ids := make([]int, 0, 16)
	var skipped uint64
	for i := lo; i < hi; i++ {
		e := entries[i]
		key := e.val.Key()
		for _, id := range e.entryIDs() {
			r := t.visibleRow(id, snap)
			if r == nil || r[col].Key() != key {
				skipped++
				continue
			}
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, skipped
}

// entryRows materialises the rows of one ordered-view entry visible to
// snap (superset recheck applied); the second return counts skipped ids.
func entryRows(t *Table, col int, e *ordEntry, snap *snapshot) ([]Row, uint64) {
	ids := e.entryIDs()
	rows := make([]Row, 0, len(ids))
	var skipped uint64
	key := e.val.Key()
	for _, id := range ids {
		r := t.visibleRow(id, snap)
		if r == nil || r[col].Key() != key {
			skipped++
			continue
		}
		rows = append(rows, r)
	}
	return rows, skipped
}

// ---------------------------------------------------------------------------
// Ordered index scan

// ordScanOp streams a base table in the order of one of its indexes,
// optionally restricted to a key range. Because entries stream lazily in
// Compare order with heap-ordered ids inside each entry, the output is
// bit-identical to "heap scan, then stable sort on the column" — which is
// what lets the planner drop sortOp and makes ORDER BY col LIMIT k read
// exactly k rows. With bounds it is also the range access path for
// ordered queries. NULLs participate in a pure ordered scan (they sort
// first ascending, last descending, exactly as sortOp places them) but
// are excluded by any range. The view pointer is loaded once per scan and
// every id is rechecked against the scan's snapshot — no lock is held
// while the cursor iterates.
type ordScanOp struct {
	table *Table
	idx   *Index
	qual  string
	cols  []colInfo
	spec  rangeSpec
	desc  bool
	qc    *queryCtx

	built       bool
	snap        *snapshot
	entries     []*ordEntry
	eids        []int // current entry's id list
	ekey        string
	lo, hi      int // [lo, hi) window of entries inside the range
	epos        int // current entry
	ipos        int // current position within the entry's ids
	counted     bool
	scanned     uint64 // rows this scan read (per-operator EXPLAIN ANALYZE)
	tombSkipped uint64 // invisible/superseded ids stepped over (EXPLAIN ANALYZE)
}

func (s *ordScanOp) columns() []colInfo { return s.cols }

func (s *ordScanOp) reset() { s.built = false }

// loadEntry caches the current entry's id list and key.
func (s *ordScanOp) loadEntry() {
	e := s.entries[s.epos]
	s.eids = e.entryIDs()
	s.ekey = e.val.Key()
	s.ipos = 0
}

func (s *ordScanOp) next() (Row, bool, error) {
	if !s.built {
		if s.qc != nil {
			s.snap = s.qc.snap
		}
		s.entries = s.idx.orderedEntries()
		if s.spec.bounded() {
			s.lo, s.hi = rangeStart(s.entries, s.spec.lo), rangeEnd(s.entries, s.spec.hi)
			if s.hi < s.lo {
				s.hi = s.lo
			}
		} else {
			s.lo, s.hi = 0, len(s.entries)
		}
		if s.desc {
			s.epos = s.hi - 1
		} else {
			s.epos = s.lo
		}
		if s.epos >= s.lo && s.epos < s.hi {
			s.loadEntry()
		}
		s.built = true
		if s.qc != nil && !s.counted {
			s.counted = true
			s.qc.orderedOrders++
			if s.spec.bounded() {
				s.qc.indexRangeScans++
			} else {
				s.qc.indexScans++
			}
		}
	}
	if s.qc != nil {
		if err := s.qc.tickCancelled(); err != nil {
			return nil, false, err
		}
	}
	for {
		if s.desc {
			if s.epos < s.lo {
				return nil, false, nil
			}
		} else if s.epos >= s.hi {
			return nil, false, nil
		}
		for s.ipos < len(s.eids) {
			id := s.eids[s.ipos]
			s.ipos++
			r := s.table.visibleRow(id, s.snap)
			if r == nil || r[s.idx.Column].Key() != s.ekey {
				s.tombSkipped++
				if s.qc != nil {
					s.qc.tombstonesSkipped++
				}
				continue
			}
			if s.qc != nil {
				s.qc.rowsScanned++
				s.scanned++
			}
			return r, true, nil
		}
		if s.desc {
			s.epos--
		} else {
			s.epos++
		}
		if s.epos >= s.lo && s.epos < s.hi {
			s.loadEntry()
		}
	}
}

// ---------------------------------------------------------------------------
// Sort-merge join

// mergeJoinOp equi-joins two base tables by walking both join columns'
// ordered index views in lockstep: no build phase, no hashing, O(left +
// right + output). Each ordered view has one entry per distinct value, so
// a key match is a single cross product of the two entries' visible rows
// (left-major, heap order inside). Output therefore arrives in join-key
// order — the planner only picks this operator when a top-level ORDER BY
// re-sorts the untruncated result, the same safety condition as flipping
// hash-join build sides. NULL keys never join and their entries are
// skipped via the range helpers.
type mergeJoinOp struct {
	leftTable, rightTable *Table
	leftIdx, rightIdx     *Index
	cols                  []colInfo
	leftKeyE, rightKeyE   Expr // retained for EXPLAIN
	residualE             Expr // retained for EXPLAIN
	residual              compiledExpr
	pairEnv               *evalEnv
	arena                 rowArena
	qc                    *queryCtx

	built       bool
	counted     bool
	scanned     uint64 // rows read off both ordered views (EXPLAIN ANALYZE)
	tombSkipped uint64 // invisible/superseded ids stepped over (EXPLAIN ANALYZE)
	snap        *snapshot
	le, re      []*ordEntry
	li, ri      int
	// current match block: the visible rows of an equal key
	lrows, rrows []Row
	lp, rp       int
	inBlock      bool
}

func newMergeJoinOp(lt, rt *Table, lidx, ridx *Index, leftCols, rightCols []colInfo,
	leftKeyE, rightKeyE, residual Expr,
	db *Database, params []Value, outer *evalEnv, qc *queryCtx) (*mergeJoinOp, error) {

	cols := append(append([]colInfo{}, leftCols...), rightCols...)
	m := &mergeJoinOp{
		leftTable: lt, rightTable: rt, leftIdx: lidx, rightIdx: ridx,
		cols: cols, leftKeyE: leftKeyE, rightKeyE: rightKeyE, residualE: residual,
		qc: qc,
	}
	m.pairEnv = newEvalEnv(cols, db, params, outer, qc)
	if residual != nil {
		var err error
		if m.residual, err = compileExpr(residual, m.pairEnv); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (m *mergeJoinOp) columns() []colInfo { return m.cols }

func (m *mergeJoinOp) reset() {
	m.built = false
	m.inBlock = false
}

func (m *mergeJoinOp) next() (Row, bool, error) {
	if !m.built {
		if m.qc != nil {
			m.snap = m.qc.snap
		}
		m.le = m.leftIdx.orderedEntries()
		m.re = m.rightIdx.orderedEntries()
		// Skip NULL entries: NULL keys never join.
		m.li = rangeStart(m.le, nil)
		m.ri = rangeStart(m.re, nil)
		m.inBlock = false
		m.built = true
		if m.qc != nil && !m.counted {
			m.counted = true
			m.qc.indexScans += 2
		}
	}
	if m.qc != nil {
		if err := m.qc.tickCancelled(); err != nil {
			return nil, false, err
		}
	}
	for {
		if m.inBlock {
			for m.lp < len(m.lrows) {
				lrow := m.lrows[m.lp]
				if m.rp < len(m.rrows) {
					rrow := m.rrows[m.rp]
					m.rp++
					out := m.arena.alloc(len(m.cols))
					n := copy(out, lrow)
					copy(out[n:], rrow)
					if m.residual != nil {
						m.pairEnv.row = out
						v, err := m.residual()
						if err != nil {
							return nil, false, err
						}
						if v.IsNull() || !v.AsBool() {
							continue
						}
					}
					return out, true, nil
				}
				m.rp = 0
				m.lp++
			}
			m.inBlock = false
			m.li++
			m.ri++
		}
		if m.li >= len(m.le) || m.ri >= len(m.re) {
			return nil, false, nil
		}
		c := m.le[m.li].val.Compare(m.re[m.ri].val)
		switch {
		case c < 0:
			m.li++
		case c > 0:
			m.ri++
		default:
			var lskip, rskip uint64
			m.lrows, lskip = entryRows(m.leftTable, m.leftIdx.Column, m.le[m.li], m.snap)
			m.rrows, rskip = entryRows(m.rightTable, m.rightIdx.Column, m.re[m.ri], m.snap)
			m.lp, m.rp = 0, 0
			m.inBlock = true
			m.tombSkipped += lskip + rskip
			if m.qc != nil {
				m.qc.tombstonesSkipped += lskip + rskip
				m.qc.rowsScanned += uint64(len(m.lrows) + len(m.rrows))
				m.scanned += uint64(len(m.lrows) + len(m.rrows))
			}
		}
	}
}
