package sqldb

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// This file implements the ordered half of the dual-structure Index
// (catalog.go) and the operators that exploit it. The rows are the source of
// truth — the postings hold ids by hash class and no keys, so they cannot say
// what order the keys come in. The ordered view — distinct values sorted by
// Value.Compare, each with its row ids ascending — is derived from the
// table's reachable versions on first ordered access and from then on kept
// exactly in step with them: addEntry splices into postings and view,
// removeEntry (vacuum and rollback only) takes an id out of a value's entry
// when no surviving version of its slot carries the value. Under MVCC both
// structures are supersets of what any one snapshot can see, so every
// consumer here re-checks each candidate id: fetch the version visible to the
// scan's snapshot, emit only if its indexed value equals the entry's value.
// The view serves two access paths of the one scan (vecops.go):
//
//	collectRangeIDs  materialises a range as heap-ordered row ids for
//	              plans that need scan order preserved (no ORDER BY)
//	ordWalk       hands the scan a range's ids in key order, a run at a
//	              time, letting ORDER BY ... LIMIT k read O(k) rows
//
// Order equivalence is exact, not approximate: within one entry the ids
// are ascending heap positions, so "walk entries in Compare order, ids
// within" yields precisely what a stable sort of the heap scan on that
// column yields — per snapshot, because the recheck pins each visible row
// to exactly one entry. The planner relies on this to drop sortOp without
// changing any observable ordering, including ties.
//
// Shape: the view is a short top list of pages, each at most ordChunkCap
// pointers to chunks, each chunk at most ordChunkCap sorted entries; every
// level is immutable once published. A change to one value's id list
// replaces that entry's id slice; a new or emptied value replaces its chunk,
// that chunk's page and the top list (a full chunk or page splits in two, an
// emptied one leaves its parent), so a write copies about 1 KB of chunk, at
// most 1 KB of page and 24 B per page. A new distinct value, entry and
// postings included, allocates 1,347 B at 5,000 values, 1,993 B at 20,000,
// 2,176 B at 80,000 and 2,712 B at 320,000.
//
// Concurrency: readers load the published view pointer once per scan and
// entry id lists atomically per entry, walk the view through an ordCursor
// and take no lock. Writers (under the single-writer latch, holding the
// index latch) only ever publish replacements, so a reader's loaded view
// stays internally consistent for its whole iteration; ids it still lists
// for versions the vacuum has since unlinked fail the recheck.

// ordChunkCap is the number of entries one chunk of an ordered view holds
// at most, and the number of chunks one page holds at most: the unit a new
// or emptied value copies at each level.
const ordChunkCap = 128

// ordEntry is one distinct value of an ordered index view. The id list is
// replaced copy-on-write by maintenance; entries themselves are immutable
// apart from that pointer.
type ordEntry struct {
	val Value
	ids atomic.Pointer[[]int]
}

// entryIDs loads the entry's current id list (ascending).
func (e *ordEntry) entryIDs() []int { return *e.ids.Load() }

func newOrdEntry(v Value, ids []int) *ordEntry {
	e := &ordEntry{val: v}
	e.ids.Store(&ids)
	return e
}

// ordChunk is a run of entries in key order; ordPage a run of chunks in key
// order; ordView, a published ordered view, its pages in key order. No level
// is ever empty, so the last entry of a chunk or page bounds it.
type (
	ordChunk struct{ ents []*ordEntry }
	ordPage  []*ordChunk
	ordView  []ordPage
)

func (c *ordChunk) last() *ordEntry { return c.ents[len(c.ents)-1] }
func (p ordPage) last() *ordEntry   { return p[len(p)-1].last() }

// ordPos addresses one entry of a view; {len(view), 0, 0} is the end.
type ordPos struct{ page, chunk, slot int }

func (p ordPos) before(q ordPos) bool {
	return cmp.Or(cmp.Compare(p.page, q.page), cmp.Compare(p.chunk, q.chunk), cmp.Compare(p.slot, q.slot)) < 0
}

// ordCursor walks one loaded view entry by entry in either direction.
type ordCursor struct {
	view ordView
	pos  ordPos
}

// seek returns a cursor on the first entry whose value is >= x (> x when
// strict), or at the end: one binary search per level.
func (v ordView) seek(x Value, strict bool) ordCursor {
	reached := func(e *ordEntry) bool {
		c := e.val.Compare(x)
		return c > 0 || (c == 0 && !strict)
	}
	c := ordCursor{view: v}
	if c.pos.page = sort.Search(len(v), func(i int) bool { return reached(v[i].last()) }); c.pos.page < len(v) {
		pg := v[c.pos.page]
		c.pos.chunk = sort.Search(len(pg), func(i int) bool { return reached(pg[i].last()) })
		ents := pg[c.pos.chunk].ents
		c.pos.slot = sort.Search(len(ents), func(i int) bool { return reached(ents[i]) })
	}
	return c
}

// chunk returns the chunk under the cursor, which is not at the end.
func (c *ordCursor) chunk() *ordChunk { return c.view[c.pos.page][c.pos.chunk] }

// entry returns the entry under the cursor, nil at the end.
func (c *ordCursor) entry() *ordEntry {
	if c.pos.page >= len(c.view) {
		return nil
	}
	return c.chunk().ents[c.pos.slot]
}

func (c *ordCursor) next() {
	if c.pos.slot++; c.pos.slot == len(c.chunk().ents) {
		if c.pos.slot, c.pos.chunk = 0, c.pos.chunk+1; c.pos.chunk == len(c.view[c.pos.page]) {
			c.pos = ordPos{page: c.pos.page + 1}
		}
	}
}

// prev steps back one entry; the caller knows one exists.
func (c *ordCursor) prev() {
	if c.pos.slot == 0 {
		if c.pos.chunk == 0 {
			c.pos.page--
			c.pos.chunk = len(c.view[c.pos.page])
		}
		c.pos.chunk--
		c.pos.slot = len(c.chunk().ents)
	}
	c.pos.slot--
}

// resplice returns a copy of s with s[i:j] replaced by repl, as one part,
// or as two once it outgrows ordChunkCap: halves, or s and the rest when
// tail (a key past every key), so that ascending keys leave packed chunks
// and pages behind. An emptied s yields no part.
func resplice[S ~[]E, E any](s S, i, j int, tail bool, repl ...E) (parts [2]S, n int) {
	ns := slices.Concat(s[:i], repl, s[j:])
	if len(ns) <= ordChunkCap {
		parts[0] = ns
		return parts, min(len(ns), 1)
	}
	cut := len(ns) / 2
	if tail {
		cut = len(s)
	}
	parts[0], parts[1] = ns[:cut:cut], ns[cut:]
	return parts, 2
}

// publish replaces the entries s[i:j] of the chunk under c with repl in a
// copy of that chunk, its page and the top list — the rest of the view is
// shared — and publishes the result. Caller holds idx.mu.
func (idx *Index) publish(c ordCursor, i, j int, tail bool, repl ...*ordEntry) {
	ents, n := resplice(c.chunk().ents, i, j, tail, repl...)
	var chunks [2]*ordChunk
	for k := range n {
		chunks[k] = &ordChunk{ents[k]}
	}
	pages, m := resplice(c.view[c.pos.page], c.pos.chunk, c.pos.chunk+1, tail, chunks[:n]...)
	v := slices.Concat(c.view[:c.pos.page], pages[:m], c.view[c.pos.page+1:])
	idx.ord.Store(&v)
}

// orderedView returns the index's ordered view over t, the table it
// indexes, building it under the index latch on first ordered access from
// the versions t's slots still reach. The double-checked fast path is a
// single atomic load. The build needs no writer latch: a writer publishes a
// version before addEntry files it and unlinks one before removeEntry takes
// it out, and both wait for the latch — whatever the walk saw of a change in
// flight, the call that follows adds a pair already present or removes one
// already absent, which ordAdd and ordRemove take as no-ops.
func (idx *Index) orderedView(t *Table) (ordView, error) {
	if vp := idx.ord.Load(); vp != nil {
		return *vp, nil
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	if vp := idx.ord.Load(); vp != nil {
		return *vp, nil
	}
	type pair struct {
		key Value
		id  int
	}
	pairs := make([]pair, 0, t.n.Load())
	if err := t.reachable(idx.Column, func(v Value, id int) { pairs = append(pairs, pair{indexKey(v), id}) }); err != nil {
		return nil, err
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Or(a.key.Compare(b.key), a.id-b.id) })
	// An entry per run of a key, their id lists cut from one array
	// (maintenance replaces a list, never writes into one).
	ids := make([]int, 0, len(pairs))
	var entries []*ordEntry
	for lo, hi := 0, 0; lo < len(pairs); lo = hi {
		run := len(ids)
		for ; hi < len(pairs) && pairs[hi].key == pairs[lo].key; hi++ {
			if hi == lo || pairs[hi].id != pairs[hi-1].id { // a slot carries a key once, in however many versions
				ids = append(ids, pairs[hi].id)
			}
		}
		entries = append(entries, newOrdEntry(pairs[lo].key, ids[run:len(ids):len(ids)]))
	}
	// Chunk headers and chunk pointers cut from one array each too.
	chunks := make([]ordChunk, 0, (len(entries)+ordChunkCap-1)/ordChunkCap)
	ptrs := make(ordPage, 0, cap(chunks))
	for ents := range slices.Chunk(entries, ordChunkCap) {
		chunks = append(chunks, ordChunk{ents})
		ptrs = append(ptrs, &chunks[len(chunks)-1])
	}
	v := ordView(slices.Collect(slices.Chunk(ptrs, ordChunkCap)))
	idx.ord.Store(&v)
	return v, nil
}

// ordAdd maintains a live ordered view for one added (id, value) pair:
// seek the value's entry, then copy-on-write its id list, or splice a new
// entry into its chunk and publish the copies that takes (a key past a full
// last chunk opens a chunk of its own, and past a full last page a page of
// its own, so ascending keys leave packed chunks and pages behind). Caller
// holds idx.mu. A view not yet built stays unbuilt — the first ordered
// access builds it from the rows, this one included. Reports whether a live
// view was maintained.
func (idx *Index) ordAdd(v Value, id int) bool {
	vp := idx.ord.Load()
	if vp == nil || debugFault == faultOrdMaintain {
		return false
	}
	view := *vp
	c := view.seek(v, false)
	if e := c.entry(); e != nil && e.val.Compare(v) == 0 {
		ids := e.entryIDs()
		if pos, found := slices.BinarySearch(ids, id); !found {
			cp := slices.Concat(ids[:pos], []int{id}, ids[pos:])
			e.ids.Store(&cp)
		}
		return true
	}
	e := newOrdEntry(v, []int{id})
	if len(view) == 0 {
		idx.ord.Store(&ordView{{&ordChunk{[]*ordEntry{e}}}})
		return true
	}
	tail := c.pos.page == len(view)
	if tail { // past every key: append to the last chunk
		pg := view[len(view)-1]
		c.pos = ordPos{page: len(view) - 1, chunk: len(pg) - 1, slot: len(pg[len(pg)-1].ents)}
	}
	idx.publish(c, c.pos.slot, c.pos.slot, tail, e)
	return true
}

// ordRemove drops id from v's entry in a live ordered view, and the entry
// with its last id (its chunk with its last entry, its page with its last
// chunk). Caller holds idx.mu; an absent pair is a no-op.
func (idx *Index) ordRemove(v Value, id int) {
	vp := idx.ord.Load()
	if vp == nil {
		return
	}
	c := (*vp).seek(v, false)
	e := c.entry()
	if e == nil || e.val.Compare(v) != 0 {
		return
	}
	ids := e.entryIDs()
	pos, found := slices.BinarySearch(ids, id)
	if !found {
		return
	}
	if len(ids) > 1 {
		cp := slices.Concat(ids[:pos], ids[pos+1:])
		e.ids.Store(&cp)
		return
	}
	idx.publish(c, c.pos.slot, c.pos.slot+1, false)
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
	for i, b := range []*rangeBound{s.lo, s.hi} {
		if b == nil {
			continue
		}
		op := "><"[i : i+1]
		if b.incl {
			op += "="
		}
		parts = append(parts, col+" "+op+" "+b.val.String())
	}
	if parts == nil {
		return col + " unbounded"
	}
	return strings.Join(parts, " AND ")
}

// tighten returns the stricter of two lower (side +1) or upper (side -1)
// bounds; nil is unbounded, and on equal values the exclusive bound is tighter.
func tighten(cur, nb *rangeBound, side int) *rangeBound {
	if cur == nil {
		return nb
	}
	if nb == nil {
		return cur
	}
	if c := side * nb.val.Compare(cur.val); c > 0 || (c == 0 && !nb.incl) {
		return nb
	}
	return cur
}

// rangeStart returns a cursor on the first entry inside the lower bound.
// With no lower bound NULL entries are still skipped: SQL range predicates
// are never true of NULL, and NULLs sort first under Compare.
func (v ordView) rangeStart(lo *rangeBound) ordCursor {
	if lo == nil {
		return v.seek(Null, true)
	}
	return v.seek(lo.val, !lo.incl)
}

// rangeEnd returns a cursor one past the last entry inside the upper bound.
func (v ordView) rangeEnd(hi *rangeBound) ordCursor {
	if hi == nil {
		return ordCursor{view: v, pos: ordPos{page: len(v)}}
	}
	return v.seek(hi.val, hi.incl)
}

// collectRangeIDs gathers the row ids inside the range that are visible
// to snap, in ascending heap order, so an unordered range scan emits rows
// exactly as a filtered full scan would (the property plan-equivalence
// tests rely on this under LIMIT truncation). Ids whose visible version
// no longer carries the entry's value — superset leftovers, deleted or
// not-yet-visible rows — are skipped and counted in the second return. A
// sealed row's value is read off its block alone. Returns a non-nil slice
// unless it fails.
func collectRangeIDs(t *Table, idx *Index, spec rangeSpec, snap *snapshot) ([]int, uint64, error) {
	v, err := idx.orderedView(t)
	if err != nil {
		return nil, 0, err
	}
	ids := make([]int, 0, rangeIDCount(v, spec, math.MaxInt))
	var skipped uint64
	var seek blockSeek
	for c, end := v.rangeStart(spec.lo), v.rangeEnd(spec.hi).pos; c.pos.before(end); c.next() {
		e := c.entry()
		for _, id := range e.entryIDs() {
			kv, ok, err := t.visibleValue(id, snap, idx.Column, &seek)
			if err != nil {
				return nil, 0, err
			}
			if !ok || !kv.Equal(e.val) {
				skipped++
				continue
			}
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids, skipped, nil
}

// rangeIDCount counts the ids the entries of v inside spec file, stopping
// once the count reaches limit: an upper bound on what any snapshot sees in
// the range, and the planner's estimate of an unordered range scan's size.
func rangeIDCount(v ordView, spec rangeSpec, limit int) int {
	n := 0
	for c, end := v.rangeStart(spec.lo), v.rangeEnd(spec.hi).pos; c.pos.before(end) && n < limit; c.next() {
		n += len(c.entry().entryIDs())
	}
	return n
}

// ordWalk is a scan's ordered access path (indexAccess.ordered): the
// entries of a range of an index's ordered view in key order, ids ascending
// within each, handed to the batch source in runSizes runs (ORDER BY …
// LIMIT k reads O(k) ids), each id with the value it is filed under so load
// can recheck it against the row the snapshot sees. Serial scans only: the
// walk is the one mutable part of a batchSource.
type ordWalk struct {
	runSizes
	start, cur ordCursor // ascending: the next entry; descending: one past it
	lo, hi     ordPos    // [lo, hi) window of entries inside the range
	col        int       // the indexed column, which load rechecks
	desc       bool
	runs       int // runs started since the walk (re)started

	eids []int // the current entry's ids not yet handed out
	eval Value // ... and its value
}

// newOrdWalk walks the entries of idx's ordered view of t inside spec —
// every entry, NULLs included, when spec is unbounded: they sort first
// ascending, last descending, exactly as sortOp places them.
func newOrdWalk(t *Table, idx *Index, spec rangeSpec, desc bool, first int32) (*ordWalk, error) {
	v, err := idx.orderedView(t)
	if err != nil {
		return nil, err
	}
	lo, hi := ordCursor{view: v}, v.rangeEnd(nil)
	if spec.bounded() {
		lo, hi = v.rangeStart(spec.lo), v.rangeEnd(spec.hi)
	}
	w := &ordWalk{runSizes: runSizes{first: int(first)}, start: lo, lo: lo.pos, hi: hi.pos, col: idx.Column, desc: desc}
	if desc {
		w.start = hi
	}
	w.rewind()
	return w, nil
}

// rewind restarts the walk: a scan re-pulled per outer row reads the view it
// captured the first time.
func (w *ordWalk) rewind() {
	w.cur, w.size, w.runs, w.eids = w.start, 0, 0, nil
}

// done reports whether the walk has handed out every id.
func (w *ordWalk) done() bool {
	if len(w.eids) > 0 {
		return false
	}
	if w.desc {
		return !w.lo.before(w.cur.pos)
	}
	return !w.cur.pos.before(w.hi)
}

// run starts the next run and returns how many ids it may hand out.
func (w *ordWalk) run() int {
	w.runs++
	return w.next()
}

// pop hands out the next id in key order and its value; the walk is not done.
func (w *ordWalk) pop() (int, Value) {
	if len(w.eids) == 0 {
		if w.desc {
			w.cur.prev()
		}
		e := w.cur.entry()
		if !w.desc {
			w.cur.next()
		}
		w.eids, w.eval = e.entryIDs(), e.val
	}
	id := w.eids[0]
	w.eids = w.eids[1:]
	return id, w.eval
}
