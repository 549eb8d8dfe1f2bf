package sqldb

import (
	"slices"
	"sort"
)

// This file implements the streaming tail of a SELECT plan. Where the
// FROM/WHERE stages (exec.go) were already pull-based operators, the
// projection, DISTINCT, ORDER BY and LIMIT stages used to materialise the
// whole result up front. buildSelectPlan now composes them as pull
// iterators too, so rows flow one at a time from the scans to the caller:
// a LIMIT stops pulling when its window is full, DISTINCT deduplicates as
// it streams, and only the unavoidable pipeline breakers (sort,
// aggregation) buffer rows. EXISTS and scalar subqueries pull a single
// row from their subplan instead of materialising it (compile.go).
//
// Internally, a sort key that is an output column is read where it sits in
// the row (sortKeys); only the other ORDER BY keys, which may reference input
// columns that do not survive projection, are evaluated eagerly and appended
// after the output width: project emits [out₀..outₙ₋₁, key…], distinct
// deduplicates on the out prefix, and sort strips the appended keys as it
// emits. Without them rows are exactly the output width everywhere, and a
// projection of exactly its input's columns hands its input rows up unbuilt.

// rowBuilder evaluates a select list, and the appended ORDER BY keys after
// it, into one output row: what a projection does per input row and an
// aggregation per group.
type rowBuilder struct {
	citems    []compiledExpr
	orderKeys []compiledExpr // the keys not read in place (sortKeys)
	oenv      *evalEnv       // output-row environment the keys read from
	arena     rowArena
}

func (b *rowBuilder) build() (Row, bool, error) {
	nout := len(b.citems)
	out := b.arena.alloc(nout + len(b.orderKeys))
	for i, c := range b.citems {
		v, err := c()
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	if b.orderKeys != nil {
		b.oenv.row = out
		for i, k := range b.orderKeys {
			v, err := k()
			if err != nil {
				return nil, false, err
			}
			out[nout+i] = v
		}
	}
	return out, true, nil
}

// projectOp evaluates the select items (and ORDER BY keys) per input row.
type projectOp struct {
	child   operator
	outCols []colInfo
	items   []SelectItem // retained for EXPLAIN (subplans in projections)
	env     *evalEnv     // row environment the items read from
	rowBuilder
	// fused: the scan below evaluated the items itself (vecops.go) and
	// hands up finished output rows.
	fused bool
	// pass: an identity projection with no sort key appended hands its
	// input rows up as they are.
	pass bool
}

func (p *projectOp) columns() []colInfo { return p.outCols }
func (p *projectOp) reset()             { p.child.reset() }

func (p *projectOp) next() (Row, bool, error) {
	r, ok, err := p.child.next()
	if err != nil || !ok || p.fused || p.pass {
		return r, ok, err
	}
	p.env.row = r
	return p.build()
}

// rest forwards to the child when the projection builds no rows of its own.
func (p *projectOp) rest() ([]Row, error) {
	if p.fused || p.pass {
		return drain(p.child)
	}
	return pull(p, nil)
}

// groupOp is the aggregation pipeline breaker: on first pull it drains its
// child into GROUP BY partitions (runAggregation), then streams one output
// row per group that passes HAVING.
type groupOp struct {
	stmt   *SelectStmt
	child  operator
	specs  []aggSpec // the collected aggregates
	actx   *aggCtx
	env    *evalEnv
	having compiledExpr
	rowBuilder
	outCols []colInfo
	repRows bool // something reads the row that founded a group (readsRepRow)
	db      *Database
	params  []Value
	outer   *evalEnv
	qc      *queryCtx
	// bat, when set, is the scan that folds the aggregation itself, morsel
	// by morsel (runAggregationBatch); child is then only displayed.
	bat *scanOp

	tab     *groupTable // nil until built
	aggVals []Value
	pos     int
}

func (g *groupOp) columns() []colInfo { return g.outCols }
func (g *groupOp) reset() {
	g.tab = nil
	g.pos = 0
	g.child.reset()
}

// rest builds the groups next has not yet returned into one slice sized
// for all of them (HAVING may leave it short); the first pull builds the
// table.
func (g *groupOp) rest() ([]Row, error) {
	r, ok, err := g.next()
	if !ok {
		return nil, err
	}
	return pull(g, append(make([]Row, 0, 1+g.tab.len()-g.pos), r))
}

func (g *groupOp) next() (Row, bool, error) {
	if g.tab == nil {
		var tab *groupTable
		var err error
		if g.bat != nil {
			tab, err = runAggregationBatch(g.bat)
		} else {
			tab, err = runAggregation(g.stmt, g.child, g.specs, g.repRows, g.db, g.params, g.outer, g.qc)
		}
		if err != nil {
			return nil, false, err
		}
		if len(g.stmt.GroupBy) == 0 && tab.len() == 0 {
			// Aggregates without GROUP BY yield one group over empty input:
			// untouched accumulators over an all-NULL representative row.
			tab.set.Add(nil)
			*tab.rep.at(0), tab.order = make(Row, len(g.env.cols)), nil
		}
		for i := range tab.accs {
			tab.accs[i].finish()
		}
		g.tab = tab
		g.aggVals = make([]Value, len(tab.accs))
	}
	for g.pos < g.tab.len() {
		class := g.pos
		if g.tab.order != nil {
			class = int(g.tab.order[g.pos])
		}
		g.pos++
		g.env.row = g.tab.rep.get(class)
		g.actx.groupKeys = g.tab.set.Tuple(class)
		for i := range g.tab.accs {
			g.aggVals[i] = g.tab.accs[i].result(class)
		}
		g.actx.aggVals = g.aggVals
		if g.having != nil {
			hv, err := g.having()
			if err != nil {
				return nil, false, err
			}
			if hv.IsNull() || !hv.AsBool() {
				continue
			}
		}
		return g.build()
	}
	return nil, false, nil
}

// distinctOp streams rows, dropping any whose first width values repeat
// an earlier row (first occurrence wins, as before).
type distinctOp struct {
	child operator
	width int
	seen  TupleSet
}

func (d *distinctOp) columns() []colInfo { return d.child.columns() }
func (d *distinctOp) reset() {
	d.seen = TupleSet{}
	d.child.reset()
}

func (d *distinctOp) next() (Row, bool, error) {
	for {
		r, ok, err := d.child.next()
		if err != nil || !ok {
			return nil, false, err
		}
		if _, first := d.seen.Add(r[:d.width]); first {
			return r, true, nil
		}
	}
}

// sortOp is the ORDER BY pipeline breaker: it drains its child on first
// pull, stable-sorts on the keys where they sit (sortKeys), and emits rows
// stripped back to the output width. When the statement has a LIMIT (and the
// planner could not serve the order from an index), topK bounds the sort:
// only the first topK rows of the sorted order are retained in a max-heap
// (topKHeap) while draining — O(n log k) with k live rows instead of sorting
// and slicing the whole input.
type sortOp struct {
	child operator
	keys  *sortKeys
	topK  int // -1 = keep everything
	// bat, when set, is the scan that keeps the top-K itself, morsel by
	// morsel (drainTopK); child is then only displayed.
	bat *scanOp
	// presorted is the count of leading sort keys the input order already
	// satisfies (an elided index order). When positive the operator is no
	// longer a full pipeline breaker: it streams runs of rows equal on
	// those keys, stable-sorting each run on the remaining keys — memory is
	// O(largest run) and a LIMIT above it stops pulling after O(k) rows
	// plus one run, which is what keeps ORDER BY a, b LIMIT k cheap when
	// only `a` is indexed.
	presorted int

	built   bool
	drained uint64 // input rows pulled (per-operator EXPLAIN ANALYZE)
	rows    []Row
	pos     int

	// Grouped (presorted) streaming state.
	run     []Row
	runPos  int
	pendRow Row
	pendOK  bool
	eof     bool
}

func (s *sortOp) columns() []colInfo { return s.child.columns() }
func (s *sortOp) reset() {
	s.built = false
	s.rows = nil
	s.pos = 0
	s.run = nil
	s.runPos = 0
	s.pendOK = false
	s.eof = false
	s.child.reset()
}

// open drains the child and sorts it on first pull (a full sort).
func (s *sortOp) open() (err error) {
	if s.built {
		return nil
	}
	if s.topK >= 0 {
		s.rows, err = s.drainTopK()
	} else if s.rows, err = drain(s.child); err == nil {
		s.drained += uint64(len(s.rows))
		sort.SliceStable(s.rows, func(a, b int) bool {
			return s.keys.compare(s.rows[a], s.rows[b], 0, len(s.keys.at)) < 0
		})
	}
	s.built = err == nil
	return err
}

// rest hands over the rows a full sort has not yet emitted, stripped to the
// output width in place; a presorted sort streams them.
func (s *sortOp) rest() ([]Row, error) {
	if s.presorted > 0 {
		return pull(s, nil)
	}
	if err := s.open(); err != nil {
		return nil, err
	}
	rows := s.rows[s.pos:]
	s.pos = len(s.rows)
	for i, r := range rows {
		rows[i] = r[:s.keys.width:s.keys.width]
	}
	return rows, nil
}

func (s *sortOp) next() (Row, bool, error) {
	if s.presorted > 0 {
		return s.nextGrouped()
	}
	if err := s.open(); err != nil {
		return nil, false, err
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r[:s.keys.width:s.keys.width], true, nil
}

// nextGrouped is the presorted streaming mode: buffer one run of rows
// equal on the leading presorted keys, stable-sort it on the remaining
// keys, emit, repeat. Within a run the input arrives in exactly the order
// the full stable sort would visit it (the elided index order ties on
// heap order), so each sorted run — and therefore the whole stream — is
// bit-identical to the full sort's output.
func (s *sortOp) nextGrouped() (Row, bool, error) {
	for {
		if s.runPos < len(s.run) {
			r := s.run[s.runPos]
			s.runPos++
			return r[:s.keys.width:s.keys.width], true, nil
		}
		if s.eof {
			return nil, false, nil
		}
		s.run = s.run[:0]
		s.runPos = 0
		if s.pendOK {
			s.run = append(s.run, s.pendRow)
			s.pendOK = false
		}
		for {
			r, ok, err := s.child.next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				s.eof = true
				break
			}
			s.drained++
			if len(s.run) > 0 && s.keys.compare(s.run[0], r, 0, s.presorted) != 0 {
				s.pendRow, s.pendOK = r, true
				break
			}
			s.run = append(s.run, r)
		}
		if len(s.run) == 0 {
			return nil, false, nil
		}
		sort.SliceStable(s.run, func(a, b int) bool {
			return s.keys.compare(s.run[a], s.run[b], s.presorted, len(s.keys.at)) < 0
		})
	}
}

// sortKeys says where each ORDER BY key sits in the rows a sort is offered:
// at the output column it reads in place (outColumn), or appended after the
// output width, in key order — rows are [out…, appended keys…] and wide
// long.
type sortKeys struct {
	orderBy     []OrderItem
	at          []int
	width, wide int
}

// newSortKeys places each key of orderBy over the select list.
func newSortKeys(orderBy []OrderItem, items []SelectItem, outCols, in []colInfo) *sortKeys {
	k := &sortKeys{orderBy: orderBy, at: make([]int, len(orderBy)), width: len(outCols), wide: len(outCols)}
	for i, ob := range orderBy {
		if k.at[i] = outColumn(ob.Expr, items, outCols, in); k.at[i] < 0 {
			k.at[i], k.wide = k.wide, k.wide+1
		}
	}
	return k
}

// compare orders two rows on keys [from, to): <0, 0, >0.
func (k *sortKeys) compare(a, b Row, from, to int) int {
	for j := from; j < to; j++ {
		if c := a[k.at[j]].Compare(b[k.at[j]]); c != 0 {
			if k.orderBy[j].Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// outColumn is the output column ORDER BY key e reads in place, or -1: an
// ordinal in range, a bare name exactly one output column answers to (ORDER
// BY resolves the output first), or a column of the input, named by no
// output column, that an item projects plainly.
func outColumn(e Expr, items []SelectItem, outCols, in []colInfo) int {
	switch t := e.(type) {
	case *Literal:
		if t.Val.Kind() == KindInt && t.Val.AsInt() >= 1 && t.Val.AsInt() <= int64(len(outCols)) {
			return int(t.Val.AsInt()) - 1
		}
	case *ColumnRef:
		switch j, n := findCol(outCols, t.Table, t.Column); {
		case n == 1:
			return j
		case n > 1:
			return -1 // ambiguous: the compiled key reports it
		}
		if k := inputColumn(t, in); k >= 0 {
			for j, it := range items {
				if c, ok := it.Expr.(*ColumnRef); ok && inputColumn(c, in) == k {
					return j
				}
			}
		}
	}
	return -1
}

// inputColumn is the one input column c names, or -1.
func inputColumn(c *ColumnRef, in []colInfo) int {
	if k, n := findCol(in, c.Table, c.Column); n == 1 {
		return k
	}
	return -1
}

// topkRow pairs a row with its arrival ordinal so ties break exactly as
// the stable sort would: earlier input first.
type topkRow struct {
	row Row
	seq int
}

// topKHeap retains the first k rows of a sort order out of the extended rows
// [out…, appended keys…] it is offered: a max-heap by (sort keys, arrival ordinal) —
// a total order, so the root, the retained row sorting last, is well
// defined. An offered row stays its producer's: one that enters is copied,
// into the storage of the row it evicts once the heap is full. The row-path
// sortOp keeps one heap; a scan the sort is folded into, one per
// instance (vecops.go).
type topKHeap struct {
	k       int
	keys    *sortKeys
	h       []topkRow
	offered uint64
}

// after reports whether a sorts after b in the output order.
func (t *topKHeap) after(a, b topkRow) bool {
	if c := t.keys.compare(a.row, b.row, 0, len(t.keys.at)); c != 0 {
		return c > 0
	}
	return a.seq > b.seq
}

// offer considers row r, arriving at ordinal seq.
func (t *topKHeap) offer(r Row, seq int) {
	t.offered++
	e := topkRow{row: r, seq: seq}
	i := len(t.h)
	switch {
	case i < t.k:
		if debugFault != faultRowCopy {
			e.row = r.Clone()
		}
		t.h = append(t.h, e)
		for i > 0 { // sift up
			p := (i - 1) / 2
			if !t.after(t.h[i], t.h[p]) {
				break
			}
			t.h[i], t.h[p] = t.h[p], t.h[i]
			i = p
		}
	case t.k > 0 && t.after(t.h[0], e):
		if debugFault != faultRowCopy {
			e.row = t.h[0].row
			copy(e.row, r)
		}
		t.h[0] = e
		for i = 0; ; { // sift down
			lt, rt, big := 2*i+1, 2*i+2, i
			if lt < len(t.h) && t.after(t.h[lt], t.h[big]) {
				big = lt
			}
			if rt < len(t.h) && t.after(t.h[rt], t.h[big]) {
				big = rt
			}
			if big == i {
				break
			}
			t.h[i], t.h[big] = t.h[big], t.h[i]
			i = big
		}
	}
}

// sortedTopK merges heaps into the first k rows of the order, keys still
// attached.
func sortedTopK(heaps ...*topKHeap) []Row {
	t := heaps[0]
	all := t.h
	for _, o := range heaps[1:] {
		all = append(all, o.h...)
	}
	sort.Slice(all, func(a, b int) bool { return t.after(all[b], all[a]) })
	rows := make([]Row, min(len(all), t.k))
	for i := range rows {
		rows[i] = all[i].row
	}
	return rows
}

// drainTopK retains the first topK rows of the sorted order. The input is
// consumed fully even when topK is 0, so that execution errors surface
// exactly as they would from a full sort. A sort folded into its scan
// has every instance keep the first rows among the morsels it ran (topBatch)
// and merges at most workers×topK of them.
func (s *sortOp) drainTopK() ([]Row, error) {
	var heaps []*topKHeap
	if s.bat != nil {
		insts, err := runFold(s.bat, (*scanOp).topBatch)
		if err != nil {
			return nil, err
		}
		for _, inst := range insts {
			heaps = append(heaps, inst.fold.top)
		}
	} else {
		t := &topKHeap{k: s.topK, keys: s.keys}
		heaps = append(heaps, t)
		for seq := 0; ; seq++ {
			r, ok, err := s.child.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			t.offer(r, seq)
		}
	}
	for _, t := range heaps {
		s.drained += t.offered
	}
	return sortedTopK(heaps...), nil
}

// limitOp applies the OFFSET/LIMIT window and — crucially — stops pulling
// from its child once the window is full, which is what lets a
// `SELECT ... LIMIT k` read only O(k) rows.
type limitOp struct {
	child   operator
	skip    int
	limit   int // -1 = unlimited
	skipped bool
	emitted int
	done    bool
}

func (l *limitOp) columns() []colInfo { return l.child.columns() }
func (l *limitOp) reset() {
	l.skipped = false
	l.emitted = 0
	l.done = false
	l.child.reset()
}

func (l *limitOp) next() (Row, bool, error) {
	if l.done {
		return nil, false, nil
	}
	if !l.skipped {
		for i := 0; i < l.skip; i++ {
			_, ok, err := l.child.next()
			if err != nil || !ok {
				l.done = true
				return nil, false, err
			}
		}
		l.skipped = true
	}
	if l.limit >= 0 && l.emitted >= l.limit {
		l.done = true
		return nil, false, nil
	}
	r, ok, err := l.child.next()
	if err != nil || !ok {
		l.done = true
		return nil, false, err
	}
	l.emitted++
	return r, true, nil
}

// buildSelectPlan plans a SELECT end to end and returns the root operator
// plus the output schema. Pulling the root yields exactly the statement's
// result rows, one at a time.
func buildSelectPlan(stmt *SelectStmt, db *Database, params []Value, outer *evalEnv, topLevel bool, qc *queryCtx) (operator, []colInfo, error) {
	src, where, err := buildFrom(stmt, db, params, outer, topLevel, qc)
	if err != nil {
		return nil, nil, err
	}
	// The rest of the WHERE: the conjuncts that call no batch-form function
	// go to a single table's scan, or a filter above the joins; then each
	// conjunct that does gets a filter of its own, so those see only the rows
	// every cheaper conjunct kept, however the text ordered them.
	var batch []Expr
	if qc.callsBatchFunc(where) {
		var cheap []Expr
		for _, c := range splitConjuncts(where) {
			if qc.callsBatchFunc(c) {
				batch = append(batch, c)
			} else {
				cheap = append(cheap, c)
			}
		}
		where = joinConjuncts(cheap)
	}
	if sc, ok := src.(*scanOp); ok && where != nil {
		sc.preds = append(sc.preds, splitConjuncts(where)...)
	} else if where != nil {
		if src, err = newFilterOp(src, where, db, params, outer, qc); err != nil {
			return nil, nil, err
		}
	}
	var lms []*filterOp // the filters that gather batch-form calls
	for _, c := range batch {
		f, err := newFilterOp(src, c, db, params, outer, qc)
		if err != nil {
			return nil, nil, err
		}
		src, lms = f, append(lms, f)
	}

	aggregate := len(stmt.GroupBy) > 0 || stmt.Having != nil ||
		slices.ContainsFunc(stmt.Items, func(it SelectItem) bool { return exprContainsAggregate(it.Expr) })

	items, outCols, err := expandItems(stmt.Items, src.columns())
	if err != nil {
		return nil, nil, err
	}

	// Order-aware access path: when the leading ORDER BY key is an indexed
	// column of the statement's one base table, the scan walks the index in
	// key order (ordWalk) — the index's ordered view yields exactly what the
	// stable sort would, so this is safe for subqueries and truncated
	// results too, and it is what makes `ORDER BY col LIMIT k` read O(k)
	// rows. A single key drops the sort entirely; trailing keys keep a
	// streaming tie-sort (sortOp.presorted) that only buffers runs of
	// equal leading-key rows. Multi-key elision is skipped under DISTINCT:
	// dedup keeps first-arriving representatives, and index order changes
	// which row arrives first.
	var walk *scanOp
	if !aggregate && len(stmt.OrderBy) >= 1 && len(stmt.Joins) == 0 &&
		(len(stmt.OrderBy) == 1 || !stmt.Distinct) {
		walk = tryOrderedScan(stmt, items, outCols, src)
	}
	orderElided := walk != nil

	// needSort: an ORDER BY the index order does not already satisfy. A
	// fully elided single-key order stacks no sortOp at all (rows carry no
	// key extension); an elided leading key with trailing keys keeps a
	// streaming tie-sort over all the keys.
	needSort := len(stmt.OrderBy) > 0 && (!orderElided || len(stmt.OrderBy) > 1)
	var keys *sortKeys
	if needSort {
		keys = newSortKeys(stmt.OrderBy, items, outCols, src.columns())
	}
	// An identity projection: the items are exactly the input's columns in
	// order, as star expansion stamps them (expandItems) — SELECT * or t.*
	// over one table, a.*, b.* over a join in FROM order.
	pass := !aggregate && (keys == nil || keys.wide == keys.width) && len(items) == len(src.columns())
	for i, it := range items {
		c, ok := it.Expr.(*ColumnRef)
		pass = pass && ok && c.index == i
	}

	// Collect the aggregate calls the query references anywhere.
	var aggs []*FuncCall
	var specs []aggSpec
	if aggregate {
		for _, it := range items {
			aggs = collectAggregates(it.Expr, aggs)
		}
		if stmt.Having != nil {
			aggs = collectAggregates(stmt.Having, aggs)
		}
		for _, ob := range stmt.OrderBy {
			aggs = collectAggregates(ob.Expr, aggs)
		}
		if specs, err = newAggSpecs(aggs, db, params, qc); err != nil {
			return nil, nil, err
		}
	}

	// LIMIT / OFFSET are constant expressions; fold them at plan time.
	start, limit := 0, -1
	if stmt.Offset != nil {
		ov, err := evalConst(stmt.Offset, db, params, qc)
		if err != nil {
			return nil, nil, err
		}
		if start = int(ov.AsInt()); start < 0 {
			start = 0
		}
	}
	if stmt.Limit != nil {
		lv, err := evalConst(stmt.Limit, db, params, qc)
		if err != nil {
			return nil, nil, err
		}
		limit = int(lv.AsInt())
	}

	// The limit window is all a full sort must keep (topK). The grouped
	// tie-sort ignores it: it streams, and the limitOp above stops pulling
	// once the window fills — so, as under a LIMIT nothing sorts or groups
	// under, an ordered walk and the call windows start at what it asks
	// for, and a subquery's, pulled a row at a time, at one (runSizes).
	topK, first := -1, morselSize
	if needSort && !orderElided && limit >= 0 {
		topK = start + limit
	}
	if limit >= 0 && !aggregate && (!needSort || orderElided) {
		first = max(1, min(start+limit, morselSize))
	} else if !topLevel {
		first = 1
	}
	if walk != nil {
		walk.first = int32(first)
	}

	// Batch-form calls in the select list or the sort keys are gathered by a
	// filter under the projection that passes every row; it holds a window of
	// input rows, so the scan below emits table rows. Otherwise the scan may
	// absorb what sits above it (vecops.go).
	shape := scanShape{
		stmt: stmt, items: items, aggregate: aggregate, aggs: aggs, specs: specs,
		repRows:  aggregate && readsRepRow(stmt, items, outCols),
		needSort: needSort, pass: pass, poolable: topLevel && outer == nil, topK: topK,
	}
	if topK >= 0 && !aggregate && !stmt.Distinct && keys.foldable(items, outCols) {
		shape.order = keys
	}
	if qc != nil && qc.lent != nil && !aggregate {
		for _, it := range items {
			shape.windowed = shape.windowed || qc.callsBatchFunc(it.Expr)
		}
		for _, ob := range stmt.OrderBy {
			shape.windowed = shape.windowed || qc.callsBatchFunc(ob.Expr)
		}
	}
	var bscan *scanOp
	if src, bscan, err = planScan(src, shape, db, params, outer, qc); err != nil {
		return nil, nil, err
	}
	var gather *filterOp
	if shape.windowed {
		gather = &filterOp{child: src, win: &callWindow{}}
		src, lms = gather, append(lms, gather)
	}
	for _, b := range lms {
		b.win.first = first
	}

	// env is the row environment the projection (and HAVING, and the input
	// side of ORDER BY) evaluates in. Under aggregation its row is the
	// group's representative row and env.agg carries the group context.
	env := newEvalEnv(src.columns(), db, params, outer, qc)
	if gather != nil {
		gather.env, env.sites = env, &gather.win.sites
	}

	var oenv *evalEnv
	var orderKeys []compiledExpr
	compileOrder := func() error {
		if !needSort {
			return nil
		}
		// ORDER BY resolves output aliases first, then input columns.
		oenv = newEvalEnv(outCols, db, params, env, qc)
		oenv.agg = env.agg
		for i, ob := range stmt.OrderBy {
			if keys.at[i] < keys.width {
				continue // read in place
			}
			// A key whose batch-form calls are gathered ahead reads the input
			// row alone (the output row is not built yet): it is compiled
			// against the input where that cannot change what its names mean.
			kenv := oenv
			if gather != nil && qc.callsBatchFunc(ob.Expr) && readsInputOnly(ob.Expr, items, outCols) {
				kenv = env
			}
			if lit, ok := ob.Expr.(*Literal); ok && lit.Val.Kind() == KindInt {
				return errf(ErrMisuse, "sql: ORDER BY ordinal %d out of range", lit.Val.AsInt())
			}
			k, err := compileExpr(ob.Expr, kenv)
			if err != nil {
				return err
			}
			orderKeys = append(orderKeys, k)
		}
		return nil
	}

	var actx *aggCtx
	if aggregate {
		groupStrs := make([]string, len(stmt.GroupBy))
		for i, g := range stmt.GroupBy {
			groupStrs[i] = g.String()
		}
		actx = &aggCtx{groupStrs: groupStrs, aggs: aggs}
		env.agg = actx
	}
	fused := !aggregate && bscan != nil && bscan.proj != nil
	var citems []compiledExpr
	if !fused && !pass { // a fused scan compiled the items into its own pipeline
		citems = make([]compiledExpr, len(items))
		for i, it := range items {
			if citems[i], err = compileExpr(it.Expr, env); err != nil {
				return nil, nil, err
			}
		}
	}
	var having compiledExpr
	if stmt.Having != nil {
		if having, err = compileExpr(stmt.Having, env); err != nil {
			return nil, nil, err
		}
	}
	if err := compileOrder(); err != nil {
		return nil, nil, err
	}
	var root operator
	rb := rowBuilder{citems: citems, orderKeys: orderKeys, oenv: oenv}
	if aggregate {
		g := &groupOp{
			stmt: stmt, child: src, specs: specs, repRows: shape.repRows, actx: actx, env: env, having: having,
			rowBuilder: rb, outCols: outCols, db: db, params: params, outer: outer, qc: qc,
		}
		if bscan != nil && bscan.folds {
			g.bat = bscan
		}
		root = g
	} else {
		root = &projectOp{child: src, outCols: outCols, items: items, env: env, fused: fused, pass: pass, rowBuilder: rb}
	}
	if !pass {
		lendRows(src) // both read each input row and drop it
	}

	if stmt.Distinct {
		root = &distinctOp{child: root, width: len(outCols)}
	}
	if needSort {
		presorted := 0
		if orderElided {
			presorted = 1
		}
		if topK >= 0 {
			lendRows(root) // the heap copies the rows it keeps
		}
		so := &sortOp{child: root, keys: keys, topK: topK, presorted: presorted}
		if bscan != nil && bscan.order != nil {
			so.bat = bscan
		}
		root = so
	}
	if start > 0 || limit >= 0 {
		root = &limitOp{child: root, skip: start, limit: limit}
	}
	return root, outCols, nil
}

// readsInputOnly reports whether ORDER BY key e means the same resolved
// against the projection's input as against its output, which ORDER BY tries
// first: every bare name an output column answers to is that column's own
// plain, bare reference to the input, and no subquery hides a name.
func readsInputOnly(e Expr, items []SelectItem, outCols []colInfo) bool {
	same := true
	walkExpr(e, func(x Expr) bool {
		if cr, ok := x.(*ColumnRef); ok && cr.Table == "" {
			if j, n := findCol(outCols, "", cr.Column); n > 0 {
				src, plain := items[j].Expr.(*ColumnRef)
				same = same && n == 1 && plain && src.Table == "" && nameEq(src.Column, cr.Column)
			}
		}
		same = same && !isSubqueryNode(x)
		return same
	})
	return same
}

// lendRows tells the producers at the head of a chain that their consumer
// reads each row and drops it (the row-lifetime rule, exec.go) — a
// projection, an aggregation, a top-K sort, the probe side of a join, a
// cursor whose caller drops each row (queryRows) — so they build, or decode
// from sealed blocks, every row in one buffer. Filters, DISTINCT, LIMIT and
// an identity projection pass rows through; a join's probe input feeds such
// a consumer in turn.
// Everything else keeps the default: a drained build side or derived table,
// a full sort and a cursor that hands its rows to the caller own the rows
// they are handed.
func lendRows(op operator) {
	for {
		switch t := op.(type) {
		case *filterOp:
			if t.win != nil {
				return // holds a window of the rows it is handed
			}
			op = t.child
		case *distinctOp:
			op = t.child
		case *limitOp:
			op = t.child
		case *hashJoinOp:
			t.arena.reuse, op = true, t.probe
		case *indexJoinOp:
			t.arena.reuse, op = true, t.probe
		case *projectOp:
			if t.pass {
				op = t.child
				continue
			}
			t.arena.reuse = true
			if s, ok := t.child.(*scanOp); ok && t.fused {
				s.arena.reuse = true // the scan builds the projection's rows
			}
			return
		case *groupOp:
			t.arena.reuse = true
			return
		case *scanOp: // the scans decode sealed rows in one buffer
			t.lent = true
			return
		default:
			return
		}
	}
}

// foldable reports whether a scan can evaluate the keys of a sort folded
// into it (vecops.go): each key not read in place reads the scan's columns
// alone (readsInputOnly) and is no ordinal, which would be out of range, an
// error the row path reports first.
func (k *sortKeys) foldable(items []SelectItem, outCols []colInfo) bool {
	for i, ob := range k.orderBy {
		lit, ordinal := ob.Expr.(*Literal)
		if k.at[i] >= k.width && (ordinal && lit.Val.Kind() == KindInt || !readsInputOnly(ob.Expr, items, outCols)) {
			return false
		}
	}
	return true
}

// tryOrderedScan decides whether the statement's single ORDER BY key can
// be served by walking the base table in index order. The source chain
// must bottom out in a scanOp (filters pass order through); the key must
// be a bare or correctly-qualified reference to an indexed column of that
// scan; and — because ORDER BY resolves output names first — it must read
// that very column: as an output column that projects it plainly or, with
// no output column of its name, as the input. DISTINCT keeps each group's
// first-arriving row and orders groups by that representative's key, which
// index order reproduces only when the key is part of the deduplicated row.
// If the scan carries a range restriction it must be on the same column,
// and bounds the walk. On success the scan's access path becomes the
// ordered walk (its conjuncts stay its own) and the scan is returned; nil
// otherwise.
func tryOrderedScan(stmt *SelectStmt, items []SelectItem, outCols []colInfo, src operator) *scanOp {
	for f, ok := src.(*filterOp); ok; f, ok = src.(*filterOp) {
		src = f.child
	}
	sc, ok := src.(*scanOp)
	if !ok || sc.ids != nil || sc.probe != nil {
		return nil
	}
	ob := stmt.OrderBy[0]
	cr, ok := ob.Expr.(*ColumnRef)
	if !ok {
		return nil
	}
	idx := indexFor(sc.table, sc.qual, cr)
	if idx == nil || sc.rangeIdx != nil && sc.rangeIdx != idx {
		return nil
	}
	if j := outColumn(cr, items, outCols, sc.cols); j >= 0 {
		if c, plain := items[j].Expr.(*ColumnRef); !plain || inputColumn(c, sc.cols) != idx.Column {
			return nil
		}
	} else if _, n := findCol(outCols, cr.Table, cr.Column); n > 0 || stmt.Distinct {
		return nil
	}
	sc.rangeIdx, sc.ordered, sc.desc = idx, true, ob.Desc
	return sc
}
