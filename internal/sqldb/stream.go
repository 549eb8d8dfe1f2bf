package sqldb

import (
	"sort"
	"strings"
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
// Internally, when the statement has an ORDER BY, each projected row is
// extended with its eagerly evaluated sort keys (they may reference input
// columns that do not survive projection): project emits
// [out₀..outₙ₋₁, key₀..keyₘ₋₁], distinct deduplicates on the out prefix,
// and sort strips the keys as it emits. Without ORDER BY rows are exactly
// the output width everywhere.

// projectOp evaluates the select items (and ORDER BY keys) per input row.
type projectOp struct {
	child     operator
	outCols   []colInfo
	items     []SelectItem // retained for EXPLAIN (subplans in projections)
	env       *evalEnv     // row environment the items read from
	citems    []compiledExpr
	orderKeys []compiledExpr // nil without ORDER BY
	oenv      *evalEnv       // output-row environment the keys read from
	// fused: the batch scan below evaluated the items itself (vecops.go) and
	// hands up finished output rows.
	fused bool
	arena rowArena
}

func (p *projectOp) columns() []colInfo { return p.outCols }
func (p *projectOp) reset()             { p.child.reset() }

func (p *projectOp) next() (Row, bool, error) {
	if p.fused {
		return p.child.next()
	}
	r, ok, err := p.child.next()
	if err != nil || !ok {
		return nil, false, err
	}
	p.env.row = r
	nout := len(p.citems)
	out := p.arena.alloc(nout + len(p.orderKeys))
	for i, c := range p.citems {
		v, err := c()
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	if p.orderKeys != nil {
		p.oenv.row = out
		for i, k := range p.orderKeys {
			v, err := k()
			if err != nil {
				return nil, false, err
			}
			out[nout+i] = v
		}
	}
	return out, true, nil
}

// groupOp is the aggregation pipeline breaker: on first pull it drains its
// child into GROUP BY partitions (runAggregation), then streams one output
// row per group that passes HAVING.
type groupOp struct {
	stmt      *SelectStmt
	child     operator
	aggs      []*FuncCall
	actx      *aggCtx
	env       *evalEnv
	citems    []compiledExpr
	having    compiledExpr
	orderKeys []compiledExpr
	oenv      *evalEnv
	outCols   []colInfo
	db        *Database
	params    []Value
	outer     *evalEnv
	qc        *queryCtx
	// bat, when set, is the batch scan that folds the aggregation itself,
	// morsel by morsel (runAggregationBatch); child is then only displayed.
	bat *vecScanOp

	built   bool
	groups  []*aggGroup
	aggVals []Value
	pos     int
	arena   rowArena
}

func (g *groupOp) columns() []colInfo { return g.outCols }
func (g *groupOp) reset() {
	g.built = false
	g.groups = nil
	g.pos = 0
	g.child.reset()
}

func (g *groupOp) next() (Row, bool, error) {
	if !g.built {
		var groups []*aggGroup
		var err error
		if g.bat != nil {
			groups, err = runAggregationBatch(g.bat)
		} else {
			groups, err = runAggregation(g.stmt, g.child, g.aggs, g.db, g.params, g.outer, g.qc)
		}
		if err != nil {
			return nil, false, err
		}
		g.groups = groups
		g.aggVals = make([]Value, len(g.aggs))
		g.built = true
	}
	for g.pos < len(g.groups) {
		grp := g.groups[g.pos]
		g.pos++
		g.env.row = grp.repRow
		g.actx.groupKeys = grp.keys
		for i, st := range grp.states {
			g.aggVals[i] = st.result()
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
		nout := len(g.citems)
		out := g.arena.alloc(nout + len(g.orderKeys))
		for i, c := range g.citems {
			v, err := c()
			if err != nil {
				return nil, false, err
			}
			out[i] = v
		}
		if g.orderKeys != nil {
			g.oenv.row = out
			for i, k := range g.orderKeys {
				v, err := k()
				if err != nil {
					return nil, false, err
				}
				out[nout+i] = v
			}
		}
		return out, true, nil
	}
	return nil, false, nil
}

// distinctOp streams rows, dropping any whose first width values repeat
// an earlier row (first occurrence wins, as before).
type distinctOp struct {
	child operator
	width int
	seen  map[string]bool
	kb    []byte
}

func (d *distinctOp) columns() []colInfo { return d.child.columns() }
func (d *distinctOp) reset() {
	d.seen = nil
	d.child.reset()
}

func (d *distinctOp) next() (Row, bool, error) {
	if d.seen == nil {
		d.seen = make(map[string]bool)
	}
	for {
		r, ok, err := d.child.next()
		if err != nil || !ok {
			return nil, false, err
		}
		d.kb = appendRowKey(d.kb[:0], r[:d.width])
		if d.seen[string(d.kb)] {
			continue
		}
		d.seen[string(d.kb)] = true
		return r, true, nil
	}
}

// sortOp is the ORDER BY pipeline breaker: it drains its child on first
// pull, stable-sorts on the trailing key columns, and emits rows stripped
// back to the output width. When the statement has a LIMIT (and the
// planner could not serve the order from an index), topK bounds the sort:
// only the first topK rows of the sorted order are retained in a max-heap
// while draining — O(n log k) with k live rows instead of sorting and
// slicing the whole input.
type sortOp struct {
	child   operator
	width   int
	orderBy []OrderItem
	topK    int // -1 = keep everything
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

func (s *sortOp) next() (Row, bool, error) {
	if s.presorted > 0 {
		return s.nextGrouped()
	}
	if !s.built {
		var rows []Row
		var err error
		if s.topK >= 0 {
			rows, err = s.drainTopK()
		} else {
			rows, err = drain(s.child)
			if err == nil {
				s.drained += uint64(len(rows))
				sort.SliceStable(rows, func(a, b int) bool {
					return s.keyLess(rows[a], rows[b]) < 0
				})
			}
		}
		if err != nil {
			return nil, false, err
		}
		s.rows = rows
		s.built = true
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r[:s.width:s.width], true, nil
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
			return r[:s.width:s.width], true, nil
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
			if len(s.run) > 0 && !s.sameRun(s.run[0], r) {
				s.pendRow, s.pendOK = r, true
				break
			}
			s.run = append(s.run, r)
		}
		if len(s.run) == 0 {
			return nil, false, nil
		}
		sort.SliceStable(s.run, func(a, b int) bool {
			return s.keyLessFrom(s.run[a], s.run[b], s.presorted) < 0
		})
	}
}

// sameRun reports whether two extended rows agree on the leading
// presorted keys.
func (s *sortOp) sameRun(a, b Row) bool {
	for j := 0; j < s.presorted; j++ {
		if a[s.width+j].Compare(b[s.width+j]) != 0 {
			return false
		}
	}
	return true
}

// keyLess compares two extended rows on the trailing sort keys: <0, 0, >0.
func (s *sortOp) keyLess(a, b Row) int { return s.keyLessFrom(a, b, 0) }

// keyLessFrom compares on the sort keys starting at key index from.
func (s *sortOp) keyLessFrom(a, b Row, from int) int {
	for j := from; j < len(s.orderBy); j++ {
		c := a[s.width+j].Compare(b[s.width+j])
		if c != 0 {
			if s.orderBy[j].Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// topkRow pairs a row with its arrival ordinal so ties break exactly as
// the stable sort would: earlier input first.
type topkRow struct {
	row Row
	seq int
}

// drainTopK pulls the whole child but retains only the first topK rows of
// the sorted order, using a max-heap ordered by (sort keys, arrival).
// The child is drained fully even when topK is 0 so that execution
// errors surface exactly as they would from a full sort.
func (s *sortOp) drainTopK() ([]Row, error) {
	// after reports whether a sorts after b in the output order; it is a
	// total order thanks to the unique arrival ordinal, so the heap's
	// "worst" root is well defined.
	after := func(a, b topkRow) bool {
		if c := s.keyLess(a.row, b.row); c != 0 {
			return c > 0
		}
		return a.seq > b.seq
	}
	var h []topkRow // max-heap: root sorts after every other retained row
	siftUp := func(i int) {
		for i > 0 {
			p := (i - 1) / 2
			if !after(h[i], h[p]) {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(h) && after(h[l], h[big]) {
				big = l
			}
			if r < len(h) && after(h[r], h[big]) {
				big = r
			}
			if big == i {
				return
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
	}
	seq := 0
	for {
		r, ok, err := s.child.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		e := topkRow{row: r, seq: seq}
		seq++
		s.drained++
		if s.topK == 0 {
			continue
		}
		if len(h) < s.topK {
			h = append(h, e)
			siftUp(len(h) - 1)
			continue
		}
		if after(h[0], e) {
			h[0] = e
			siftDown(0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return after(h[b], h[a]) })
	rows := make([]Row, len(h))
	for i, e := range h {
		rows[i] = e.row
	}
	return rows, nil
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
	if where != nil {
		f, err := newFilterOp(src, where, db, params, outer, qc)
		if err != nil {
			return nil, nil, err
		}
		src = f
	}

	aggregate := len(stmt.GroupBy) > 0
	if !aggregate {
		for _, it := range stmt.Items {
			if exprContainsAggregate(it.Expr) {
				aggregate = true
				break
			}
		}
		if stmt.Having != nil && !aggregate {
			aggregate = true
		}
	}

	items, outCols, err := expandItems(stmt.Items, src.columns())
	if err != nil {
		return nil, nil, err
	}

	// Order-aware access path: when the leading ORDER BY key is an indexed
	// column of the statement's one base table, replace the scan with an
	// ordered index scan — the index's ordered view yields exactly what the
	// stable sort would, so this is safe for subqueries and truncated
	// results too, and it is what makes `ORDER BY col LIMIT k` read O(k)
	// rows. A single key drops the sort entirely; trailing keys keep a
	// streaming tie-sort (sortOp.presorted) that only buffers runs of
	// equal leading-key rows. Multi-key elision is skipped under DISTINCT:
	// dedup keeps first-arriving representatives, and index order changes
	// which row arrives first.
	orderElided := false
	if !aggregate && len(stmt.OrderBy) >= 1 && len(stmt.Joins) == 0 &&
		(len(stmt.OrderBy) == 1 || !stmt.Distinct) {
		src, orderElided = tryOrderedScan(stmt, items, src, qc)
	}

	// needSort: an ORDER BY the index order does not already satisfy. A
	// fully elided single-key order stacks no sortOp at all (rows carry no
	// key extension); an elided leading key with trailing keys keeps a
	// streaming tie-sort over all the keys.
	needSort := len(stmt.OrderBy) > 0 && (!orderElided || len(stmt.OrderBy) > 1)

	// Collect the aggregate calls the query references anywhere.
	var aggs []*FuncCall
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
	}

	// The scan driver (vecops.go): a large single-table input runs through
	// the batch pipeline, on the worker pool when the shape allows. (An
	// elided index order no longer bottoms out in a plain scan, so it keeps
	// its ordered scan — the streaming is the point.)
	src, bscan, err := planScanDriver(src, scanShape{
		stmt: stmt, items: items, aggregate: aggregate, aggs: aggs,
		needSort: needSort, poolable: topLevel && outer == nil,
	}, db, params, outer, qc)
	if err != nil {
		return nil, nil, err
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

	// env is the row environment the projection (and HAVING, and the input
	// side of ORDER BY) evaluates in. Under aggregation its row is the
	// group's representative row and env.agg carries the group context.
	env := newEvalEnv(src.columns(), db, params, outer, qc)

	var oenv *evalEnv
	var orderKeys []compiledExpr
	compileOrder := func() error {
		if !needSort {
			return nil
		}
		// ORDER BY resolves output aliases first, then input columns.
		oenv = newEvalEnv(outCols, db, params, env, qc)
		oenv.agg = env.agg
		orderKeys = make([]compiledExpr, len(stmt.OrderBy))
		for i, ob := range stmt.OrderBy {
			k, err := compileOrderKey(ob.Expr, oenv, len(outCols))
			if err != nil {
				return err
			}
			orderKeys[i] = k
		}
		return nil
	}

	var root operator
	if aggregate {
		groupStrs := make([]string, len(stmt.GroupBy))
		for i, g := range stmt.GroupBy {
			groupStrs[i] = g.String()
		}
		actx := &aggCtx{groupStrs: groupStrs, aggs: aggs}
		env.agg = actx

		citems := make([]compiledExpr, len(items))
		for i, it := range items {
			if citems[i], err = compileExpr(it.Expr, env); err != nil {
				return nil, nil, err
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
		root = &groupOp{
			stmt: stmt, child: src, aggs: aggs, actx: actx, env: env,
			citems: citems, having: having, orderKeys: orderKeys, oenv: oenv,
			outCols: outCols, db: db, params: params, outer: outer, qc: qc,
		}
		if bscan != nil && bscan.folds {
			root.(*groupOp).bat = bscan
		}
	} else {
		fused := bscan != nil && bscan.proj != nil
		var citems []compiledExpr
		if !fused { // a fused scan compiled the items into its own pipeline
			citems = make([]compiledExpr, len(items))
			for i, it := range items {
				if citems[i], err = compileExpr(it.Expr, env); err != nil {
					return nil, nil, err
				}
			}
		}
		if err := compileOrder(); err != nil {
			return nil, nil, err
		}
		root = &projectOp{
			child: src, outCols: outCols, items: items, env: env,
			citems: citems, orderKeys: orderKeys, oenv: oenv, fused: fused,
		}
	}

	if stmt.Distinct {
		root = &distinctOp{child: root, width: len(outCols)}
	}
	if needSort {
		presorted := 0
		if orderElided {
			presorted = 1
		}
		topK := -1
		if limit >= 0 && presorted == 0 {
			// The limit window is all a full sort must keep. The grouped
			// tie-sort ignores topK: it already streams, and the limitOp
			// above stops pulling once the window fills.
			topK = start + limit
		}
		root = &sortOp{child: root, width: len(outCols), orderBy: stmt.OrderBy, topK: topK, presorted: presorted}
	}
	if start > 0 || limit >= 0 {
		root = &limitOp{child: root, skip: start, limit: limit}
	}
	return root, outCols, nil
}

// tryOrderedScan decides whether the statement's single ORDER BY key can
// be served by streaming the base table in index order. The source chain
// must bottom out in a scanOp (filters pass order through); the key must
// be a bare or correctly-qualified reference to an indexed column of that
// scan; and — because ORDER BY resolves output names first — a bare key
// that collides with an output column is only safe when that output
// column is the very same table column. If the scan carries a range
// restriction it must be on the same column, and becomes the ordered
// scan's bounds. On success the scan is replaced in place and the
// (possibly new) chain root plus true are returned.
func tryOrderedScan(stmt *SelectStmt, items []SelectItem, src operator, qc *queryCtx) (operator, bool) {
	// Find the scan under any stack of filters.
	var parent *filterOp
	cur := src
	for {
		if f, ok := cur.(*filterOp); ok {
			parent, cur = f, f.child
			continue
		}
		break
	}
	sc, ok := cur.(*scanOp)
	if !ok || sc.ids != nil {
		return src, false
	}
	ob := stmt.OrderBy[0]
	cr, ok := ob.Expr.(*ColumnRef)
	if !ok {
		return src, false
	}
	idx := indexFor(sc.table, sc.qual, cr)
	if idx == nil {
		return src, false
	}
	if sc.rangeIdx != nil && sc.rangeIdx != idx {
		return src, false
	}
	if stmt.Distinct {
		// DISTINCT keeps each group's first-arriving row, and the sort
		// orders groups by that representative's key. Index order only
		// reproduces this when the key is part of the deduplicated
		// output row (then all of a group's rows share it); a key
		// outside the output would make group order depend on which
		// representative arrived first — i.e. on the access path.
		keyInOutput := false
		for _, it := range items {
			if c, ok := it.Expr.(*ColumnRef); ok && strings.EqualFold(c.Column, cr.Column) &&
				(c.Table == "" || strings.EqualFold(c.Table, sc.qual)) {
				keyInOutput = true
				break
			}
		}
		if !keyInOutput {
			return src, false
		}
	}
	if cr.Table == "" {
		// A bare ORDER BY name resolves against the output columns first
		// (compileOrderKey); index order only matches when every output
		// column of that name is the same plain table column.
		matches := 0
		for _, it := range items {
			name := it.Alias
			if name == "" {
				if c, ok := it.Expr.(*ColumnRef); ok {
					name = c.Column
				} else {
					name = it.Expr.String()
				}
			}
			if !strings.EqualFold(name, cr.Column) {
				continue
			}
			matches++
			c, ok := it.Expr.(*ColumnRef)
			if !ok || !strings.EqualFold(c.Column, cr.Column) ||
				(c.Table != "" && !strings.EqualFold(c.Table, sc.qual)) {
				return src, false
			}
		}
		if matches > 1 {
			// Ambiguous output reference: keep the sort path so the
			// resolution error (or tie-breaking) behaves as before.
			return src, false
		}
	}
	oss := &ordScanOp{
		table: sc.table, idx: idx, qual: sc.qual, cols: sc.cols,
		desc: ob.Desc, scanTally: scanTally{qc: qc},
	}
	if sc.rangeIdx == idx {
		oss.spec = sc.spec
	}
	if parent == nil {
		return oss, true
	}
	parent.child = oss
	return src, true
}
