package sqldb

import (
	"strings"
)

// This file implements the FROM/WHERE stages of SELECT execution: a
// volcano-style iterator tree of base-table scans (one leaf, vecops.go),
// correlated probes, filters, and hash, index-nested-loop and nested-loop
// joins, and the planning that builds it — which conjuncts go down to which
// input, which access path each scan takes, which join serves an equality.
// The projection/DISTINCT/ORDER BY/LIMIT tail is composed on top by
// buildSelectPlan (stream.go), so the whole statement runs as one pull
// pipeline; only aggregation and sort materialise. Planning compiles every
// expression into a closure (compile.go) or a kernel (vector.go); the
// per-row path then performs no name resolution, no map lookups by column
// name, and no string formatting (a key's identity is its Compare class,
// key.go). Leaves carry the execution's
// queryCtx, counting rows for Database.Stats and sampling context
// cancellation mid-scan.
//
// Rows have one lifetime rule: a row returned by next() is the producer's
// until the next next(), and a consumer that keeps it copies it. The planner
// tells each producer whether its consumer keeps rows, and the default is
// that it does — drain (join builds, derived tables, subquery results), the
// full sort, the pooled gather and the caller's cursor are handed rows
// nothing will touch again. The caller's cursor keeps rows except under the
// wire session, Exec's row count and EXPLAIN ANALYZE, which read each row
// and drop it (queryRows). Three plans spend the rule, each building rows
// only for whoever keeps them: ORDER BY … LIMIT k folds into the scan,
// whose instances offer each survivor to a k-bounded heap that copies the
// few it keeps (vecops.go); a join, projection or aggregation whose consumer
// reads a row and drops it builds every row in one buffer (lendRows,
// stream.go); and GROUP BY keeps one column of state per aggregate, indexed
// by the group's class, and no object per group (groupTable).

// operator is a pull-based row iterator.
type operator interface {
	columns() []colInfo
	// next returns the next row. ok=false signals exhaustion.
	next() (row Row, ok bool, err error)
	// reset rewinds the operator so it can be iterated again (used by
	// nested-loop joins).
	reset()
}

// slab hands out runs of T carved from larger blocks, amortising the
// one-allocation-per-object cost of rows. The first block holds one run (a
// handful of rows, for rowArena) and each later one doubles, up to
// rowArenaBlock elements, so a one-row result does not pay for a thousand;
// capacities are clamped so an append on a handed-out run can never clobber
// a neighbour.
type slab[T any] struct {
	buf  []T
	size int // elements in the last block allocated
}

// 2,048 Values are 32 KiB, a large object: at 16 KiB its 8-byte type header
// would round a full block up to the 18 KiB size class.
const rowArenaBlock = 2048

func (a *slab[T]) take(n int) []T {
	if len(a.buf) < n {
		a.size = min(max(2*a.size, n), rowArenaBlock)
		a.buf = make([]T, max(a.size, n))
	}
	r := a.buf[:n:n]
	a.buf = a.buf[n:]
	return r
}

// rowArena is where operators build their output rows, and where scans
// decode sealed ones: fresh slab storage for a consumer that keeps them; one
// reused buffer once the planner has found that it drops them (lendRows,
// stream.go); or, scoped, one buffer rows are carved from until the owner
// rewinds it (used = 0) — a probe's matches, a batch's rows.
type rowArena struct {
	slab[Value]
	reuse, scoped bool
	used          int32
}

func (a *rowArena) alloc(n int) Row {
	switch {
	case n == 0:
		return Row{}
	case !a.reuse && !a.scoped:
		if a.size == 0 {
			a.size = 2 * n // the first block holds four rows
		}
		return a.take(n)
	case !a.scoped:
		a.used = 0
	}
	at := int(a.used)
	if len(a.buf) < at+n { // rows carved before keep the old buffer
		a.buf, at = make([]Value, max(2*len(a.buf), n)), 0
	}
	a.used = int32(at + n)
	return a.buf[at : at+n : at+n]
}

// valuesOp replays pre-materialised rows (derived tables, join builds).
// src, when set, is the operator the rows were drained from — dead for
// execution, retained so EXPLAIN can show the materialised subtree
// (pushed-down filters, access paths).
type valuesOp struct {
	cols []colInfo
	rows []Row
	src  operator
	pos  int
}

func (v *valuesOp) columns() []colInfo { return v.cols }
func (v *valuesOp) reset()             { v.pos = 0 }
func (v *valuesOp) next() (Row, bool, error) {
	if v.pos >= len(v.rows) {
		return nil, false, nil
	}
	r := v.rows[v.pos]
	v.pos++
	return r, true, nil
}

// corrProbe makes a scan a correlated equality probe — `col = <outer
// expr>`, the backbone of EXISTS/IN/scalar subqueries — a per-probe hash
// lookup instead of a per-probe table scan: every reset of the scan — one
// per outer row under the subplan cache — re-evaluates only the outer key,
// and the scan reads the ids filed under it. The memo is the table's real
// equality index when one exists, or an index of the statement's own over
// the rows its snapshot sees, built lazily exactly once. Rows come in
// ascending heap order, as scan+filter emits them, so the rewrite is
// invisible to result semantics.
type corrProbe struct {
	column int
	keyC   compiledExpr // outer-row key, compiled once
	colE   Expr         // retained for EXPLAIN
	keyE   Expr         // retained for EXPLAIN
	idx    *Index       // the column's equality index, or the statement's own, which has no name
	ids    []int
}

// lookup returns the ids of the rows snap sees that hold the outer row's key.
func (p *corrProbe) lookup(t *Table, snap *snapshot) ([]int, error) {
	if p.idx == nil {
		// No index covers the column: file the rows the statement's
		// snapshot sees in one of the statement's own — once.
		p.idx = newIndex("", p.column, false)
		var seek blockSeek
		for id, n := 0, int(t.n.Load()); id < n; id++ {
			if v, ok, err := t.visibleValue(id, snap, p.column, &seek); err != nil {
				return nil, err
			} else if ok {
				p.idx.addEntry(v, id)
			}
		}
	}
	k, err := p.keyC()
	if err != nil {
		return nil, err
	}
	p.ids = p.ids[:0] // never nil: no row, not the whole table
	if !k.IsNull() {
		// col = NULL is never true. Either index lists by hash class, a
		// real one old versions too.
		p.ids, err = visibleEqIDs(p.ids, t, p.idx, k, snap)
	}
	return p.ids, err
}

// ---------------------------------------------------------------------------
// Filter

// filterOp passes through rows satisfying the predicate (NULL = drop), one
// at a time — unless the predicate calls batch-form functions (BatchFunc,
// func.go). Then it pulls a window of child rows, files every row's argument
// tuples with the calls' memos, has each memo send the tuples no earlier row
// of the statement asked about — one call of the function per call site per
// window — and only then evaluates the rows, in child order. The planner
// gives every such conjunct a filter of its own, above the scan or join that
// evaluates the conjuncts making no such call, so those shrink the window
// first; a filter with no predicate gathers for a projection whose items or
// sort keys make the calls. This is the one place such calls are gathered.
// The windows follow runSizes.
type filterOp struct {
	child operator
	pred  Expr // retained for EXPLAIN; nil passes every row
	cpred compiledExpr
	env   *evalEnv    // where pred — and the gathered calls — read their row from
	win   *callWindow // nil: no batch-form call, no window
}

// runSizes is how far ahead a consumer's input is read — a callWindow's
// windows, an ordWalk's runs: the first run is what the consumer asks for
// (buildSelectPlan sets first), each later one doubles, up to a morsel.
type runSizes struct {
	first, size int // the first run; the next one (0 before the first)
}

// next returns the size of the next run.
func (r *runSizes) next() int {
	n := max(r.size, r.first, 1)
	r.size = min(2*n, morselSize)
	return n
}

// callWindow is the window of child rows a filterOp gathers calls over.
type callWindow struct {
	runSizes
	sites []*batchSite // the batch-form calls, inner first
	rows  []Row
	pos   int // the window row being evaluated: where the sites read their class
	eof   bool
}

func newFilterOp(child operator, pred Expr, db *Database, params []Value, outer *evalEnv, qc *queryCtx) (*filterOp, error) {
	f := &filterOp{child: child, pred: pred, env: newEvalEnv(child.columns(), db, params, outer, qc)}
	if qc.callsBatchFunc(pred) {
		f.win = &callWindow{}
		f.env.sites = &f.win.sites
	}
	var err error
	f.cpred, err = compileExpr(pred, f.env)
	return f, err
}

func (f *filterOp) columns() []colInfo { return f.child.columns() }

// reset rewinds the window; what the calls have learnt stays.
func (f *filterOp) reset() {
	if w := f.win; w != nil {
		w.rows, w.pos, w.eof, w.size = w.rows[:0], 0, false, 0
	}
	f.child.reset()
}

func (f *filterOp) next() (Row, bool, error) {
	for {
		r, ok, err := f.pull()
		if err != nil || !ok || f.cpred == nil {
			return r, ok, err
		}
		f.env.row = r
		v, err := f.cpred()
		if err != nil {
			return nil, false, err
		}
		if !v.IsNull() && v.AsBool() {
			return r, true, nil
		}
	}
}

// pull returns the next row to test: the child's, or the window's.
func (f *filterOp) pull() (Row, bool, error) {
	w := f.win
	if w == nil {
		return f.child.next()
	}
	for w.pos+1 >= len(w.rows) {
		if w.eof {
			return nil, false, nil
		}
		if err := f.fill(w); err != nil {
			return nil, false, err
		}
	}
	w.pos++
	return w.rows[w.pos], true, nil
}

// fill pulls the next window and gathers every call site over it.
func (f *filterOp) fill(w *callWindow) error {
	n := w.next()
	w.rows = w.rows[:0]
	for len(w.rows) < n {
		r, ok, err := f.child.next()
		if err != nil {
			return err
		}
		if !ok {
			w.eof = true
			break
		}
		w.rows = append(w.rows, r)
	}
	for _, s := range w.sites {
		s.pos, s.ahead = &w.pos, s.ahead[:0]
		for i, r := range w.rows {
			f.env.row, w.pos = r, i
			class, _ := s.gather() // a failed argument is raised when the row is evaluated
			s.ahead = append(s.ahead, class)
		}
		s.memo.Flush(s.qc.ctx)
	}
	w.pos = -1
	return nil
}

// ---------------------------------------------------------------------------
// Joins

// probeJoinCore is the probe loop every join runs: stream probe rows,
// evaluate the key, fetch matches through the owner's lookup/matchRow hooks,
// assemble output rows (the probe side keeps its syntactic position), apply
// the residual predicate, and pad unmatched LEFT-JOIN probe rows with NULLs.
type probeJoinCore struct {
	probe       operator
	cols        []colInfo // output schema: left columns then right columns
	probeIsLeft bool      // probe side is the syntactic left input
	probeKey    compiledExpr
	probeEnv    *evalEnv
	residual    compiledExpr
	pairEnv     *evalEnv
	leftOuter   bool // only when probeIsLeft
	arena       rowArena

	// lookup returns the matches of a non-NULL probe key, in the owner's
	// storage: read until the next lookup.
	lookup func(k Value) ([]Row, error)

	cur     Row   // current probe row
	found   []Row // its matches not yet paired
	emitted bool  // whether cur produced any output (for LEFT JOIN)
	haveCur bool
}

// initProbeJoin names the probe input and the columns of the other side,
// derives the output schema (left columns, then right), and compiles the key
// and residual expressions against it.
func (c *probeJoinCore) initProbeJoin(probe operator, other []colInfo, probeIsLeft, leftOuter bool,
	probeKeyE, residual Expr, db *Database, params []Value, outer *evalEnv, qc *queryCtx) (err error) {
	c.probe, c.probeIsLeft, c.leftOuter = probe, probeIsLeft, leftOuter
	if probeIsLeft {
		c.cols = append(append([]colInfo{}, probe.columns()...), other...)
	} else {
		c.cols = append(append([]colInfo{}, other...), probe.columns()...)
	}
	c.probeEnv = newEvalEnv(probe.columns(), db, params, outer, qc)
	if c.probeKey, err = compileExpr(probeKeyE, c.probeEnv); err != nil {
		return err
	}
	c.pairEnv = newEvalEnv(c.cols, db, params, outer, qc)
	if residual != nil {
		c.residual, err = compileExpr(residual, c.pairEnv)
	}
	return err
}

func (c *probeJoinCore) columns() []colInfo { return c.cols }
func (c *probeJoinCore) reset() {
	c.probe.reset()
	c.haveCur, c.found = false, nil
}

func (c *probeJoinCore) next() (Row, bool, error) {
	for {
		if !c.haveCur {
			r, ok, err := c.probe.next()
			if err != nil || !ok {
				return nil, false, err
			}
			c.cur = r
			c.haveCur = true
			c.emitted = false
			c.probeEnv.row = r
			k, err := c.probeKey()
			if err != nil {
				return nil, false, err
			}
			c.found = nil
			if !k.IsNull() { // NULL keys never join
				if c.found, err = c.lookup(k); err != nil {
					return nil, false, err
				}
			}
		}
		for len(c.found) > 0 {
			rr := c.found[0]
			c.found = c.found[1:]
			out := c.arena.alloc(len(c.cols))
			if c.probeIsLeft {
				n := copy(out, c.cur)
				copy(out[n:], rr)
			} else {
				n := copy(out, rr)
				copy(out[n:], c.cur)
			}
			if c.residual != nil {
				c.pairEnv.row = out
				v, err := c.residual()
				if err != nil {
					return nil, false, err
				}
				if v.IsNull() || !v.AsBool() {
					continue
				}
			}
			c.emitted = true
			return out, true, nil
		}
		// Probe row exhausted its matches.
		if c.leftOuter && !c.emitted {
			c.haveCur = false
			out := c.arena.alloc(len(c.cols))
			n := copy(out, c.cur)
			for i := n; i < len(out); i++ {
				out[i] = Null
			}
			return out, true, nil
		}
		c.haveCur = false
	}
}

// hashJoinOp performs an equi-join: the build side is filed by its key's
// Compare class (a TupleSet); probe rows stream past it. The
// planner picks the smaller input as the build side for inner joins when
// reordering is safe; LEFT JOIN always builds the right input so unmatched
// left rows can be emitted in order. A residual predicate (the non-equi
// remainder of the ON clause) is applied to candidate pairs.
type hashJoinOp struct {
	probeJoinCore
	buildIsLeft bool     // build side is the syntactic left input
	buildSrc    operator // retained for EXPLAIN (rows already drained)
	leftKey     Expr     // retained for EXPLAIN
	rightKey    Expr     // retained for EXPLAIN
	residualE   Expr     // retained for EXPLAIN
	keys        TupleSet // the build keys by Compare class
	buckets     [][]Row  // by class of keys
}

func newHashJoinOp(probe, build operator, buildRows []Row,
	probeKeyE, buildKeyE Expr, leftKey, rightKey Expr, residual Expr,
	buildIsLeft, leftOuter bool,
	db *Database, params []Value, outer *evalEnv, qc *queryCtx) (*hashJoinOp, error) {

	buildCols := build.columns()
	h := &hashJoinOp{
		buildSrc:    build,
		buildIsLeft: buildIsLeft,
		leftKey:     leftKey,
		rightKey:    rightKey,
		residualE:   residual,
	}
	h.lookup = func(k Value) ([]Row, error) {
		if i, ok := h.keys.Find([]Value{k}); ok {
			return h.buckets[i], nil
		}
		return nil, nil
	}
	// Build phase: hash the build rows, on the statement's own goroutine.
	buildEnv := newEvalEnv(buildCols, db, params, outer, qc)
	buildKey, err := compileExpr(buildKeyE, buildEnv)
	if err != nil {
		return nil, err
	}
	for _, r := range buildRows {
		buildEnv.row = r
		k, err := buildKey()
		if err != nil {
			return nil, err
		}
		if k.IsNull() {
			continue // NULL keys never join
		}
		i, fresh := h.keys.Add([]Value{k})
		if fresh {
			h.buckets = append(h.buckets, nil)
		}
		h.buckets[i] = append(h.buckets[i], r)
	}
	return h, h.initProbeJoin(probe, buildCols, !buildIsLeft, leftOuter, probeKeyE, residual, db, params, outer, qc)
}

// indexJoinOp performs an equi-join by probing an equality index on a base
// table: for each probe row the key expression is evaluated and looked up
// directly in the index — no build phase and no key encoding at all.
type indexJoinOp struct {
	probeJoinCore
	table     *Table
	idx       *Index
	idxCols   []colInfo
	probeKeyE Expr // retained for EXPLAIN
	idxKeyE   Expr // retained for EXPLAIN
	residualE Expr // retained for EXPLAIN
	curRows   []Row
	matches   rowArena // scoped: the sealed rows of the latest lookup
}

func newIndexJoinOp(probe operator, table *Table, idx *Index, idxCols []colInfo,
	probeKeyE, idxKeyE Expr, residual Expr, probeIsLeft, leftOuter bool,
	db *Database, params []Value, outer *evalEnv, qc *queryCtx) (*indexJoinOp, error) {

	j := &indexJoinOp{
		table:     table,
		idx:       idx,
		idxCols:   idxCols,
		probeKeyE: probeKeyE,
		idxKeyE:   idxKeyE,
		residualE: residual,
		matches:   rowArena{scoped: true},
	}
	// Per-probe: copy the key's hash class under the index latch (into ids,
	// which every probe reuses), then filter it against the statement
	// snapshot and the key (the class is a superset — superseded versions
	// linger until vacuum, a colliding key shares it). Sealed matches are
	// decoded into one buffer every probe reuses.
	var ids []int
	j.lookup = func(k Value) ([]Row, error) {
		var snap *snapshot
		if qc != nil {
			snap = qc.snap
		}
		j.curRows, j.matches.used = j.curRows[:0], 0
		ids = j.idx.appendIDs(ids[:0], k)
		for _, id := range ids {
			r, err := j.table.visibleRow(id, snap, &j.matches, nil)
			if err != nil {
				return nil, err
			}
			if r != nil && sameKey(r[j.idx.Column], k) {
				j.curRows = append(j.curRows, r)
			}
		}
		return j.curRows, nil
	}
	return j, j.initProbeJoin(probe, idxCols, probeIsLeft, leftOuter, probeKeyE, residual, db, params, outer, qc)
}

// nestedLoopJoinOp is the fallback join for non-equi ON conditions and
// CROSS joins: the probe loop with every row of the materialised right side
// a match and the whole ON condition its residual.
type nestedLoopJoinOp struct {
	probeJoinCore
	rightRows []Row
	rightSrc  operator // retained for EXPLAIN (rows already drained)
	on        Expr     // retained for EXPLAIN; nil for CROSS
}

func newNestedLoopJoinOp(left, right operator, rightRows []Row,
	on Expr, leftOuter bool, db *Database, params []Value, outer *evalEnv, qc *queryCtx) (*nestedLoopJoinOp, error) {
	n := &nestedLoopJoinOp{rightRows: rightRows, rightSrc: right, on: on}
	n.lookup = func(Value) ([]Row, error) { return n.rightRows, nil }
	// The probe key is a constant: no row has a NULL one.
	return n, n.initProbeJoin(left, right.columns(), true, leftOuter, &Literal{Val: Int(1)}, on, db, params, outer, qc)
}

// ---------------------------------------------------------------------------
// SELECT driver

// execSelect plans and runs a nested or subsidiary SELECT (a derived table,
// INSERT ... SELECT), materialising its result; the drained plan is
// returned with it. Join reordering stays off: the caller may truncate the
// result (a derived table may feed an outer LIMIT), which would make plan
// choice observable under tied or absent orderings.
func execSelect(stmt *SelectStmt, db *Database, params []Value, outer *evalEnv, qc *queryCtx) (operator, []Row, []colInfo, error) {
	root, cols, err := buildSelectPlan(stmt, db, params, outer, false, qc)
	if err != nil {
		return nil, nil, nil, err
	}
	rows, err := drain(root)
	return root, rows, cols, err
}

// evalConst evaluates an expression that must not reference any columns
// (LIMIT/OFFSET operands, INSERT's VALUES). A literal or bound parameter
// — nearly every one — is read off directly; anything else compiles
// against an empty schema and runs once.
func evalConst(e Expr, db *Database, params []Value, qc *queryCtx) (Value, error) {
	if v, ok := boundValue(e, params); ok {
		return v, nil
	}
	c, err := compileExpr(e, newEvalEnv(nil, db, params, nil, qc))
	if err != nil {
		return Null, err
	}
	return c()
}

// expandItems resolves `*` and `tbl.*` select items against the input
// schema and derives output column names. Expanded references are stamped
// with their input ordinal so compilation skips name resolution. A list
// with no star is returned as it is, uncopied: it is read, never written.
func expandItems(items []SelectItem, in []colInfo) ([]SelectItem, []colInfo, error) {
	out, copied := items, false
	for i, it := range items {
		if st, ok := it.Expr.(*Star); ok {
			if !copied {
				out, copied = items[:i:i], true // full: the first append copies
			}
			matched := false
			for i, c := range in {
				if st.Table == "" || strings.EqualFold(st.Table, c.qual) {
					out = append(out, SelectItem{Expr: &ColumnRef{Table: c.qual, Column: c.name, index: i}})
					matched = true
				}
			}
			if !matched {
				return nil, nil, errf(ErrNoColumn, "sql: no columns match %s", st)
			}
			continue
		}
		if copied {
			out = append(out, it)
		}
	}
	cols := make([]colInfo, len(out))
	for i, it := range out {
		switch {
		case it.Alias != "":
			cols[i] = colInfo{name: it.Alias}
		default:
			if cr, ok := it.Expr.(*ColumnRef); ok {
				cols[i] = colInfo{name: cr.Column}
			} else {
				cols[i] = colInfo{name: it.Expr.String()}
			}
		}
	}
	return out, cols, nil
}

// groupTable is the groups of one aggregation (or of one instance of a
// folded one), numbered by the value of their keys: a group is its keys'
// class in set, which is first-seen order, and its state is that class's
// cell in every accumulator, in the representative rows (kept only when
// something reads them, readsRepRow) and in the founding scan ordinals
// (kept only by the instances of a pooled fold, whose merge restores
// first-seen order from them). Nothing is allocated per group.
type groupTable struct {
	set      TupleSet
	accs     []accumulator // one per collected aggregate
	rep      column[Row]
	first    column[int]
	ordinals bool    // first is kept
	order    []int32 // the classes in first-seen order after a merge; nil = class order
}

func newGroupTable(specs []aggSpec) groupTable {
	t := groupTable{accs: make([]accumulator, len(specs))}
	for i, s := range specs {
		t.accs[i].aggSpec = s
	}
	return t
}

// len is the number of groups.
func (t *groupTable) len() int { return t.set.n }

// absorb folds o — the table of another instance of the same pooled fold —
// into t: each class of o into the class its keys have here, founding it
// where no row of t's had them. A class keeps the keys and representative
// row of its smallest scan ordinal, the row the serial fold would have seen
// first. absorb leaves the order to the caller (runAggregationBatch).
func (t *groupTable) absorb(o *groupTable) {
	to := make([]int32, o.len()) // o's classes in t
	for c := range to {
		keys := o.set.Tuple(c)
		class, fresh := t.set.Add(keys)
		to[c] = int32(class)
		if first := o.first.get(c); fresh || first < t.first.get(class) {
			copy(t.set.Tuple(class), keys) // one class: the same hash, other values
			*t.first.at(class) = first
			if o.rep.len() > 0 {
				*t.rep.at(class) = o.rep.get(c)
			}
		}
		for i := range t.accs {
			t.accs[i].merge(class, &o.accs[i], c)
		}
	}
	for i := range t.accs {
		for _, p := range o.accs[i].spill {
			p.class = to[p.class]
			t.accs[i].spill = appendDoubling(t.accs[i].spill, p)
		}
	}
}

// runAggregation drains the child, partitions rows by the value of their
// GROUP BY keys (groupTable), and accumulates every aggregate the query
// references, with the row that founded each group when the
// post-aggregation phase reads one (repRows).
func runAggregation(stmt *SelectStmt, src operator, specs []aggSpec, repRows bool,
	db *Database, params []Value, outer *evalEnv, qc *queryCtx) (*groupTable, error) {

	env := newEvalEnv(src.columns(), db, params, outer, qc)
	groupExprs := make([]compiledExpr, len(stmt.GroupBy))
	for i, ge := range stmt.GroupBy {
		c, err := compileExpr(ge, env)
		if err != nil {
			return nil, err
		}
		groupExprs[i] = c
	}
	// Compile each aggregate's argument once; COUNT(*) needs none.
	argExprs := make([]compiledExpr, len(specs))
	for i, a := range specs {
		if a.arg == nil {
			continue
		}
		c, err := compileExpr(a.arg, env)
		if err != nil {
			return nil, err
		}
		argExprs[i] = c
	}

	tab := newGroupTable(specs)
	keyVals := make([]Value, len(stmt.GroupBy)) // reused per row
	for {
		r, ok, err := src.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		env.row = r
		for i, ge := range groupExprs {
			if keyVals[i], err = ge(); err != nil {
				return nil, err
			}
		}
		class, fresh := tab.set.Add(keyVals)
		if fresh && repRows {
			*tab.rep.at(class) = r.Clone()
		}
		for i, arg := range argExprs {
			var v Value
			if arg != nil {
				if v, err = arg(); err != nil {
					return nil, err
				}
			}
			tab.accs[i].add(class, v, 0)
		}
	}
	return &tab, nil
}

// ---------------------------------------------------------------------------
// FROM construction and join planning

// estimateRows returns the number of rows an operator will produce, or an
// upper bound for filters, or -1 when unknown. Used to pick hash-join
// build sides.
func estimateRows(op operator) int {
	switch t := op.(type) {
	case *scanOp:
		if t.ids != nil {
			return len(t.ids)
		}
		if t.rangeIdx != nil {
			return -1 // range ids not yet materialised
		}
		return t.table.liveCount()
	case *valuesOp:
		return len(t.rows)
	case *filterOp:
		return estimateRows(t.child)
	default:
		return -1
	}
}

// indexForJoinKey returns the table's equality index covering key, when key
// is a bare reference to a column of the scanned table.
func indexForJoinKey(sc *scanOp, key Expr) *Index {
	if cr, ok := key.(*ColumnRef); ok {
		return indexFor(sc.table, sc.qual, cr)
	}
	return nil
}

// buildFrom constructs the operator tree for the FROM clause (including
// joins) and returns the residual WHERE predicate: conjuncts served by
// index lookups or range scans are removed, and single-input conjuncts
// are pushed below the joins onto their owning input (a filter over the
// scan, or an index/range restriction of it) so joins see pre-filtered
// inputs. Conjuncts on the nullable side of a LEFT JOIN are never pushed
// — they must see the NULL-extended rows — and neither are conjuncts
// containing subqueries, ambiguous bare names, or outer references.
//
// Equi-joins are planned in preference order: index-nested-loop when an
// equality index covers the inner side's key (no build phase at all), then
// hash join with the smaller input as the build side, then hash join with
// the right side built. Plans that change output row order (streaming the
// right input) are only chosen when the statement imposes an ORDER BY.
// Non-equi and CROSS joins fall back to nested loops.
func buildFrom(stmt *SelectStmt, db *Database, params []Value, outer *evalEnv, topLevel bool, qc *queryCtx) (operator, Expr, error) {
	if stmt.From == nil {
		// SELECT without FROM: a single empty row.
		return &valuesOp{cols: nil, rows: []Row{{}}}, stmt.Where, nil
	}
	// Build every input up front so WHERE conjuncts can be classified
	// against the full FROM column set (a bare name is only pushable when
	// exactly one input could own it).
	inputs := make([]operator, 1+len(stmt.Joins))
	var err error
	if inputs[0], err = buildTableRef(*stmt.From, db, params, outer, qc); err != nil {
		return nil, nil, err
	}
	for i, jc := range stmt.Joins {
		if inputs[i+1], err = buildTableRef(jc.Table, db, params, outer, qc); err != nil {
			return nil, nil, err
		}
	}

	pushed, kept := pushdownConjuncts(stmt, inputs, qc)
	for i, cs := range pushed {
		if len(cs) == 0 {
			continue
		}
		sc, ok := inputs[i].(*scanOp)
		if !ok { // a derived table
			if inputs[i], err = newFilterOp(inputs[i], joinConjuncts(cs), db, params, outer, qc); err != nil {
				return nil, nil, err
			}
			continue
		}
		var snap *snapshot
		if qc != nil {
			snap = qc.snap
		}
		if sc.indexAccess, sc.preds, err = chooseIndexAccess(sc.table, sc.qual, cs, params, snap); err != nil {
			return nil, nil, err
		}
		// A join's inputs evaluate what was pushed to them and emit table
		// rows; a single table's scan takes the rest of the WHERE too, and
		// may absorb more (buildSelectPlan).
		if len(inputs) > 1 {
			if err := sc.compile(db, params, outer); err != nil {
				return nil, nil, err
			}
		}
	}
	// Correlated probe rewrite: inside a subquery — the only plan that is
	// pulled repeatedly, once per outer row under the subplan cache — a
	// remaining conjunct `col = <outer expr>` over the single scanned
	// table turns the per-probe scan into a hash lookup (corrProbe).
	if !topLevel && outer != nil && len(stmt.Joins) == 0 {
		if sc, ok := inputs[0].(*scanOp); ok && unrestrictedScan(sc) {
			if kept, err = tryCorrelatedProbe(sc, kept, db, params, outer, qc); err != nil {
				return nil, nil, err
			}
		}
	}
	left := inputs[0]
	where := joinConjuncts(kept)

	// Reordering the stream side changes join emission order, which is
	// observable without an ORDER BY — and even with one, tied sort keys
	// preserve emission order, so any truncation of the result (LIMIT or
	// OFFSET, a scalar subquery's single row, a derived table feeding an
	// outer LIMIT) would change which rows are returned, not just their
	// arrangement. Only reorder for a top-level statement whose sorted,
	// untruncated result reaches the caller (tie order within equal keys
	// may still differ, which SQL leaves unspecified).
	allowReorder := topLevel && len(stmt.OrderBy) > 0 && stmt.Limit == nil && stmt.Offset == nil

	for ji, jc := range stmt.Joins {
		rightOp := inputs[ji+1]
		rightCols := rightOp.columns()
		leftOuter := jc.Kind == JoinLeft
		leftKey, rightKey, residual := splitEquiJoin(jc.On, left.columns(), rightCols)
		if leftKey == nil { // a CROSS join (no ON at all), or no equality to hash or probe on
			rightRows, err := drain(rightOp)
			if err != nil {
				return nil, nil, err
			}
			nl, err := newNestedLoopJoinOp(left, rightOp, rightRows, jc.On, leftOuter, db, params, outer, qc)
			if err != nil {
				return nil, nil, err
			}
			left = nl
			continue
		}

		// Index-nested-loop: the right side is an unfiltered base table
		// whose join column has an equality index.
		if rsc, ok := rightOp.(*scanOp); ok && unrestrictedScan(rsc) {
			if idx := indexForJoinKey(rsc, rightKey); idx != nil {
				ij, err := newIndexJoinOp(left, rsc.table, idx, rightCols,
					leftKey, rightKey, residual, true, leftOuter, db, params, outer, qc)
				if err != nil {
					return nil, nil, err
				}
				left = ij
				continue
			}
		}
		// Flipped index-nested-loop: the accumulated left side is an
		// indexed base table; stream the right input against it. Inner
		// joins only (unmatched-left tracking needs a left probe).
		if allowReorder && !leftOuter {
			if lsc, ok := left.(*scanOp); ok && unrestrictedScan(lsc) {
				if idx := indexForJoinKey(lsc, leftKey); idx != nil {
					ij, err := newIndexJoinOp(rightOp, lsc.table, idx, left.columns(),
						rightKey, leftKey, residual, false, false, db, params, outer, qc)
					if err != nil {
						return nil, nil, err
					}
					left = ij
					continue
				}
			}
		}

		rightRows, err := drain(rightOp)
		if err != nil {
			return nil, nil, err
		}
		// Hash join: build the smaller input when reordering is safe.
		buildLeft := false
		if allowReorder && !leftOuter {
			if le := estimateRows(left); le >= 0 && le < len(rightRows) {
				buildLeft = true
			}
		}
		var h *hashJoinOp
		if buildLeft {
			var leftRows []Row
			if leftRows, err = drain(left); err == nil {
				probe := &valuesOp{cols: rightCols, rows: rightRows, src: rightOp}
				h, err = newHashJoinOp(probe, left, leftRows,
					rightKey, leftKey, leftKey, rightKey, residual, true, false, db, params, outer, qc)
			}
		} else {
			h, err = newHashJoinOp(left, rightOp, rightRows,
				leftKey, rightKey, leftKey, rightKey, residual, false, leftOuter, db, params, outer, qc)
		}
		if err != nil {
			return nil, nil, err
		}
		left = h
	}
	return left, where, nil
}

func buildTableRef(tr TableRef, db *Database, params []Value, outer *evalEnv, qc *queryCtx) (operator, error) {
	if tr.Sub != nil {
		// Derived tables materialise during planning; the drained plan is
		// retained as the valuesOp's src so EXPLAIN can show the subtree and
		// EXPLAIN ANALYZE can attribute the rows its scans read.
		root, rows, cols, err := execSelect(tr.Sub, db, params, outer, qc)
		if err != nil {
			return nil, err
		}
		// Re-qualify the derived table's columns by its alias.
		qcols := make([]colInfo, len(cols))
		for i, c := range cols {
			qcols[i] = colInfo{qual: tr.Alias, name: c.name}
		}
		return &valuesOp{cols: qcols, rows: rows, src: root}, nil
	}
	t, err := db.lookupTable(tr.Name)
	if err != nil {
		return nil, err
	}
	return newScanOp(t, tr.effectiveName(), qc), nil
}

// holder is an operator that already holds the rows it has yet to emit (a
// full sort, a GROUP BY, the pooled scan) or forwards to one (a projection
// that builds no rows): rest hands drain what next has not yet returned.
type holder interface{ rest() ([]Row, error) }

// drain materialises what an operator has yet to emit — the one
// materialiser, under Rows.Collect, the full sort, join build sides and
// execSelect. A holder's rows are allocated once, at their final size;
// every other root grows them through appendDoubling. With an error come
// the rows a Next loop would have returned before it.
func drain(op operator) ([]Row, error) {
	if h, ok := op.(holder); ok {
		return h.rest()
	}
	return pull(op, nil)
}

// pull appends op's remaining rows to rows, one next at a time.
func pull(op operator, rows []Row) ([]Row, error) {
	for {
		r, ok, err := op.next()
		if err != nil || !ok {
			return rows, err
		}
		rows = appendDoubling(rows, r)
	}
}

// appendDoubling appends v, doubling s's capacity where append would grow a
// large slice by a quarter: a slice of n elements allocates about 2n of
// them on the way, not 5n. Below 256 elements append already doubles, and
// keeps doing so. What drain pulls from an operator that is not a holder
// (and a lent cursor's copies in Rows.Collect) and the float parts of a
// pooled fold (agg.go) grow through it.
func appendDoubling[T any](s []T, v T) []T {
	if n := len(s); n == cap(s) && n >= 256 {
		s = append(make([]T, 0, 2*n), s...)
	}
	return append(s, v)
}

// isSubqueryNode reports whether x itself embeds a nested SELECT: a
// scalar subquery, EXISTS, or IN (SELECT ...).
func isSubqueryNode(x Expr) bool {
	switch t := x.(type) {
	case *Subquery, *ExistsExpr:
		return true
	case *InList:
		return t.Sub != nil
	}
	return false
}

// exprBlocksRewrite reports whether x is a node no planner rewrite may
// move or re-home: a subquery (potentially correlated to anything) or an
// aggregate call. Shared by conjunct pushdown and the correlated-probe
// rewrite so the two classifiers cannot drift apart.
func exprBlocksRewrite(x Expr) bool {
	if isSubqueryNode(x) {
		return true
	}
	if fc, ok := x.(*FuncCall); ok {
		return isAggregateName(fc.Name)
	}
	return false
}

// unrestrictedScan reports whether a scan reads its whole table — the
// precondition for serving it through a different access path (index join
// probes, a correlated probe): any id or range restriction, and any conjunct
// of its own, must be honoured and therefore disqualifies the scan.
func unrestrictedScan(sc *scanOp) bool { return sc.ids == nil && sc.rangeIdx == nil && sc.preds == nil }

// pushdownConjuncts splits the statement's WHERE into conjuncts and
// assigns each to the single FROM input it references, returning the
// per-input lists plus the conjuncts that must stay above the joins.
// A conjunct stays above when it references more than one input, an
// outer scope, an ambiguous bare name, a subquery (potentially
// correlated to anything), or an aggregate — and, regardless of what it
// references, when its target input is the nullable right side of a
// LEFT JOIN (it must see NULL-extended rows, not filter them away
// before they are produced). A conjunct that calls a batch-form function
// stays above too, to run over the rows every cheaper conjunct and the
// joins kept — it asks about each distinct value once, so a join that
// repeats rows costs it nothing.
func pushdownConjuncts(stmt *SelectStmt, inputs []operator, qc *queryCtx) (pushed [][]Expr, kept []Expr) {
	pushed = make([][]Expr, len(inputs))
	if stmt.Where == nil {
		return pushed, nil
	}
	// The one input with a column the reference names; -1 when none has
	// (an outer reference, or an error surfaced later) or two have. A name
	// repeated inside one input has an owner: the filter pushed there reports it.
	ownerOf := func(ref *ColumnRef) int {
		owner := -1
		for i, in := range inputs {
			if _, n := findCol(in.columns(), ref.Table, ref.Column); n > 0 {
				if owner >= 0 {
					return -1
				}
				owner = i
			}
		}
		return owner
	}
	for _, c := range splitConjuncts(stmt.Where) {
		owner, pushable := -1, !qc.callsBatchFunc(c)
		walkExpr(c, func(x Expr) bool {
			if exprBlocksRewrite(x) {
				pushable = false
				return false
			}
			if cr, ok := x.(*ColumnRef); ok {
				o := ownerOf(cr)
				switch {
				case o < 0:
					pushable = false
				case owner == -1:
					owner = o
				case owner != o:
					pushable = false
				}
			}
			return pushable
		})
		if !pushable || owner < 0 {
			kept = append(kept, c)
			continue
		}
		// The right side of a LEFT JOIN must not be filtered early.
		if owner > 0 && stmt.Joins[owner-1].Kind == JoinLeft {
			kept = append(kept, c)
			continue
		}
		pushed[owner] = append(pushed[owner], c)
	}
	return pushed, kept
}

// indexAccess is how a statement reaches a table's rows when its WHERE or
// its ORDER BY lets an index serve them: an exact id list from an equality
// probe, a key range over an index's ordered view whose ids materialise on
// first use, or — ordered — a walk of that view in key order (ordWalk),
// which the planner sets when the index serves the ORDER BY. The zero value
// is the whole heap.
type indexAccess struct {
	ids      []int // ascending; nil = unrestricted (unless rangeIdx is set)
	rangeIdx *Index
	spec     rangeSpec
	ordered  bool  // walk rangeIdx in key order over spec (unbounded: every entry)
	desc     bool  // ... backwards
	first    int32 // ids the walk's first run reads: what the consumer asks for
}

// chooseIndexAccess is the one place a statement's access path is chosen
// — SELECT planning calls it per scanned table with the conjuncts pushed
// down to it, UPDATE and DELETE with their WHERE's. It serves what it can
// of the conjuncts from t's indexes and returns the remainder (nil when
// none), which the caller filters by. Preference order: a single `col =
// comparand` equality over an indexed column (hash lookup), then the
// combined range bounds (>, >=, <, <=, BETWEEN) of the first indexed
// column that has any — a comparand being a literal or a ? parameter,
// resolved against this execution's bindings. Equality ids are ascending and range ids
// materialise in heap order (ordidx.go), so either path yields rows
// exactly as a filtered heap walk would. Comparands probe uncoerced: the
// hash classes and the ordered view follow Value.Compare, which is what
// the filter evaluates, so `id = '5'` over an INTEGER column finds what
// the unindexed filter finds — nothing.
func chooseIndexAccess(t *Table, qual string, conjuncts []Expr, params []Value, snap *snapshot) (indexAccess, []Expr, error) {
	for i, c := range conjuncts {
		b, ok := c.(*BinaryOp)
		if !ok || b.Op != "=" {
			continue
		}
		col, v, _ := asColValue(b, params)
		if col == nil {
			continue
		}
		idx := indexFor(t, qual, col)
		if idx == nil {
			continue
		}
		// `col = NULL` is never true; serving the NULL key's ids here would
		// wrongly return the NULL-valued rows (the conjunct is removed from
		// the filter). Found by the NoREC metamorphic property: the
		// filtered count must match the per-row count.
		acc := indexAccess{ids: []int{}}
		var err error
		if !v.IsNull() {
			acc.ids, err = visibleEqIDs(acc.ids, t, idx, v, snap)
		}
		var rest []Expr
		return acc, append(append(rest, conjuncts[:i]...), conjuncts[i+1:]...), err
	}

	// Range: the first indexed column with a range conjunct absorbs every
	// range conjunct on that column into one bound pair. A NULL bound makes
	// its conjunct NULL for every row, so — like `col = NULL` above — the
	// statement reads no row at all; the conjuncts all stay with the caller
	// so their names still bind.
	var acc indexAccess
	var rest []Expr
	for _, c := range conjuncts {
		if col, cs, null, ok := rangeConjunct(c, params); ok {
			idx := indexFor(t, qual, col)
			if idx != nil && null {
				return indexAccess{ids: []int{}}, conjuncts, nil
			}
			if idx != nil && (acc.rangeIdx == nil || idx == acc.rangeIdx) {
				acc.rangeIdx = idx
				acc.spec.lo = tighten(acc.spec.lo, cs.lo, +1)
				acc.spec.hi = tighten(acc.spec.hi, cs.hi, -1)
				continue
			}
		}
		rest = append(rest, c)
	}
	return acc, rest, nil
}

// open readies the access for iteration — a range restriction
// materialises its ids, an ordered walk starts on the view — and bills the
// leaf, once, with the path taken and the entries the range walk stepped
// over.
func (a *indexAccess) open(t *Table, snap *snapshot, leaf *scanOp) (*ordWalk, error) {
	var walk *ordWalk
	var err error
	switch {
	case a.ordered:
		if walk, err = newOrdWalk(t, a.rangeIdx, a.spec, a.desc, a.first); err != nil {
			return nil, err
		}
	case a.rangeIdx != nil && a.ids == nil:
		ids, skipped, err := collectRangeIDs(t, a.rangeIdx, a.spec, snap)
		if err != nil {
			return nil, err
		}
		a.ids = ids
		leaf.account(scanCounts{tombs: skipped})
	}
	if qc := leaf.qc; qc != nil {
		if a.ordered {
			qc.OrderedIndexOrders++
		}
		switch {
		case a.spec.bounded():
			qc.IndexRangeScans++
		case a.rangeIdx != nil || a.ids != nil:
			qc.IndexScans++
		default:
			qc.FullScans++
		}
	}
	return walk, nil
}

// tryCorrelatedProbe rewrites the first conjunct of shape
// `col = <expression over outer scopes only>` into the scan's corrProbe
// and returns the other conjuncts. The memo is the column's real equality
// index when it has one; otherwise a transient hash of the column is built
// on first pull — once per statement, amortised across every outer-row probe.
func tryCorrelatedProbe(sc *scanOp, kept []Expr, db *Database, params []Value, outer *evalEnv, qc *queryCtx) ([]Expr, error) {
	localCol := func(cr *ColumnRef) bool {
		_, n := findCol(sc.cols, cr.Table, cr.Column)
		return n > 0
	}
	// outerOnly: the expression references at least one column and every
	// reference resolves outside this scan (bare names resolve innermost
	// first, so any bare local name disqualifies). Subqueries and
	// aggregates are left to the filter.
	outerOnly := func(e Expr) bool {
		ok, hasRef := true, false
		walkExpr(e, func(x Expr) bool {
			if exprBlocksRewrite(x) {
				ok = false
				return false
			}
			if cr, isRef := x.(*ColumnRef); isRef {
				hasRef = true
				if cr.Table == "" && localCol(cr) || cr.Table != "" && nameEq(cr.Table, sc.qual) {
					ok = false
				}
			}
			return ok
		})
		return ok && hasRef
	}
	for i, c := range kept {
		b, isBin := c.(*BinaryOp)
		if !isBin || b.Op != "=" {
			continue
		}
		var colRef *ColumnRef
		var keyE Expr
		if cr, ok := b.Left.(*ColumnRef); ok && localCol(cr) && outerOnly(b.Right) {
			colRef, keyE = cr, b.Right
		} else if cr, ok := b.Right.(*ColumnRef); ok && localCol(cr) && outerOnly(b.Left) {
			colRef, keyE = cr, b.Left
		} else {
			continue
		}
		ci := sc.table.ColumnIndex(colRef.Column)
		if ci < 0 {
			continue
		}
		env := newEvalEnv(sc.cols, db, params, outer, qc)
		keyC, err := compileExpr(keyE, env)
		if err != nil {
			return nil, err
		}
		sc.probe = &corrProbe{column: ci, keyC: keyC, colE: colRef, keyE: keyE, ids: []int{},
			idx: sc.table.idxs()[ci]} // nil idx: the first probe builds one
		return append(append([]Expr{}, kept[:i]...), kept[i+1:]...), nil
	}
	return kept, nil
}

// indexFor returns t's index over the referenced column when the
// reference addresses t under the name qual (bare or matching qualifier),
// or nil.
func indexFor(t *Table, qual string, col *ColumnRef) *Index {
	if col.Table != "" && !strings.EqualFold(col.Table, qual) {
		return nil
	}
	if ci := t.ColumnIndex(col.Column); ci >= 0 {
		return t.idxs()[ci]
	}
	return nil
}

// rangeConjunct decomposes a conjunct into a column reference and the
// range bounds it contributes: `col > x`, `>=`, `<`, `<=` (either operand
// order) and `col BETWEEN lo AND hi`, each bound a literal or a bound ?
// parameter. A NULL bound is reported apart (null): the predicate is NULL
// for every row, so over an indexed column chooseIndexAccess answers with
// the empty id list.
func rangeConjunct(c Expr, params []Value) (col *ColumnRef, spec rangeSpec, null, ok bool) {
	switch t := c.(type) {
	case *BinaryOp:
		cr, v, flipped := asColValue(t, params)
		if cr == nil {
			return nil, rangeSpec{}, false, false
		}
		op := t.Op
		if flipped {
			op = flipComparison.Replace(op)
		}
		switch op {
		case ">", ">=":
			spec.lo = &rangeBound{val: v, incl: op == ">="}
		case "<", "<=":
			spec.hi = &rangeBound{val: v, incl: op == "<="}
		default:
			return nil, rangeSpec{}, false, false
		}
		return cr, spec, v.IsNull(), true
	case *Between:
		cr, isCol := t.Expr.(*ColumnRef)
		lo, ok1 := boundValue(t.Lo, params)
		hi, ok2 := boundValue(t.Hi, params)
		if t.Not || !isCol || !ok1 || !ok2 {
			return nil, rangeSpec{}, false, false
		}
		return cr, rangeSpec{
			lo: &rangeBound{val: lo, incl: true},
			hi: &rangeBound{val: hi, incl: true},
		}, lo.IsNull() || hi.IsNull(), true
	}
	return nil, rangeSpec{}, false, false
}

// flipComparison turns the operator of `5 < col` into that of `col > 5`.
var flipComparison = strings.NewReplacer("<", ">", ">", "<")

// asColValue matches a comparison between a column and a literal or bound
// parameter in either operand order; flipped reports `value op col`.
func asColValue(b *BinaryOp, params []Value) (col *ColumnRef, v Value, flipped bool) {
	if cr, ok := b.Left.(*ColumnRef); ok {
		if v, ok := boundValue(b.Right, params); ok {
			return cr, v, false
		}
	}
	if cr, ok := b.Right.(*ColumnRef); ok {
		if v, ok := boundValue(b.Left, params); ok {
			return cr, v, true
		}
	}
	return nil, Null, false
}

// boundValue resolves a comparand that is a literal or a bound ?
// parameter; anything else (a column, an expression) reports false, and
// so does a parameter with no binding — the arity error surfaces from
// evaluating the predicate.
func boundValue(e Expr, params []Value) (Value, bool) {
	switch c := e.(type) {
	case *Literal:
		return c.Val, true
	case *Param:
		if c.Index >= 0 && c.Index < len(params) {
			return params[c.Index], true
		}
	}
	return Null, false
}

// splitConjuncts flattens a tree of ANDs into a list.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryOp); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

func joinConjuncts(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &BinaryOp{Op: "AND", Left: out, Right: e}
	}
	return out
}

// splitEquiJoin inspects an ON clause for an equality between a left-side
// column expression and a right-side one. It returns (leftKey, rightKey,
// residual); leftKey == nil means no hashable equality was found.
func splitEquiJoin(on Expr, leftCols, rightCols []colInfo) (Expr, Expr, Expr) {
	if on == nil {
		return nil, nil, nil
	}
	conjuncts := splitConjuncts(on)
	for i, c := range conjuncts {
		b, ok := c.(*BinaryOp)
		if !ok || b.Op != "=" {
			continue
		}
		ls, rs := exprSide(b.Left, leftCols, rightCols), exprSide(b.Right, leftCols, rightCols)
		var lk, rk Expr
		switch {
		case ls == sideLeft && rs == sideRight:
			lk, rk = b.Left, b.Right
		case ls == sideRight && rs == sideLeft:
			lk, rk = b.Right, b.Left
		default:
			continue
		}
		rest := append(append([]Expr{}, conjuncts[:i]...), conjuncts[i+1:]...)
		return lk, rk, joinConjuncts(rest)
	}
	return nil, nil, nil
}

type side int

const (
	sideNone side = iota
	sideLeft
	sideRight
	sideBoth
)

// exprSide classifies which join side an expression's column references
// belong to.
func exprSide(e Expr, leftCols, rightCols []colInfo) side {
	s := sideNone
	walkExpr(e, func(x Expr) bool {
		cr, ok := x.(*ColumnRef)
		if !ok {
			return true
		}
		_, inL := findCol(leftCols, cr.Table, cr.Column)
		_, inR := findCol(rightCols, cr.Table, cr.Column)
		cs := sideBoth // in both, or in neither (an outer reference): be conservative
		switch {
		case inL > 0 && inR == 0:
			cs = sideLeft
		case inR > 0 && inL == 0:
			cs = sideRight
		}
		switch {
		case s == sideNone:
			s = cs
		case s != cs:
			s = sideBoth
		}
		return true
	})
	return s
}
