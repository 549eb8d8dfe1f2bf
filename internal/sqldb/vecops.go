package sqldb

// This file implements the batch pipeline every large single-table scan
// runs through, and the planner's one decision about it. Above the size
// gate a filter-stack-over-scan chain becomes a vecScanOp: morsels of
// visible rows come from the shared batchSource (source.go), each WHERE
// conjunct runs as a predicate kernel (vector.go) where it compiles and as
// the row engine's closure over the batch's rows where it does not, and
// the survivors are emitted as rows, projected in place, folded into GROUP
// BY partitions, or offered to a top-K heap that keeps ORDER BY … LIMIT k's
// rows and builds no other. The same pipeline is driven two ways: by a counter
// on the owner goroutine, or by pool workers (parallel.go) that each own a
// private instance and claim morsel ordinals from a shared atomic — so
// "vectorized" and "parallel" are properties of one scan, not two
// executors. Below the gate, under an index-served ORDER BY, and wherever
// vectorEnabled is off, the row iterator (scanOp + filterOp, exec.go)
// runs instead; it is also the reference the equivalence suites compare
// this pipeline against.
//
// Serial emission accounts lazily so it stays bit-identical to the row
// iterator even when a LIMIT stops the plan early: gathered rows and the
// tombstones stepped over before them are billed only when the emission
// cursor passes them, exactly where the row engine's pull would have.
// Pool workers and folds never stop early and bill whole batches.

// vectorEnabled switches the batch pipeline on. Package-level so the
// equivalence and metamorphic suites can force the row iterator and
// compare the two row for row.
var vectorEnabled = true

// scanCounts is the work one scan (or one batch of it) did.
type scanCounts struct {
	scanned uint64 // visible rows read
	tombs   uint64 // invisible versions stepped over
	decoded uint64 // sealed blocks decoded
	batches uint64 // non-empty batches run
}

// scanTally is the accounting every base-table leaf embeds — scanOp,
// ordScanOp, corrProbeScanOp, mergeJoinOp and vecScanOp: the operator's
// own work (what EXPLAIN ANALYZE prints and treeScanned sums) beside the
// execution it bills. qc is nil where there is nothing to bill (a pool
// worker's private copy, a plan built only for display).
type scanTally struct {
	qc     *queryCtx
	cnt    scanCounts
	opened bool
}

func (s *scanTally) counts() scanCounts { return s.cnt }

// account adds work done to the operator's counters and to the per-query
// recorder.
func (s *scanTally) account(d scanCounts) {
	if s.qc != nil {
		s.qc.RowsScanned += d.scanned
		s.qc.TombstonesSkipped += d.tombs
		s.qc.DecodedBlocks += d.decoded
		s.qc.VectorBatches += d.batches
		if d.decoded > 0 && s.cnt.decoded == 0 {
			s.qc.SegmentScans++
		}
	}
	s.cnt.scanned += d.scanned
	s.cnt.tombs += d.tombs
	s.cnt.decoded += d.decoded
	s.cnt.batches += d.batches
}

// firstOpen reports whether the execution has yet to be billed this leaf's
// access path: a leaf re-pulled per outer row (reset) took one path, once.
func (s *scanTally) firstOpen() bool {
	first := s.qc != nil && !s.opened
	s.opened = true
	return first
}

// batchPlan is what one batch scan does, fixed at plan time and shared by
// every instance of it.
type batchPlan struct {
	table *Table
	qual  string
	cols  []colInfo
	indexAccess
	preds   []Expr       // fused WHERE conjuncts
	items   []SelectItem // projection fused into the scan; nil = emit table rows
	folds   bool         // the aggregation is folded batch by batch: over
	groupBy []Expr       // ... these keys,
	aggs    []*FuncCall  // ... these aggregates
	repRows bool         // the post-aggregation phase reads representative rows
	// order, when set, folds ORDER BY … LIMIT into the scan: every instance
	// keeps the first rows of the order — items extended with the keys order
	// names — in its own copy of top, the empty pattern heap.
	order  []scanKey
	top    *topKHeap
	above  []Expr // what the operators above read from emitted table rows
	db     *Database
	params []Value
	// workers > 1 runs the scan on the pool; unordered lets its gather
	// take morsels in completion order (parallel.go).
	workers   int
	unordered bool
}

// batchExpr is one expression of the pipeline: a kernel evaluated once
// per batch when the vector compiler accepts it, else the row engine's
// closure evaluated per surviving row.
type batchExpr struct {
	kern vecExprFn
	row  compiledExpr
	col  *vecCol // kern's result over the current batch
}

// scanKey is one sort key of a top-K folded into the scan: output column
// out of the row being built or, when out is negative, an expression over
// the scan's columns.
type scanKey struct {
	out  int
	expr Expr
}

// batchFold is one instance's partial state under a pipeline breaker folded
// into the scan: GROUP BY partitions, or the top-K heap.
type batchFold struct {
	groupTable
	keys    []batchExpr // group keys, or sort keys (zero where order names an output column)
	args    []batchExpr // indexed like aggs; zero for COUNT(*) / no-arg
	keyVals []Value
	top     *topKHeap
	errAt   int // scan ordinal of the row a fold error was raised on
}

// vecScanOp is one instance of a batch scan. The planner's instance is
// the plan's display node and counter sink, and runs the scan itself when
// it is serial; pooled scans give every worker a private copy
// (workerCopy), because kernels, closures and the batch own scratch
// state.
type vecScanOp struct {
	batchPlan
	outer     *evalEnv // owner's instance only
	scanTally          // qc on the owner's instance only: workers never touch it

	env      *evalEnv
	vpreds   []vecPredFn    // per conjunct; nil where it did not compile
	cpreds   []compiledExpr // the closure for those
	gather   [][]*batchSite // ... and the batch-form calls a closure makes, gathered a morsel ahead
	at       int            // the batch position a closure is evaluating: where those calls read their class
	proj     []batchExpr
	fold     *batchFold
	need     []bool // column ordinals anything reads
	needRows bool   // something reads b.rows
	kernels  int    // expressions compiled to kernels ...
	exprs    int    // ... of this many in the pipeline

	src *batchSource // captured by open, shared with worker copies
	b   *vecBatch    // from batchPool; nil between scans

	// Serial driver: next morsel, emission cursor, and the tombstones seen
	// since the last gathered row.
	idx     int
	emitPos int
	carry   int32

	arena rowArena
}

// compile builds this instance's kernels and closures and derives which
// columns (and whether rows) the batches must carry.
func (s *vecScanOp) compile() error {
	if s.env == nil {
		s.env = newEvalEnv(s.cols, s.db, s.params, s.outer, s.qc)
	}
	vc := newVecCompiler(s.env)
	closure := func(e Expr) (compiledExpr, error) {
		vc.markRefs(e)
		s.needRows = true
		return compileExpr(e, s.env)
	}
	s.vpreds = make([]vecPredFn, len(s.preds))
	s.cpreds = make([]compiledExpr, len(s.preds))
	s.gather = make([][]*batchSite, len(s.preds))
	for i, p := range s.preds {
		s.exprs++
		var ok bool
		if s.vpreds[i], ok = vc.compilePred(p); ok {
			s.kernels++
			continue
		}
		var err error
		s.env.sites = &s.gather[i] // the conjunct's batch-form calls, if it makes any
		s.cpreds[i], err = closure(p)
		s.env.sites = nil
		if err != nil {
			return err
		}
	}
	expr := func(e Expr) (batchExpr, error) {
		s.exprs++
		if k, ok := vc.compileExpr(e); ok {
			s.kernels++
			return batchExpr{kern: k}, nil
		}
		c, err := closure(e)
		return batchExpr{row: c}, err
	}
	var err error
	if s.items != nil {
		s.proj = make([]batchExpr, len(s.items))
		for i, it := range s.items {
			if s.proj[i], err = expr(it.Expr); err != nil {
				return err
			}
		}
	}
	if s.folds || s.order != nil {
		f := &batchFold{
			keys:    make([]batchExpr, len(s.groupBy)+len(s.order)),
			args:    make([]batchExpr, len(s.aggs)),
			keyVals: make([]Value, len(s.groupBy)),
		}
		for i, ge := range s.groupBy {
			if f.keys[i], err = expr(ge); err != nil {
				return err
			}
		}
		for i, k := range s.order {
			if k.out < 0 {
				if f.keys[i], err = expr(k.expr); err != nil {
					return err
				}
			}
		}
		for i, fc := range s.aggs {
			if fc.Star || len(fc.Args) == 0 {
				continue
			}
			if f.args[i], err = expr(fc.Args[0]); err != nil {
				return err
			}
		}
		s.fold = f
		s.resetFold()
		s.arena.reuse = true // nothing keeps a row a folding scan builds but the heap's copy
	}
	if s.items == nil && !s.folds {
		s.needRows = true // table rows are the output
		for _, e := range s.above {
			vc.markRefs(e)
		}
	}
	s.need = vc.need
	return nil
}

// resetFold empties the instance's fold state: a re-pulled plan folds
// afresh.
func (s *vecScanOp) resetFold() {
	if s.top != nil {
		top := *s.top
		s.fold.top = &top
		return
	}
	s.fold.groupTable = groupTable{}
}

// workerCopy builds a pool worker's private instance over the same plan
// and source. Owner goroutine only: compilation reads planner state.
func (s *vecScanOp) workerCopy() (*vecScanOp, error) {
	w := &vecScanOp{batchPlan: s.batchPlan, src: s.src}
	// A private row slot over the planner's (immutable) schema.
	w.env = &evalEnv{cols: s.cols, params: s.params, db: s.db}
	return w, w.compile()
}

func (s *vecScanOp) columns() []colInfo { return s.cols }

// reset rewinds the serial driver. The source and the access-path record
// persist, as scanOp's do.
func (s *vecScanOp) reset() {
	s.idx, s.emitPos, s.carry = 0, 0, 0
	s.release()
}

// release hands the batch back to the pool once nothing will read it
// again: at the end of a scan or fold, and when a pool worker exits.
// Anything emitted from it has been consumed by then — operators above a
// scan copy what they keep.
func (s *vecScanOp) release() {
	if s.b != nil {
		batchPool.Put(s.b)
		s.b = nil
	}
}

// open captures the iteration space on first use: range ids are
// materialised, the source snapshots the table, and the access path is
// recorded once. Owner goroutine only.
func (s *vecScanOp) open() error {
	if s.src != nil {
		return nil
	}
	var snap *snapshot
	if s.qc != nil {
		snap = s.qc.snap
	}
	if err := s.indexAccess.open(s.table, snap, &s.scanTally); err != nil {
		return err
	}
	s.src = newBatchSource(s.table, s.ids, snap)
	return nil
}

// fill loads morsel idx and runs the filter over it, leaving the
// survivors in b.sel and the kernel-backed output expressions evaluated.
// Only batch-level work is billed here; rows and tombstones are billed by
// whoever consumes the batch.
func (s *vecScanOp) fill(idx int) error {
	if s.b == nil {
		s.b = getBatch(len(s.cols))
	}
	b := s.b
	if err := s.src.load(idx, s.need, s.needRows, b); err != nil {
		return err
	}
	var d scanCounts
	if b.blk != nil {
		d.decoded = 1
	}
	if b.n > 0 {
		d.batches = 1
	}
	s.account(d)
	b.sel = maskTo(b.n)
	for i, p := range s.vpreds {
		if p != nil {
			b.t, b.nl = vecBitset{}, vecBitset{}
			p(b, &b.t, &b.nl)
			for w := range b.sel {
				b.sel[w] &= b.t[w] // false and NULL both drop, as filterOp
			}
			continue
		}
		// The third kind of conjunct: its batch-form calls are asked about
		// the rows the conjuncts before it kept, in one call each.
		for _, st := range s.gather[i] {
			if st.pos = &s.at; st.ahead == nil {
				st.ahead = make([]int32, morselSize)
			}
			for j := 0; j < b.n; j++ {
				if b.sel.get(j) {
					s.env.row, s.at = b.rows[j], j
					st.ahead[j], _ = st.gather() // a failed argument is raised by the closure below
				}
			}
			st.memo.Flush(s.qc.ctx)
		}
		for j := 0; j < b.n; j++ {
			if !b.sel.get(j) {
				continue
			}
			s.env.row, s.at = b.rows[j], j
			v, err := s.cpreds[i]()
			if err != nil {
				return err
			}
			if v.IsNull() || !v.AsBool() {
				b.sel.unset(j)
			}
		}
	}
	if b.sel == (vecBitset{}) {
		return nil
	}
	for i := range s.proj {
		s.proj[i].eval(b)
	}
	if f := s.fold; f != nil {
		for i := range f.keys {
			f.keys[i].eval(b)
		}
		for i := range f.args {
			f.args[i].eval(b)
		}
	}
	return nil
}

func (e *batchExpr) eval(b *vecBatch) {
	if e.kern != nil {
		e.col = e.kern(b)
	}
}

// at returns the expression's value for row i of the current batch.
func (e *batchExpr) at(s *vecScanOp, i int) (Value, error) {
	if e.kern != nil {
		return e.col.at(i), nil
	}
	s.env.row = s.b.rows[i]
	return e.row()
}

func (s *vecScanOp) next() (Row, bool, error) {
	if err := s.open(); err != nil {
		return nil, false, err
	}
	if s.qc != nil {
		if err := s.qc.tickCancelled(); err != nil {
			return nil, false, err
		}
	}
	nb := s.src.batches()
	for {
		// Advance the emission cursor to the next survivor, billing every
		// row and tombstone it passes — the lazy walk that keeps totals
		// identical to the row engine under early stops.
		for s.b != nil && s.emitPos < s.b.n {
			i := s.emitPos
			s.emitPos++
			s.account(scanCounts{scanned: 1, tombs: uint64(s.b.pre[i])})
			if s.b.sel.get(i) {
				r, err := s.rowAt(i)
				return r, err == nil, err
			}
		}
		if s.idx >= nb {
			// Trailing tombstones are billed only when the consumer
			// drained the scan this far — exactly when the row engine
			// would have walked them.
			s.account(scanCounts{tombs: uint64(s.carry)})
			s.carry = 0
			s.release()
			return nil, false, nil
		}
		if err := s.fill(s.idx); err != nil {
			return nil, false, err
		}
		s.idx++
		s.emitPos = 0
		if s.b.n > 0 {
			s.b.pre[0] += s.carry
			s.carry = 0
		}
		s.carry += s.b.tail
	}
}

// rowAt is the output row for position i of the current batch: the fused
// projection's values when there is one (with room after them for the sort
// keys of a folded top-K), else the table row (valid until the next fill
// when the batch is a sealed block's view).
func (s *vecScanOp) rowAt(i int) (Row, error) {
	if s.proj == nil {
		return s.b.rows[i], nil
	}
	out := s.arena.alloc(len(s.proj) + len(s.order))
	for j := range s.proj {
		v, err := s.proj[j].at(s, i)
		if err != nil {
			return nil, err
		}
		out[j] = v
	}
	return out, nil
}

// eager bills the whole current batch at once, for consumers that never
// stop inside one (pool workers, folds).
func (s *vecScanOp) eager() {
	d := scanCounts{scanned: uint64(s.b.n), tombs: uint64(s.b.tail)}
	for _, p := range s.b.pre[:s.b.n] {
		d.tombs += uint64(p)
	}
	s.account(d)
}

// batchRows runs morsel idx and returns its surviving output rows. Rows
// outlive the batch here (the gather holds several morsels), so rows decoded
// from sealed blocks are copied out of the batch's storage.
func (s *vecScanOp) batchRows(idx int) ([]Row, error) {
	if err := s.fill(idx); err != nil {
		return nil, err
	}
	s.eager()
	out := make([]Row, 0, s.b.sel.count(s.b.n))
	for i := 0; i < s.b.n; i++ {
		if !s.b.sel.get(i) {
			continue
		}
		r, err := s.rowAt(i)
		if err != nil {
			return out, err
		}
		if s.proj == nil && s.b.arena.used > 0 {
			r = append(s.arena.alloc(len(r))[:0], r...)
		}
		out = append(out, r)
	}
	return out, nil
}

// foldBatch runs morsel idx and folds its surviving rows into the
// instance's groups: the one aggregation loop of the batch pipeline,
// shared by the serial and the pooled driver (runAggregationBatch). Group
// classes, representative rows and accumulator folds match the row drain
// (runAggregation) exactly.
func (s *vecScanOp) foldBatch(idx int) error {
	f := s.fold
	f.errAt = idx * morselSize
	if err := s.fill(idx); err != nil {
		return err
	}
	s.eager()
	for i := 0; i < s.b.n; i++ {
		if !s.b.sel.get(i) {
			continue
		}
		f.errAt = idx*morselSize + i
		for gi := range f.keys {
			var err error
			if f.keyVals[gi], err = f.keys[gi].at(s, i); err != nil {
				return err
			}
		}
		g, fresh, err := f.group(s.aggs, f.keyVals, nil)
		if err != nil {
			return err
		}
		if fresh {
			g.firstID = f.errAt
			if s.repRows {
				if g.repRow, err = s.materializeRow(i); err != nil {
					return err
				}
			}
		}
		for ai, fc := range s.aggs {
			if fc.Star {
				g.states[ai].add(Int(1))
				continue
			}
			if len(fc.Args) == 0 {
				continue
			}
			v, err := f.args[ai].at(s, i)
			if err != nil {
				return err
			}
			// Partial float sums are kept per morsel so merged results do
			// not depend on which worker ran which morsel (agg.go); a
			// single instance just adds left to right, as the row drain.
			if ma, ok := g.states[ai].(morselAdder); ok && s.workers > 1 {
				ma.addMorsel(v, idx)
			} else {
				g.states[ai].add(v)
			}
		}
	}
	return nil
}

// topBatch runs morsel idx and offers every surviving row — the fused
// projection extended with its sort keys, evaluated in projectOp's order so
// the first error is the one the row path would raise — to the instance's
// top-K heap, ties broken by scan ordinal as the stable sort breaks them by
// arrival. Rows are built in one buffer; the heap copies the few it keeps.
func (s *vecScanOp) topBatch(idx int) error {
	f := s.fold
	f.errAt = idx * morselSize
	if err := s.fill(idx); err != nil {
		return err
	}
	s.eager()
	for i := 0; i < s.b.n; i++ {
		if !s.b.sel.get(i) {
			continue
		}
		f.errAt = idx*morselSize + i
		row, err := s.rowAt(i)
		for ki := 0; err == nil && ki < len(s.order); ki++ {
			if k := s.order[ki]; k.out >= 0 {
				row[len(s.proj)+ki] = row[k.out]
			} else {
				row[len(s.proj)+ki], err = f.keys[ki].at(s, i)
			}
		}
		if err != nil {
			return err
		}
		f.top.offer(row, f.errAt)
	}
	return nil
}

// materializeRow builds a full-width row for a batch position: heap
// batches hand back a copy of the original row; sealed batches read the
// decoded columns and the rest off the block, value by value — aggregation
// pays for columns outside its expressions only when a batch actually
// discovers a new group.
func (s *vecScanOp) materializeRow(i int) (r Row, err error) {
	b := s.b
	if b.blk == nil {
		return b.rows[i].Clone(), nil
	}
	r = make(Row, len(s.cols))
	for c := 0; c < len(r) && err == nil; c++ {
		if col := &b.cols[c]; col.vals != nil {
			r[c] = col.vals[i]
		} else {
			r[c], err = b.blk.cols[c].valueAt(i, b.n, nil)
		}
	}
	return r, err
}

// ---------------------------------------------------------------------------
// The planner's decision

// scanShape is what planScanDriver needs to know about the statement
// around the scan.
type scanShape struct {
	stmt      *SelectStmt
	items     []SelectItem
	aggregate bool
	aggs      []*FuncCall
	repRows   bool // the post-aggregation phase reads representative rows (readsRepRow)
	needSort  bool // a sortOp will read ORDER BY keys off the input rows
	poolable  bool // top-level, uncorrelated: the gather can preserve it
	// order, when set: an ORDER BY … LIMIT window of topK rows whose keys
	// the scan can evaluate itself (scanOrderKeys).
	order []scanKey
	topK  int
}

// planScanDriver is the planner's one decision about how a statement's
// FROM input is driven. A filter stack over one base-table scan whose
// input is over the morselMinRows gate becomes a batch scan — with the
// projection fused in when nothing above needs the input rows, or the
// aggregation or the ORDER BY … LIMIT folded in, so that only groups or the
// window's rows are ever built — and the batch scan runs on the worker pool when
// the database has one and the statement's shape lets the gather keep the
// serial result: every expression the workers would evaluate is
// parallel-safe, partial aggregates merge exactly (or the consumer
// provably cannot observe arrival order, which licenses the unordered
// gather), and no bare LIMIT window would make scan-ahead read rows the
// window never emits. Everything else keeps the row iterator it came
// with. The returned scan is nil when none was planned.
func planScanDriver(src operator, sh scanShape, db *Database, params []Value,
	outer *evalEnv, qc *queryCtx) (operator, *vecScanOp, error) {

	// Walk the filter stack down to its scan; each conjunct on the way
	// becomes a kernel or a closure of its own.
	var filters []*filterOp
	bottom := src
	for f, ok := bottom.(*filterOp); ok; f, ok = bottom.(*filterOp) {
		filters, bottom = append(filters, f), f.child
	}
	sc, ok := bottom.(*scanOp)
	if !vectorEnabled || !ok {
		return src, nil, nil
	}
	// Range scans estimate by table size: bounds are not yet
	// materialised, and a small range costs one morsel anyway.
	est := sc.table.liveCount()
	if sc.ids != nil {
		est = len(sc.ids)
	}
	if est < morselMinRows {
		return src, nil, nil
	}
	var preds []Expr
	// A conjunct with batch-form calls (a filter of its own, on top) is a
	// closure the scan gathers a morsel ahead for, after the others.
	var gathered []Expr
	for _, f := range filters {
		if f.win != nil {
			gathered = append([]Expr{f.pred}, gathered...)
		} else {
			preds = append(preds, splitConjuncts(f.pred)...)
		}
	}
	preds = append(preds, gathered...)
	bs := &vecScanOp{
		batchPlan: batchPlan{
			table: sc.table, qual: sc.qual, cols: sc.cols,
			indexAccess: sc.indexAccess,
			preds:       preds, db: db, params: params, workers: 1,
		},
		outer: outer, scanTally: scanTally{qc: qc},
	}
	stmt := sh.stmt
	itemExprs := make([]Expr, len(sh.items))
	for i, it := range sh.items {
		itemExprs[i] = it.Expr
	}
	pool := db != nil && db.maxWorkers > 1 && qc != nil && sh.poolable && parallelSafe(preds...)
	switch {
	case sh.aggregate && pool && parallelSafe(stmt.GroupBy...) && mergeableAggregates(sh.aggs):
		bs.folds, bs.workers = true, db.maxWorkers
	case sh.aggregate && pool && aggOrderInsensitive(stmt, sh.aggs, sh.repRows):
		// Partial states do not merge (e.g. DISTINCT aggregates), but the
		// scan itself can still run on the pool, gathered in completion
		// order, under the row aggregation.
		bs.workers, bs.unordered = db.maxWorkers, true
	case sh.aggregate:
		bs.folds = true
	case sh.order != nil:
		bs.items, bs.order = sh.items, sh.order
		bs.top = &topKHeap{k: sh.topK, width: len(sh.items), orderBy: stmt.OrderBy}
		for _, k := range sh.order {
			pool = pool && (k.out >= 0 || parallelSafe(k.expr))
		}
		if pool && parallelSafe(itemExprs...) {
			bs.workers = db.maxWorkers
		}
	default:
		window := (stmt.Limit != nil || stmt.Offset != nil) && len(stmt.OrderBy) == 0
		pool = pool && !window
		if !sh.needSort && (!pool || parallelSafe(itemExprs...)) {
			bs.items = sh.items
		}
		if pool {
			bs.workers = db.maxWorkers
		}
	}
	if bs.folds {
		bs.groupBy, bs.aggs, bs.repRows = stmt.GroupBy, sh.aggs, sh.repRows
	} else if bs.items == nil {
		bs.above = append(append(itemExprs, stmt.GroupBy...), stmt.Having)
		for _, ob := range stmt.OrderBy {
			bs.above = append(bs.above, ob.Expr)
		}
	}
	if err := bs.compile(); err != nil {
		return nil, nil, err
	}
	if bs.kernels < bs.exprs && qc != nil {
		qc.RowFallbacks++
	}
	if bs.workers > 1 && !bs.folds && bs.order == nil {
		return &parScanOp{scan: bs}, bs, nil
	}
	return bs, bs, nil
}
