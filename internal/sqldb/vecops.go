package sqldb

import "math/bits"

// This file implements the one leaf every base-table read goes through — a
// single-table SELECT, each join input, UPDATE and DELETE's walk over their
// victims — and the planner's decisions about it. A scanOp reads morsels of
// visible rows from the shared batchSource (source.go), whatever the table's
// size and whatever its access path (indexAccess, exec.go: every slot, an
// equality's ids, a range's, or an ordered walk of an index that serves the
// ORDER BY): a short table is one short batch. Each WHERE conjunct the scan
// owns runs as a predicate kernel (vector.go) over the whole batch while
// every conjunct before it compiled to one; from the first that did not on,
// the conjuncts run as the row engine's closures, row by row, when a row is
// consumed — so a LIMIT that stops the plan stops them too, and an error is
// the one of the first row that raises one. Survivors are emitted as table
// rows, projected in place, folded into GROUP BY partitions, or offered to a
// top-K heap that keeps ORDER BY … LIMIT k's rows and builds no other. The
// same scan is driven two ways: by a counter on the owner goroutine, or by
// pool workers (parallel.go) that each own a private instance and claim
// morsel ordinals from a shared atomic — so "vectorized" and "parallel" are
// properties of one scan, not two executors.
//
// Serial emission accounts lazily: a row and the tombstones stepped over
// before it are billed only when the emission cursor passes them, so a LIMIT
// that stops the plan early bills what it read and no more. Pool workers and
// folds never stop early and bill whole batches.

// scanCounts is the work one scan (or one batch of it) did.
type scanCounts struct {
	scanned uint64 // visible rows read
	tombs   uint64 // invisible versions stepped over
	decoded uint64 // sealed blocks decoded
	batches uint64 // non-empty batches run
}

// account adds work done to the operator's counters and to the per-query
// recorder.
func (s *scanOp) account(d scanCounts) {
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
func (s *scanOp) firstOpen() bool {
	first := s.qc != nil && !s.opened
	s.opened = true
	return first
}

// batchPlan is what every instance of one scan shares: the table under
// its name in the statement, the access path, and the scan's own conjuncts.
type batchPlan struct {
	table *Table
	qual  string
	cols  []colInfo
	indexAccess
	preds []Expr // the WHERE conjuncts the scan evaluates
}

// scanFusion is what the planner folded into a scan (planScan), shared by
// every instance of it.
type scanFusion struct {
	items   []SelectItem // projection fused into the scan; nil = emit table rows
	folds   bool         // the aggregation is folded batch by batch: over
	groupBy []Expr       // ... these keys,
	specs   []aggSpec    // ... these aggregates
	repRows bool         // the post-aggregation phase reads representative rows
	// order, when set, folds ORDER BY … LIMIT into the scan: every instance
	// keeps the first rows of the order — items extended with the keys not
	// read in place — in its own copy of top, the empty pattern heap.
	order *sortKeys
	top   *topKHeap
	// above is what the operators above read from emitted table rows; nil when
	// the scan cannot know (a join, a window of rows, DML), and then a sealed
	// batch decodes every column.
	above []Expr
	// workers > 1 runs the scan on the pool (parallel.go).
	workers int
}

// scanPipe is one instance's pipeline: the fusion it runs and what compile
// built for it.
type scanPipe struct {
	scanFusion
	env      evalEnv
	vpreds   []vecPredFn    // the leading conjuncts that compiled to kernels
	rest     []compiledExpr // the first that did not and every one after it
	proj     []batchExpr
	fold     *batchFold
	vec      []bool // column ordinals the kernels read
	dec      []bool // ... and those a sealed batch decodes; nil = every one
	colsOnly bool   // nothing reads b.rows: a sealed batch builds none
	kernels  int    // expressions compiled to kernels ...
	exprs    int    // ... of this many in the pipeline
	arena    rowArena
	at       int // the scan ordinal of the row a whole-batch consumer is at (each)
}

// tableRows is the pipe of every scan with nothing to evaluate, which emits
// whole table rows. Shared, so never written.
var tableRows = &scanPipe{}

// batchExpr is one expression of the pipeline: a kernel evaluated once
// per batch when the vector compiler accepts it, else the row engine's
// closure evaluated per surviving row.
type batchExpr struct {
	kern vecExprFn
	row  compiledExpr
	col  *vecCol // kern's result over the current batch
}

// batchFold is one instance's partial state under a pipeline breaker folded
// into the scan: GROUP BY partitions, or the top-K heap.
type batchFold struct {
	groupTable
	keys    []batchExpr // group keys, or sort keys (zero where one is read in place)
	args    []batchExpr // indexed like specs; zero where the aggregate has no argument
	keyVals []Value
	top     *topKHeap
}

// scanOp is one instance of a base-table scan. The planner's instance is
// the plan's display node and counter sink, and runs the scan itself when
// it is serial; pooled scans give every worker a private copy (workerCopy),
// because kernels, closures and the batch own scratch state.
type scanOp struct {
	batchPlan
	*scanPipe
	// The scan's accounting: its own work (what EXPLAIN ANALYZE prints and
	// treeScanned sums) beside the execution it bills. qc is nil where there
	// is nothing to bill: a pool worker's private copy, a plan built only for
	// display.
	qc     *queryCtx
	cnt    scanCounts
	opened bool // the access path is billed (firstOpen)
	// probe, when set, makes the scan a correlated probe: each reset reads
	// the ids of a new key.
	probe *corrProbe

	src batchSource // captured by open, copied into worker instances
	b   *vecBatch   // from getBatch; nil between scans

	// Serial driver: next morsel, emission cursor, and the tombstones seen
	// since the last gathered row.
	idx, emitPos int
	carry        int32
	lent         bool // the consumer drops rows (lendRows): sealed ones are not copied out
}

func newScanOp(t *Table, qual string, qc *queryCtx) *scanOp {
	return &scanOp{
		batchPlan: batchPlan{table: t, qual: qual, cols: tableCols(t, qual)},
		scanPipe:  tableRows, qc: qc,
	}
}

// tableCols is a base table's schema as seen under the name qual — under
// its own name, the one the table keeps.
func tableCols(t *Table, qual string) []colInfo {
	if qual == t.Name && t.cols != nil {
		return t.cols
	}
	cols := make([]colInfo, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = colInfo{qual: qual, name: c.Name}
	}
	return cols
}

// compile builds this instance's kernels and closures and derives which
// columns (and whether rows) the batches must carry. A scan with nothing to
// evaluate keeps the shared pipe that emits whole table rows.
func (s *scanOp) compile(db *Database, params []Value, outer *evalEnv) error {
	if s.preds == nil && s.items == nil && !s.folds && s.above == nil {
		return nil
	}
	if s.scanPipe == tableRows {
		s.scanPipe = &scanPipe{}
	}
	s.env = *newEvalEnv(s.cols, db, params, outer, s.qc)
	env := &s.env
	vc := newVecCompiler(env)
	rows := false
	closure := func(e Expr) (compiledExpr, error) {
		vc.markRefs(e)
		rows = true
		return compileExpr(e, env)
	}
	for _, p := range s.preds {
		s.exprs++
		if s.rest == nil {
			if k, ok := vc.compilePred(p); ok {
				s.vpreds = append(s.vpreds, k)
				s.kernels++
				continue
			}
		}
		c, err := closure(p)
		if err != nil {
			return err
		}
		s.rest = append(s.rest, c)
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
			keys:    make([]batchExpr, len(s.groupBy)),
			args:    make([]batchExpr, len(s.specs)),
			keyVals: make([]Value, len(s.groupBy)),
		}
		for i, ge := range s.groupBy {
			if f.keys[i], err = expr(ge); err != nil {
				return err
			}
		}
		if s.order != nil {
			f.keys = make([]batchExpr, len(s.order.at))
			for i, at := range s.order.at {
				if at >= s.order.width {
					if f.keys[i], err = expr(s.order.orderBy[i].Expr); err != nil {
						return err
					}
				}
			}
		}
		for i, a := range s.specs {
			if a.arg == nil {
				continue
			}
			if f.args[i], err = expr(a.arg); err != nil {
				return err
			}
		}
		s.fold = f
		s.arena.reuse = true // nothing keeps a row a folding scan builds but the heap's copy
	}
	s.vec, s.dec = vc.need, vc.dec
	if s.items == nil && !s.folds {
		rows = true // table rows are the output
		if s.above == nil {
			s.dec = nil
		}
		for _, e := range s.above {
			vc.markRefs(e)
		}
	}
	s.colsOnly = !rows
	if s.kernels < s.exprs && s.qc != nil {
		s.qc.RowFallbacks++
	}
	return nil
}

// resetFold empties the instance's fold state: a re-pulled plan folds
// afresh. merged says other instances fold beside this one, and a merge
// will order the groups by the ordinals that founded them.
func (s *scanOp) resetFold(merged bool) {
	if s.top != nil {
		top := *s.top
		s.fold.top = &top
		return
	}
	s.fold.groupTable = newGroupTable(s.specs)
	s.fold.ordinals = merged
}

// workerCopy builds a pool worker's private instance over the same plan
// and source. Owner goroutine only: compilation reads planner state.
func (s *scanOp) workerCopy() (*scanOp, error) {
	w := &scanOp{batchPlan: s.batchPlan, scanPipe: &scanPipe{scanFusion: s.scanFusion}, src: s.src}
	return w, w.compile(s.env.db, s.env.params, nil)
}

func (s *scanOp) columns() []colInfo { return s.cols }

// reset rewinds the serial driver. The source and the access-path record
// persist — a scan re-pulled per outer row reads what it read the first
// time, an ordered walk from its start — except under a probe, which looks
// its key up afresh.
func (s *scanOp) reset() {
	s.idx, s.emitPos, s.carry = 0, 0, 0
	s.release()
	if s.probe != nil {
		s.src.table = nil
	}
	if s.src.walk != nil {
		s.src.walk.rewind()
	}
}

// release hands the batch back (putBatch) once nothing will read it
// again: at the end of a scan or fold, and when a pool worker exits.
// Anything emitted from it has been consumed by then — operators above a
// scan copy what they keep.
func (s *scanOp) release() {
	if s.b != nil {
		putBatch(s.b)
		s.b = nil
	}
}

// open captures the iteration space on first use: range ids are
// materialised, an ordered walk started or a probe's ids looked up, the
// source snapshots the table, and the access path is recorded once. Owner
// goroutine only.
func (s *scanOp) open() error {
	if s.src.table != nil {
		return nil
	}
	var snap *snapshot
	if s.qc != nil {
		snap = s.qc.snap
	}
	var walk *ordWalk
	var err error
	if s.probe == nil {
		if walk, err = s.indexAccess.open(s.table, snap, s); err != nil {
			return err
		}
	} else {
		if s.ids, err = s.probe.lookup(s.table, snap); err != nil {
			return err
		}
		if s.firstOpen() {
			s.qc.IndexScans++
		}
	}
	s.src.capture(s.table, s.ids, walk, snap)
	return nil
}

// fill loads morsel idx and runs the kernels over it, leaving their
// survivors in b.sel and the kernel-backed output expressions evaluated;
// the closures of rest are left to whoever consumes a row (passes). Only
// batch-level work is billed here; rows and tombstones are billed by the
// consumer too.
func (s *scanOp) fill(idx int) error {
	if s.b == nil {
		s.b = getBatch(len(s.table.Columns))
	}
	b := s.b
	if err := s.src.load(idx, s.vec, s.dec, !s.colsOnly, b); err != nil {
		return err
	}
	if b.blk != nil {
		s.account(scanCounts{decoded: 1})
	}
	if b.n > 0 {
		s.account(scanCounts{batches: 1})
	}
	b.sel = maskTo(b.n)
	for _, p := range s.vpreds {
		b.t, b.nl = vecBitset{}, vecBitset{}
		p(b, &b.t, &b.nl)
		for w := range b.sel {
			b.sel[w] &= b.t[w] // false and NULL both drop, as filterOp
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

// passes reports whether row i of the current batch survives the filter:
// the kernels' verdict, then the closures, in conjunct order.
func (s *scanOp) passes(i int) (bool, error) {
	if !s.b.sel.get(i) {
		return false, nil
	}
	for _, c := range s.rest {
		s.env.row = s.b.rows[i]
		v, err := c()
		if err != nil || v.IsNull() || !v.AsBool() {
			return false, err
		}
	}
	return true, nil
}

func (e *batchExpr) eval(b *vecBatch) {
	if e.kern != nil {
		e.col = e.kern(b)
	}
}

// at returns the expression's value for row i of the current batch.
func (e *batchExpr) at(s *scanOp, i int) (Value, error) {
	if e.kern != nil {
		return e.col.at(i), nil
	}
	s.env.row = s.b.rows[i]
	return e.row()
}

func (s *scanOp) next() (Row, bool, error) {
	if err := s.open(); err != nil {
		return nil, false, err
	}
	if err := s.qc.tickCancelled(); err != nil {
		return nil, false, err
	}
	for {
		// Advance the emission cursor to the next survivor, billing every
		// row and tombstone it passes.
		for s.b != nil && s.emitPos < s.b.n {
			i := s.emitPos
			s.emitPos++
			s.account(scanCounts{scanned: 1, tombs: uint64(s.b.pre[i])})
			if ok, err := s.passes(i); err != nil || !ok {
				if err != nil {
					return nil, false, err
				}
				continue
			}
			r, err := s.rowAt(i)
			return r, err == nil, err
		}
		if s.idx >= s.src.batches() {
			// Trailing tombstones are billed only when the consumer
			// drained the scan this far.
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

// rowID is the slot of the row the serial driver returned last.
func (s *scanOp) rowID() int { return s.b.ids[s.emitPos-1] }

// rowAt is the output row for position i of the current batch: the fused
// projection's values when there is one (with room after them for the
// appended sort keys of a folded top-K), else the table row — copied out of
// the batch's storage, which the next fill overwrites, unless the consumer
// drops it.
func (s *scanOp) rowAt(i int) (Row, error) {
	if s.proj == nil {
		r := s.b.rows[i]
		if !s.lent && s.b.arena.used > 0 {
			r = append(s.b.keep.alloc(len(r))[:0], r...)
		}
		return r, nil
	}
	n := len(s.proj)
	if s.order != nil {
		n = s.order.wide
	}
	out := s.arena.alloc(n)
	for j := range s.proj {
		v, err := s.proj[j].at(s, i)
		if err != nil {
			return nil, err
		}
		out[j] = v
	}
	return out, nil
}

// each runs morsel idx and calls fn on every surviving position, billing
// the whole batch: the loop of every consumer that never stops inside one
// (pool workers, folds). at follows the scan ordinal at hand.
func (s *scanOp) each(idx int, fn func(i int) error) error {
	s.at = idx * morselSize
	if err := s.fill(idx); err != nil {
		return err
	}
	d := scanCounts{scanned: uint64(s.b.n), tombs: uint64(s.b.tail)}
	for _, p := range s.b.pre[:s.b.n] {
		d.tombs += uint64(p)
	}
	s.account(d)
	for i := 0; i < s.b.n; i++ {
		s.at = idx*morselSize + i
		ok, err := s.passes(i)
		if err == nil && ok {
			err = fn(i)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// batchRows runs morsel idx and returns its surviving output rows, which
// outlive the batch (the gather joins every morsel's).
func (s *scanOp) batchRows(idx int) (out []Row, err error) {
	err = s.each(idx, func(i int) error {
		if out == nil { // room for every row the kernels kept
			n := 0
			for _, w := range s.b.sel {
				n += bits.OnesCount64(w)
			}
			out = make([]Row, 0, n)
		}
		r, err := s.rowAt(i)
		out = append(out, r)
		return err
	})
	return out, err
}

// foldBatch runs morsel idx and folds its surviving rows into the
// instance's groups: the aggregation loop of the scan, shared by the serial
// and the pooled driver (runAggregationBatch). Group classes, representative
// rows and accumulator folds match the row loop (runAggregation) exactly,
// but that an instance the merge reads keeps each group's founding ordinal,
// and a pooled scan its float parts per morsel so merged results do not
// depend on which worker ran which morsel (agg.go).
func (s *scanOp) foldBatch(idx int) error {
	f, morsel := s.fold, 0
	if s.workers > 1 {
		morsel = idx
	}
	return s.each(idx, func(i int) (err error) {
		for gi := range f.keys {
			if f.keyVals[gi], err = f.keys[gi].at(s, i); err != nil {
				return err
			}
		}
		class, fresh := f.set.Add(f.keyVals)
		if fresh && f.ordinals {
			*f.first.at(class) = s.at
		}
		if fresh && s.repRows {
			if *f.rep.at(class), err = s.materializeRow(i); err != nil {
				return err
			}
		}
		for ai := range f.accs {
			var v Value
			if f.accs[ai].arg != nil {
				if v, err = f.args[ai].at(s, i); err != nil {
					return err
				}
			}
			f.accs[ai].add(class, v, morsel)
		}
		return nil
	})
}

// topBatch runs morsel idx and offers every surviving row — the fused
// projection extended with its appended sort keys, evaluated in projectOp's
// order so the first error is the one the row path would raise — to the instance's
// top-K heap, ties broken by scan ordinal as the stable sort breaks them by
// arrival. Rows are built in one buffer; the heap copies the few it keeps.
func (s *scanOp) topBatch(idx int) error {
	f := s.fold
	return s.each(idx, func(i int) error {
		row, err := s.rowAt(i)
		for ki, at := range s.order.at {
			if err == nil && at >= s.order.width {
				row[at], err = f.keys[ki].at(s, i)
			}
		}
		if err == nil {
			f.top.offer(row, s.at)
		}
		return err
	})
}

// materializeRow builds a full-width row for a batch position: heap
// batches hand back a copy of the original row; sealed batches read the
// decoded columns and the rest off the block, value by value — aggregation
// pays for columns outside its expressions only when a batch actually
// discovers a new group.
func (s *scanOp) materializeRow(i int) (r Row, err error) {
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

// scanShape is what planScan needs to know about the statement around the
// scan.
type scanShape struct {
	stmt      *SelectStmt
	items     []SelectItem
	aggregate bool
	aggs      []*FuncCall
	specs     []aggSpec // aggs as their accumulators start
	repRows   bool      // the post-aggregation phase reads representative rows (readsRepRow)
	needSort  bool      // a sortOp will read ORDER BY keys off the input rows
	pass      bool      // the projection hands its input rows up (identity)
	poolable  bool      // top-level, uncorrelated: the gather can preserve it
	windowed  bool      // a filter that holds a window of rows will sit above the scan
	// order, when set: an ORDER BY … LIMIT window of topK rows whose keys
	// the scan can evaluate itself (sortKeys.foldable).
	order *sortKeys
	topK  int
}

// planScan is the planner's one decision about a single-table statement's
// scan, which it then compiles. With nothing between the scan and the
// statement's consumer but the scan's own conjuncts, the scan fuses the
// projection when nothing above needs the input rows, or folds in the
// aggregation or the ORDER BY … LIMIT, so that only groups or the window's
// rows are ever built. Under a filter that holds a window of rows (a
// conjunct or a select list that calls batch-form functions) the scan
// emits table rows. The scan runs on the worker pool when the database has
// one, its input — the table, an equality's ids or a range's — is over the
// morselMinRows gate, and the statement's shape lets the pool keep the
// serial result: every expression the workers would evaluate is
// parallel-safe, partial aggregates merge exactly (DISTINCT and
// GROUP_CONCAT fold on one instance), and no bare LIMIT window would make
// the pool read rows the window never emits. A pooled scan that neither
// folds nor keeps a top-K heap is gathered (gatherOp, parallel.go). It
// returns the scan only when it pooled or fused it.
func planScan(src operator, sh scanShape, db *Database, params []Value, outer *evalEnv, qc *queryCtx) (operator, *scanOp, error) {
	bottom, windowed := src, sh.windowed
	for f, ok := bottom.(*filterOp); ok; f, ok = bottom.(*filterOp) {
		bottom, windowed = f.child, true
	}
	bs, ok := bottom.(*scanOp)
	if !ok {
		return src, nil, nil
	}
	if windowed {
		return src, nil, bs.compile(db, params, outer)
	}
	stmt := sh.stmt
	itemExprs := func() []Expr {
		es := make([]Expr, len(sh.items))
		for i, it := range sh.items {
			es[i] = it.Expr
		}
		return es
	}
	// An unordered range estimates by the ids its entries file, counted as
	// far as the gate: its ids are not yet materialised.
	est := bs.table.liveCount()
	if bs.ids != nil {
		est = len(bs.ids)
	} else if bs.rangeIdx != nil && !bs.ordered {
		v, err := bs.rangeIdx.orderedView(bs.table)
		if err != nil {
			return nil, nil, err
		}
		est = rangeIDCount(v, bs.spec, morselMinRows)
	}
	pool := db != nil && db.maxWorkers > 1 && qc != nil && sh.poolable && est >= morselMinRows && !bs.ordered && parallelSafe(bs.preds...)
	var f scanFusion
	switch {
	case sh.aggregate && pool && parallelSafe(stmt.GroupBy...) && mergeableAggregates(sh.aggs):
		f.folds, f.workers = true, db.maxWorkers
	case sh.aggregate:
		f.folds = true
	case sh.order != nil:
		f.items, f.order = sh.items, sh.order
		f.top = &topKHeap{k: sh.topK, keys: sh.order}
		for i, at := range sh.order.at {
			pool = pool && (at < sh.order.width || parallelSafe(stmt.OrderBy[i].Expr))
		}
		if pool && parallelSafe(itemExprs()...) {
			f.workers = db.maxWorkers
		}
	default:
		window := (stmt.Limit != nil || stmt.Offset != nil) && len(stmt.OrderBy) == 0
		pool = pool && !window
		// Rows read by id come whole: they are projected above the scan,
		// which spares a point read a pipeline to compile; an identity
		// projection hands the table rows up as they are.
		if !sh.needSort && !sh.pass && bs.ids == nil && bs.rangeIdx == nil && (!pool || parallelSafe(itemExprs()...)) {
			f.items = sh.items
		}
		if pool {
			f.workers = db.maxWorkers
		}
	}
	if f.items == nil && !f.folds && f.workers <= 1 && bs.preds == nil && (bs.ids != nil || bs.rangeIdx != nil) {
		return bs, nil, nil // whole rows by id: nothing to fuse, compile or narrow
	}
	if f.folds {
		f.groupBy, f.specs, f.repRows = stmt.GroupBy, sh.specs, sh.repRows
	} else if f.items == nil {
		f.above = append(append(itemExprs(), stmt.GroupBy...), stmt.Having)
		for _, ob := range stmt.OrderBy {
			f.above = append(f.above, ob.Expr)
		}
	}
	bs.scanPipe = &scanPipe{scanFusion: f}
	if err := bs.compile(db, params, outer); err != nil {
		return nil, nil, err
	}
	if bs.workers > 1 && !bs.folds && bs.order == nil {
		return &gatherOp{scan: bs}, bs, nil
	}
	return bs, bs, nil
}
