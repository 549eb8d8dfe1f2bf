package sqldb

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// This file implements morsel-driven intra-query parallelism in the style
// of Leis et al.'s HyPer scheduler: the position space of a large scan is
// split into fixed-size morsels that a bounded pool of workers claims
// through an atomic counter, so fast workers steal work from slow ones
// without any static partitioning. What a worker does with a morsel is
// not decided here: each one owns a private instance of the statement's
// scan (scanOp, vecops.go) and runs it on the morsels it claims. This file keeps only what a pool adds:
//
//   - parScanOp: claiming, the ticket throttle, and the gather — in morsel
//     order, so the output is bit-identical to the serial scan (safe under
//     LIMIT truncation and for the differential tests), or in
//     completion order when the consumer provably cannot tell.
//   - runFold: the fork-join loop under a consumer folded into the scan —
//     workers fold their morsels into private GROUP BY states
//     (runAggregationBatch: the owner merges them and restores serial
//     first-seen group order from the scan ordinal at which each group
//     appeared) or private top-K heaps (sortOp.drainTopK). One worker is
//     the serial fold.
//
// Whether a scan runs here is the planner's call (planScan, vecops.go):
// only top-level, single-table paths whose expressions are free of
// subqueries and function calls (parallelSafe says why), and only above the
// size gate so small scans never pay pool overhead. Ordered (sort-eliding)
// walks and correlated probes stay serial.
//
// Accounting: workers never touch the shared queryCtx. Each morsel result
// carries its own counters, which the gather — always the query's owner
// goroutine — folds into the per-query recorder, so the EXPLAIN ANALYZE
// accounting property (per-operator sums == per-query totals) holds
// unchanged under parallel execution.

// morselSize is the number of positions one worker claims at a time — and
// one sealed block, and one vector batch. Large enough to amortise the
// claim + channel handoff, small enough to load-balance skewed filters.
const morselSize = 1024

// parallelMaxWorkers caps the default pool size; WithMaxWorkers can raise
// it explicitly.
const parallelMaxWorkers = 8

// morselMinRows is the one size gate: the minimum estimated input before
// the planner puts a scan on the worker pool; below it the scan runs on the
// statement's own goroutine. Package variable so tests can lower
// it to push their small corpora through the pool.
var morselMinRows = 4096

// parallelWorkersActive counts live worker goroutines engine-wide. Test
// instrumentation: the cancellation/leak tests assert it returns to zero
// after Rows.Close.
var parallelWorkersActive atomic.Int64

// defaultMaxWorkers sizes a database's pool from the runtime: GOMAXPROCS
// capped at parallelMaxWorkers. Under GOMAXPROCS=1 every plan stays
// serial, which is what keeps single-core executions bit-identical.
func defaultMaxWorkers() int {
	return min(runtime.GOMAXPROCS(0), parallelMaxWorkers)
}

// parallelSafe reports whether every expression may be evaluated on a
// worker goroutine: no subqueries (they execute subplans against shared
// planner state) and no function calls: a function a caller lent the
// statement (FuncSet, func.go) is the caller's code, and a batch-form one
// answers through a memo and counters that belong to the owner goroutine.
// (The built-ins are pure and could run anywhere; one rule covers every
// call.) Plain column refs, parameters, literals, arithmetic, comparisons,
// CASE, BETWEEN, IN (value list), LIKE and IS NULL are safe.
func parallelSafe(es ...Expr) bool {
	safe := true
	for _, e := range es {
		walkExpr(e, func(x Expr) bool {
			if _, call := x.(*FuncCall); call || isSubqueryNode(x) {
				safe = false
			}
			return safe
		})
	}
	return safe
}

// ---------------------------------------------------------------------------
// Pooled scan with ordered gather

// parMorsel is one worker's result for one morsel.
type parMorsel struct {
	idx  int
	rows []Row
	cnt  scanCounts
	err  error
}

// parScanOp runs a scan on a pool of workers. The gather emits
// morsel results strictly in morsel order, so downstream operators see
// exactly the serial scan's stream — parallelism changes wall-clock, never
// semantics — unless the plan is marked unordered: then the consumer is
// provably order-insensitive (aggregation gated by aggOrderInsensitive),
// and morsels are consumed in completion order so slow ones never stall
// fast ones. Workers are throttled by a ticket semaphore to at most a few
// morsels ahead of the gather, so an abandoned or LIMIT-stopped cursor
// buffers O(workers) morsels, not the table. qc.stopWorkers (registered at
// start) stops and joins the pool before the cursor's snapshot reference
// is released.
type parScanOp struct {
	// scan is the plan the workers copy, the node EXPLAIN shows, and the
	// sink their counters merge into. It is never pulled itself.
	scan *scanOp

	started bool
	stopped bool
	claim   *atomic.Int64
	abort   *atomic.Bool
	stopCh  chan struct{}
	tickets chan struct{}
	results chan parMorsel
	wg      sync.WaitGroup

	nextIdx  int
	nMorsels int
	stash    map[int]parMorsel
	cur      []Row
	pos      int
	curErr   error // error carried by the current morsel, surfaced after its rows
	pendErr  error // sticky terminal error
}

func (s *parScanOp) columns() []colInfo { return s.scan.cols }

func (s *parScanOp) reset() {
	s.stopPool()
	*s = parScanOp{scan: s.scan}
}

// start opens the scan and spawns the pool. Runs on the owner goroutine;
// workers inherit the statement's snapshot through the shared source and
// never take a lock.
func (s *parScanOp) start() {
	if s.pendErr = s.scan.open(); s.pendErr != nil {
		return
	}
	s.started = true
	s.nMorsels = s.scan.src.batches()
	s.claim = &atomic.Int64{}
	s.abort = &atomic.Bool{}
	s.stopCh = make(chan struct{})
	s.stash = make(map[int]parMorsel)
	nw := max(min(s.scan.workers, s.nMorsels), 1)
	// Tickets bound how far claims may run ahead of the gather. Claims
	// are monotonic, so the outstanding morsels are always the smallest
	// unconsumed indices and the gather's next morsel is among them — no
	// deadlock.
	maxAhead := nw * 4
	s.tickets = make(chan struct{}, maxAhead)
	for i := 0; i < maxAhead; i++ {
		s.tickets <- struct{}{}
	}
	s.results = make(chan parMorsel, maxAhead)
	if qc := s.scan.qc; qc != nil {
		qc.addFinalizer(s.stopPool)
	}
	// Every worker's pipeline is compiled here, on the owner goroutine, so
	// workers never touch shared planner state.
	for w := 0; w < nw; w++ {
		inst, err := s.scan.workerCopy()
		if err != nil {
			// The planner compiled this same pipeline already; failure
			// here is unreachable, but fail closed.
			s.pendErr = err
			s.nMorsels = 0
			break
		}
		s.wg.Add(1)
		parallelWorkersActive.Add(1)
		go s.worker(inst)
	}
	go func() {
		s.wg.Wait()
		close(s.results)
	}()
}

func (s *parScanOp) worker(inst *scanOp) {
	defer func() {
		inst.release()
		parallelWorkersActive.Add(-1)
		s.wg.Done()
	}()
	for {
		select {
		case <-s.tickets:
		case <-s.stopCh:
			return
		}
		// A worker stops before it claims, never after: every claimed morsel
		// is delivered, so the gather reaches each one below an erroring
		// morsel, and that morsel. cancelled() reads only the immutable
		// context — safe off the owner goroutine, unlike tickCancelled.
		if s.abort.Load() || s.scan.qc.cancelled() != nil {
			return
		}
		idx := int(s.claim.Add(1)) - 1
		if idx >= s.nMorsels {
			return
		}
		inst.cnt = scanCounts{}
		rows, err := inst.batchRows(idx)
		res := parMorsel{idx: idx, rows: rows, cnt: inst.cnt, err: err}
		if err != nil {
			s.abort.Store(true)
		}
		select {
		case s.results <- res:
		case <-s.stopCh:
			return
		}
		if err != nil {
			return
		}
	}
}

func (s *parScanOp) next() (Row, bool, error) {
	for s.pos >= len(s.cur) {
		if ok, err := s.advance(); !ok {
			return nil, false, err
		}
	}
	s.pos++
	return s.cur[s.pos-1], true, nil
}

// rest hands drain the rows the gather has not yet returned: the morsel
// slices the workers built, joined in one allocation of their total size
// (clipped to it) — with the rows before the error when one stops it.
func (s *parScanOp) rest() ([]Row, error) {
	parts := [][]Row{s.cur[s.pos:]}
	ok, err := s.advance()
	for ; ok; ok, err = s.advance() {
		parts = append(parts, s.cur)
	}
	s.pos = len(s.cur)
	return slices.Clip(slices.Concat(parts...)), err
}

// advance makes the next morsel in gather order current, reporting false
// at the end of the scan or on an error. A morsel's error surfaces on the
// call after its rows are current — emitted rows first, as serial would.
func (s *parScanOp) advance() (bool, error) {
	if !s.started && s.pendErr == nil {
		s.start()
	}
	if s.pendErr == nil {
		s.pendErr = s.curErr
	}
	if s.pendErr != nil || s.nextIdx >= s.nMorsels {
		return false, s.pendErr
	}
	qc := s.scan.qc
	if s.pendErr = qc.tickCancelled(); s.pendErr != nil {
		return false, s.pendErr
	}
	m, ok := s.stash[s.nextIdx]
	for !ok {
		res, open := <-s.results
		if !open {
			// Every claimed morsel was delivered: the workers stopped
			// claiming because the statement was cancelled.
			s.pendErr = qc.cancelled()
			return false, s.pendErr
		}
		// The ordered gather stashes out-of-order morsels until their
		// turn; the unordered gather consumes completion order directly
		// (nextIdx then just counts consumed morsels).
		if ok = s.scan.unordered || res.idx == s.nextIdx; ok {
			m = res
		} else {
			s.stash[res.idx] = res
		}
	}
	delete(s.stash, s.nextIdx)
	s.scan.account(m.cnt)
	s.tickets <- struct{}{}
	s.nextIdx++
	s.cur, s.pos, s.curErr = m.rows, 0, m.err
	return true, nil
}

// stopPool aborts and joins the worker pool, folding the counters of any
// undelivered-but-completed morsels so Stats reflects work actually done.
// Idempotent; owner goroutine only. Registered as a qc finalizer so it
// runs before the statement's read lock is released.
func (s *parScanOp) stopPool() {
	if !s.started || s.stopped {
		return
	}
	s.stopped = true
	s.abort.Store(true)
	close(s.stopCh)
	for res := range s.results { // drains until the closer closes it
		s.scan.account(res.cnt)
	}
	for _, res := range s.stash {
		s.scan.account(res.cnt)
	}
	s.stash = nil
}

// ---------------------------------------------------------------------------
// What the gather can preserve

// aggOrderInsensitive reports whether an aggregate statement's result is
// invariant under any permutation of its input rows — the licence for the
// unordered gather: a single output group (no GROUP BY — first-seen group
// order would leak scheduling), no ORDER BY, aggregates whose folds are
// commutative for every value kind (COUNT/MIN/MAX, DISTINCT included since
// the dedup set is order-free), and nothing reading the group's
// representative row (repRows), which is arrival-order-dependent.
func aggOrderInsensitive(stmt *SelectStmt, aggs []*FuncCall, repRows bool) bool {
	if len(stmt.GroupBy) != 0 || len(stmt.OrderBy) != 0 || repRows {
		return false
	}
	for _, fc := range aggs {
		switch fc.Name {
		case "COUNT", "MIN", "MAX":
		default:
			// SUM/AVG/TOTAL float folds and GROUP_CONCAT are defined in
			// scan order; the ordered gather keeps them deterministic.
			return false
		}
	}
	return true
}

// readsRepRow reports whether an aggregate statement's post-aggregation
// expressions read the group's representative row: a column reference
// outside every aggregate argument that is not itself a GROUP BY
// expression (those resolve to the group key, compile.go). With a single
// group that row is whichever matching row arrived first. Subqueries
// count: walkExpr does not descend into their statements, so correlated
// refs inside them would go unseen. An unqualified name in ORDER BY that an
// output column answers to does not: ORDER BY resolves output aliases
// first (compileOrder, stream.go), so `SUM(x) AS s … ORDER BY s` reads the
// row being built, and only a qualified or non-alias name reads the input.
func readsRepRow(stmt *SelectStmt, items []SelectItem, outCols []colInfo) bool {
	keys := make(map[string]bool, len(stmt.GroupBy))
	for _, g := range stmt.GroupBy {
		keys[g.String()] = true
	}
	reads, orderKey := false, false // orderKey: the walk is inside ORDER BY
	visit := func(x Expr) bool {
		if len(keys) > 0 && keys[x.String()] {
			return false // prune: resolves to the group key
		}
		switch t := x.(type) {
		case *FuncCall:
			if isAggregateName(t.Name) {
				return false // prune: refs inside aggregate args are fine
			}
		case *ColumnRef:
			_, n := findCol(outCols, "", t.Column)
			reads = reads || !orderKey || t.Table != "" || n == 0
		default:
			reads = reads || isSubqueryNode(x)
		}
		return !reads
	}
	for _, it := range items {
		walkExpr(it.Expr, visit)
	}
	walkExpr(stmt.Having, visit)
	orderKey = true
	for _, ob := range stmt.OrderBy {
		walkExpr(ob.Expr, visit)
	}
	return reads
}

// mergeableAggregates reports whether every collected aggregate can be
// computed as per-worker partials and merged without divergence from the
// engine's defined fold order:
//
//   - COUNT, MIN, MAX: always order-insensitive.
//   - SUM / AVG / TOTAL: integer partial sums merge exactly; float sums
//     are kept per-morsel and folded in ascending morsel order (agg.go
//     accumulator), so the result is left-to-right within each morsel,
//     then morsel by morsel — a deterministic function of the data and
//     morselSize, independent of worker count and scheduling.
//   - GROUP_CONCAT: order-sensitive across workers — never parallel.
//   - DISTINCT aggregates: the dedup set cannot be merged — serial.
func mergeableAggregates(aggs []*FuncCall) bool {
	for _, fc := range aggs {
		if fc.Distinct {
			return false
		}
		switch fc.Name {
		case "COUNT", "MIN", "MAX":
		case "SUM", "AVG", "TOTAL":
			if len(fc.Args) != 1 {
				return false
			}
		default:
			return false
		}
		if !fc.Star && !parallelSafe(fc.Args...) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Partial aggregation

// runFold drives a scan whose consumer is folded into it — GROUP BY
// partitions (foldBatch) or a top-K heap (topBatch): instances of the scan
// claim morsels and run step on each, into private state the caller then
// merges. A serial scan is the one-instance case and runs inline on the
// owner goroutine; a pooled one spawns and joins its workers inside this
// call — no pool outlives it. Every morsel runs unless one fails or the
// statement is cancelled.
func runFold(sc *scanOp, step func(*scanOp, int) error) ([]*scanOp, error) {
	if err := sc.open(); err != nil {
		return nil, err
	}
	qc := sc.qc
	nMorsels := sc.src.batches()
	insts := []*scanOp{sc}
	if nw := min(sc.workers, nMorsels); nw > 1 {
		// Compile every worker's pipeline on the owner goroutine.
		insts = make([]*scanOp, nw)
		for w := range insts {
			var err error
			if insts[w], err = sc.workerCopy(); err != nil {
				return nil, err
			}
		}
	}
	for _, inst := range insts {
		inst.resetFold(len(insts) > 1)
	}
	var claim atomic.Int64
	var abort atomic.Bool
	errs := make([]error, len(insts))
	run := func(w int) {
		defer insts[w].release()
		for {
			idx := int(claim.Add(1)) - 1
			if idx >= nMorsels || abort.Load() || qc.cancelled() != nil {
				return
			}
			if errs[w] = step(insts[w], idx); errs[w] != nil {
				abort.Store(true)
				return
			}
		}
	}
	if len(insts) == 1 {
		run(0)
	} else {
		var wg sync.WaitGroup
		for w := range insts {
			wg.Add(1)
			parallelWorkersActive.Add(1)
			go func(w int) {
				defer func() {
					parallelWorkersActive.Add(-1)
					wg.Done()
				}()
				run(w)
			}(w)
		}
		wg.Wait()
		// Workers' counters land on the planner's instance — the node
		// EXPLAIN shows — and through it on the per-query recorder.
		for _, inst := range insts {
			sc.account(inst.cnt)
		}
	}
	if err := qc.cancelled(); err != nil {
		return nil, err
	}
	// The error the serial fold would have hit first: smallest scan ordinal.
	var firstErr error
	firstErrAt := -1
	for w, err := range errs {
		if at := insts[w].at; err != nil && (firstErr == nil || at < firstErrAt) {
			firstErr, firstErrAt = err, at
		}
	}
	return insts, firstErr
}

// runAggregationBatch is the folded scan's counterpart of
// runAggregation: instances fold their morsels (scanOp.foldBatch) into
// private group tables; the owner merges them into one and returns it with
// its groups in exactly the serial first-seen order.
func runAggregationBatch(sc *scanOp) (*groupTable, error) {
	insts, err := runFold(sc, (*scanOp).foldBatch)
	if err != nil {
		return nil, err
	}
	// Merge into the largest table, which then grows the least.
	slices.SortFunc(insts, func(a, b *scanOp) int { return b.fold.len() - a.fold.len() })
	if qc := sc.qc; qc != nil {
		for _, inst := range insts {
			if inst.fold.len() > 0 {
				qc.founders++
			}
		}
	}
	merged := &insts[0].fold.groupTable
	if len(insts) == 1 {
		return merged, nil
	}
	for _, inst := range insts[1:] {
		merged.absorb(&inst.fold.groupTable)
	}
	// Ordinals are unique (one row founds one group): sort classes by them.
	merged.order = make([]int32, merged.len())
	for c := range merged.order {
		merged.order[c] = int32(c)
	}
	slices.SortFunc(merged.order, func(a, b int32) int {
		return merged.first.get(int(a)) - merged.first.get(int(b))
	})
	return merged, nil
}
