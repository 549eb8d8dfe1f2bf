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
// scan (scanOp, vecops.go) and runs it on the morsels it claims. The pool
// is one fork-join, fork, which spawns its workers and joins them before it
// returns, so no worker outlives the call that started it. Four consumers
// run on it — three scans, through runFold, and sealing:
//
//   - gatherOp: the scan's own rows, built morsel by morsel and joined in
//     morsel order, so the output is bit-identical to the serial scan.
//   - runAggregationBatch: workers fold their morsels into private GROUP BY
//     states; the owner merges them and restores serial first-seen group
//     order from the scan ordinal at which each group appeared.
//   - sortOp.drainTopK: workers keep private top-K heaps.
//   - Table.seal (segment.go): workers claim a table's cold blocks and
//     encode each, a pure function of its run; the blocks are published
//     together, in block order, whichever worker encoded them.
//
// One instance is the serial case, run inline on the owner goroutine.
// Whether a scan runs here is the planner's call (planScan, vecops.go):
// only top-level, single-table paths whose expressions are free of
// subqueries and function calls (parallelSafe says why), and only above the
// size gate so small scans never pay pool overhead. Ordered (sort-eliding)
// walks and correlated probes stay serial.
//
// Accounting: workers never touch the shared queryCtx. Each instance counts
// its own work, which runFold folds, after the join and on the owner
// goroutine, into the planner's instance and through it into the per-query
// recorder, so the EXPLAIN ANALYZE accounting property (per-operator sums ==
// per-query totals) holds unchanged under parallel execution.

// morselSize is the number of positions one worker claims at a time — and
// one sealed block, and one vector batch. Large enough to amortise the
// claim, small enough to load-balance skewed filters.
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
// instrumentation: runFold joins every worker it spawns, so the tests
// assert it is zero whenever no statement is inside a pull.
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
// What the pool can preserve

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
// The pool

// runFold drives a scan whose consumer runs inside it: instances of the
// scan claim morsels and run step on each, into private state the caller
// then merges — GROUP BY partitions (foldBatch), a top-K heap (topBatch) or
// the morsel's rows (gatherOp). A serial scan is the one-instance case and
// runs inline on the owner goroutine; a pooled one spawns and joins its
// workers inside this call — no pool outlives it. Every morsel runs unless
// one fails or the statement is cancelled.
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
		if inst.fold != nil {
			inst.resetFold(len(insts) > 1)
		}
	}
	var claim atomic.Int64
	var abort atomic.Bool
	errs := make([]error, len(insts))
	run := func(w int) {
		defer insts[w].release()
		// A worker stops before it claims, never after: every claimed
		// morsel runs, so each one below a failing morsel has run and the
		// first error is the one the serial scan meets. cancelled() reads
		// only the immutable context — safe off the owner goroutine.
		for !abort.Load() && qc.cancelled() == nil {
			idx := int(claim.Add(1)) - 1
			if idx >= nMorsels {
				return
			}
			if errs[w] = step(insts[w], idx); errs[w] != nil {
				abort.Store(true)
				return
			}
		}
	}
	if fork(len(insts), run); len(insts) > 1 {
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

// fork runs work(w) for every w below n and returns when all have: inline
// on the caller's goroutine when n is 1, else on n workers it joins before
// it returns — the pool's one spawn.
func fork(n int, work func(w int)) {
	if n == 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	parallelWorkersActive.Add(int64(n))
	for w := range n {
		go func() {
			defer func() {
				parallelWorkersActive.Add(-1)
				wg.Done()
			}()
			work(w)
		}()
	}
	wg.Wait()
}

// gatherOp is a pooled scan whose rows go up as they are, neither folded
// nor kept in a top-K heap. At its first pull runFold runs the scan over
// every morsel, each instance keeping its morsels' rows, and the parts are
// joined in morsel order: the serial scan's stream, cut after the first
// morsel that failed, whose error follows its rows. A cursor over it thus
// computes the whole scan at its first Next, as Query does; a bare LIMIT
// never pools (planScan), so LIMIT k still reads O(k) rows.
type gatherOp struct {
	// scan is the plan the workers copy, the node EXPLAIN shows, and the
	// sink their counters merge into.
	scan *scanOp
	ran  bool
	rows []Row
	pos  int
	err  error // follows the rows
}

func (g *gatherOp) columns() []colInfo { return g.scan.cols }

func (g *gatherOp) reset() { *g = gatherOp{scan: g.scan} }

func (g *gatherOp) next() (Row, bool, error) {
	g.run()
	if err := g.scan.qc.tickCancelled(); err != nil {
		return nil, false, err
	}
	if g.pos == len(g.rows) {
		return nil, false, g.err
	}
	g.pos++
	return g.rows[g.pos-1], true, nil
}

// rest hands drain the rows not yet returned, whole.
func (g *gatherOp) rest() ([]Row, error) {
	g.run()
	rows := g.rows[g.pos:]
	g.pos = len(g.rows)
	return rows, g.err
}

// run gathers the scan once: one allocation of the rows' total size (clipped
// to it) joins the morsels' parts.
func (g *gatherOp) run() {
	if g.ran {
		return
	}
	g.ran = true
	if g.err = g.scan.open(); g.err != nil {
		return
	}
	n := g.scan.src.batches()
	parts, errs := make([][]Row, n), make([]error, n)
	_, g.err = runFold(g.scan, func(inst *scanOp, idx int) error {
		parts[idx], errs[idx] = inst.batchRows(idx)
		return errs[idx]
	})
	if cut := slices.IndexFunc(errs, func(err error) bool { return err != nil }); cut >= 0 {
		parts = parts[:cut+1]
	}
	g.rows = slices.Clip(slices.Concat(parts...))
}

// ---------------------------------------------------------------------------
// Partial aggregation

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
