package sqldb

import (
	"context"
	"time"
)

// This file implements EXPLAIN ANALYZE: per-operator execution accounting
// over the real operator tree. An ordinary execution pays for nothing here
// — queryCtx.rec stays nil and operators run untouched. Under
// ExplainAnalyze a recorder is attached before planning, every operator of
// the resulting tree (and of every compiled subplan) is wrapped in a
// statOp that counts rows, loops and wall time as the statement actually
// runs, and the rendered plan (explain.go) annotates each line with the
// numbers its operator really produced. The per-operator counts are
// reconciled with the per-query QueryStats and the engine-wide Stats by a
// property test: every scanned row is attributable to exactly one
// operator in the recorded trees.

// opStat is one operator's execution record.
type opStat struct {
	rows    uint64 // rows the operator produced (cumulative across loops)
	loops   uint64 // times the operator was (re)started: resets + 1
	elapsed time.Duration
}

// subplanRec records one compiled subquery's executed plan: its latest
// instrumented root, its probe/cache counters, and — for non-cacheable
// subplans rebuilt per probe — the scan totals of roots already discarded,
// so no scanned row ever goes unattributed.
type subplanRec struct {
	root   operator // latest instrumented root; nil until first probe (non-cacheable)
	probes uint64
	hits   uint64
	misses uint64
	// carriedScanned accumulates treeScanned of replaced roots.
	carriedScanned uint64
}

// execRecorder collects per-operator statistics for one analyzed
// execution. It is single-goroutine, like the execution itself.
type execRecorder struct {
	stats    map[operator]*opStat
	subplans map[*SelectStmt]*subplanRec
}

func newExecRecorder() *execRecorder {
	return &execRecorder{
		stats:    make(map[operator]*opStat),
		subplans: make(map[*SelectStmt]*subplanRec),
	}
}

// subplanFor returns the record for a compiled subquery, creating it on
// first sight. Re-compilation of the same statement (a cacheable subplan
// inside a rebuilt non-cacheable one) reuses the record so its counters
// accumulate across rebuilds.
func (rec *execRecorder) subplanFor(sel *SelectStmt) *subplanRec {
	if sp, ok := rec.subplans[sel]; ok {
		return sp
	}
	sp := &subplanRec{}
	rec.subplans[sel] = sp
	return sp
}

// replaceRoot installs a freshly built (already instrumented) root,
// folding the replaced root's scan totals into the carry and dropping its
// per-operator records so a non-cacheable subplan rebuilt once per outer
// row does not pin every discarded tree (and its materialised rows) in
// the recorder for the whole execution.
func (sp *subplanRec) replaceRoot(rec *execRecorder, root operator) {
	if sp.root != nil {
		sp.carriedScanned += treeScanned(sp.root)
		rec.forget(sp.root)
	}
	sp.root = root
}

// liveChild is the one input an operator pulls from while it runs, as a
// pointer to the field holding it; nil for a leaf. Join build sides and
// derived-table sources ran during planning and are kept for display only.
func liveChild(op operator) *operator {
	switch t := op.(type) {
	case *statOp:
		return &t.child
	case *limitOp:
		return &t.child
	case *sortOp:
		return &t.child
	case *distinctOp:
		return &t.child
	case *projectOp:
		return &t.child
	case *groupOp:
		return &t.child
	case *filterOp:
		return &t.child
	case *hashJoinOp:
		return &t.probe
	case *indexJoinOp:
		return &t.probe
	case *nestedLoopJoinOp:
		return &t.probe
	}
	return nil
}

// forget removes a discarded tree's per-operator records, leaving the
// tree unreferenced. Nested subplans are separate trees with their own
// records and are not touched.
func (rec *execRecorder) forget(op operator) {
	for c := liveChild(op); c != nil; c = liveChild(op) {
		if s, ok := op.(*statOp); ok {
			delete(rec.stats, s.child)
		}
		op = *c
	}
}

// statFor returns (creating) the record attached to op.
func (rec *execRecorder) statFor(op operator) *opStat {
	if st, ok := rec.stats[op]; ok {
		return st
	}
	st := &opStat{loops: 1}
	rec.stats[op] = st
	return st
}

// statOp wraps an operator, timing its next calls and counting the rows
// it produces. Reported time is inclusive of the subtree below, like
// EXPLAIN ANALYZE in mainstream engines.
type statOp struct {
	child operator
	stat  *opStat
}

func (s *statOp) columns() []colInfo { return s.child.columns() }

func (s *statOp) reset() {
	s.stat.loops++
	s.child.reset()
}

func (s *statOp) next() (Row, bool, error) {
	start := time.Now()
	r, ok, err := s.child.next()
	s.stat.elapsed += time.Since(start)
	if ok {
		s.stat.rows++
	}
	return r, ok, err
}

// instrument wraps every live operator of a planned tree in a statOp.
// Materialised subtrees retained only for display (join build sides,
// derived-table sources) already ran during planning and are left bare —
// their scans carry their own scanned counters. Called after planning
// completes, so no planner type-assertion ever sees a wrapper.
func instrument(op operator, rec *execRecorder) operator {
	if op == nil {
		return nil
	}
	if c := liveChild(op); c != nil {
		*c = instrument(*c, rec)
	}
	return &statOp{child: op, stat: rec.statFor(op)}
}

// treeScanned sums the base-table rows an operator tree read, including
// materialised build/derived subtrees that executed during planning. It
// does not descend into compiled subplans — those are separate trees
// accounted per subplanRec.
func treeScanned(op operator) uint64 {
	var n uint64
	switch t := op.(type) {
	case *scanOp: // the one base-table leaf
		return t.cnt.scanned
	case *gatherOp:
		return t.scan.cnt.scanned
	case *valuesOp:
		return treeScanned(t.src)
	case *hashJoinOp:
		n = treeScanned(t.buildSrc)
	case *nestedLoopJoinOp:
		n = treeScanned(t.rightSrc)
	}
	if c := liveChild(op); c != nil {
		n += treeScanned(*c)
	}
	return n
}

// AnalyzedQuery is the result of ExplainAnalyze: the operator tree the
// statement actually ran, rendered one line per operator and annotated
// with real counts, plus the execution's per-query totals.
type AnalyzedQuery struct {
	// Plan is the annotated plan, one line per operator (indented).
	Plan []string
	// Stats is the per-query recorder's totals for this execution — the
	// exact amount the statement contributed to Database.Stats().
	Stats QueryStats

	root operator
	rec  *execRecorder
}

// scannedTotal sums per-operator scanned counts over the executed trees:
// the main tree (including materialised build/derived subtrees) plus
// every compiled subplan, current and discarded. The analyze property
// test asserts this equals Stats.RowsScanned.
func (a *AnalyzedQuery) scannedTotal() uint64 {
	n := treeScanned(a.root)
	for _, sp := range a.rec.subplans {
		n += sp.carriedScanned
		if sp.root != nil {
			n += treeScanned(sp.root)
		}
	}
	return n
}

// rootRows reports how many rows the plan root emitted.
func (a *AnalyzedQuery) rootRows() uint64 {
	if s, ok := a.root.(*statOp); ok {
		return s.stat.rows
	}
	return 0
}

// ExplainAnalyze executes a SELECT to completion and returns its operator
// tree annotated with what each operator really did: rows produced, loops
// (for operators re-pulled per outer row), inclusive wall time, rows
// scanned per access path, sort input-vs-kept counts, and per-subplan
// probe and cache-hit counts. Result rows are consumed and discarded, as
// in mainstream EXPLAIN ANALYZE; the per-query totals land in the
// returned Stats and are folded into Database.Stats() exactly as a normal
// execution's would be. Instrumentation is attached per call, so ordinary
// queries pay nothing for it.
func (db *Database) ExplainAnalyze(ctx context.Context, sql string, params ...any) (*AnalyzedQuery, error) {
	sel, err := db.plans.selectStmt(sql, "ExplainAnalyze")
	if err != nil {
		return nil, err
	}
	rec := newExecRecorder()
	rows, err := db.queryRows(ctx, sel, bindParams(params), nil, rec, true)
	if err != nil {
		return nil, err
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	p := &planPrinter{rec: rec}
	p.describe(rows.root, 0)
	return &AnalyzedQuery{Plan: p.lines, Stats: rows.Stats(), root: rows.root, rec: rec}, nil
}
