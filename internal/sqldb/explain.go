package sqldb

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// Explain describes the execution plan of a SELECT statement without
// running it to completion. It builds the exact operator tree Query would
// run (same planner, same access-path and join choices) and renders one
// line per operator: which scans use indexes, range bounds and ordered
// (sort-eliding) index scans, predicates pushed below joins, which joins
// hash, index-probe or fall back to nested loops, and the
// post-processing stages (aggregate, distinct, sort — including bounded
// top-k — and limit). Join build sides are materialised during planning
// (they are part of plan construction in this engine), so Explain's cost
// is bounded by the build sides, not the probe side.
//
// ExplainAnalyze (analyze.go) runs the statement for real and renders the
// same tree annotated with per-operator counts.
func (db *Database) Explain(sql string, params ...any) ([]string, error) {
	sel, err := db.plans.selectStmt(sql, "Explain")
	if err != nil {
		return nil, err
	}
	// The plan Query would run, opened by the opener Query uses — pool
	// eligibility and every other planner decision read the same query
	// context — and closed without a pull. EXPLAIN does not bill the
	// engine-wide stats: what planning counted is dropped before the close
	// would fold it.
	rows, err := db.queryRows(context.Background(), sel, bindParams(params), nil, nil, false)
	if err != nil {
		return nil, err
	}
	p := &planPrinter{}
	p.describe(rows.root, 0)
	rows.qc.QueryStats, rows.qc.queries = QueryStats{}, 0
	return p.lines, rows.Close()
}

// planPrinter renders an operator tree one line per node. With rec set
// (EXPLAIN ANALYZE) each line is annotated with the operator's recorded
// counts: rows produced, loops for re-pulled operators, inclusive wall
// time, and access-path-specific extras (rows scanned, sort in/kept).
type planPrinter struct {
	lines []string
	rec   *execRecorder // nil = plain EXPLAIN

	pending *opStat // stat for the next emitted line (set by statOp unwrap)
	extra   string  // operator-specific annotation for the next emitted line
}

// emit appends one line, attaching (and clearing) any pending annotation.
func (p *planPrinter) emit(depth int, format string, args ...any) {
	line := strings.Repeat("  ", depth) + fmt.Sprintf(format, args...)
	line += p.takeAnnotation()
	p.lines = append(p.lines, line)
}

// takeAnnotation renders and clears the pending per-operator annotation.
func (p *planPrinter) takeAnnotation() string {
	st, extra := p.pending, p.extra
	p.pending, p.extra = nil, ""
	var parts []string
	if st != nil {
		parts = append(parts, fmt.Sprintf("rows=%d", st.rows))
		if st.loops > 1 {
			parts = append(parts, fmt.Sprintf("loops=%d", st.loops))
		}
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	if st != nil {
		parts = append(parts, "time="+st.elapsed.Round(time.Microsecond).String())
	}
	if len(parts) == 0 {
		return ""
	}
	return " [" + strings.Join(parts, " ") + "]"
}

// describe walks the operator tree emitting one line per node.
func (p *planPrinter) describe(op operator, depth int) {
	if s, ok := op.(*statOp); ok {
		p.pending = s.stat
		op = s.child
	}
	analyzed := p.rec != nil
	switch t := op.(type) {
	case *limitOp:
		p.emit(depth, "limit/offset")
		p.describe(t.child, depth+1)
	case *sortOp:
		keys := make([]string, len(t.keys.orderBy))
		for i, ob := range t.keys.orderBy {
			keys[i] = ob.String()
		}
		note := ""
		if t.topK >= 0 {
			note = fmt.Sprintf(" (top %d)", t.topK)
		}
		if t.bat != nil {
			note += " (folded in scan)"
		}
		if analyzed {
			p.extra = fmt.Sprintf("in=%d kept=%d", t.drained, len(t.rows))
		}
		p.emit(depth, "sort by %s%s", strings.Join(keys, ", "), note)
		p.describe(t.child, depth+1)
	case *distinctOp:
		p.emit(depth, "distinct")
		p.describe(t.child, depth+1)
	case *groupOp:
		note := ""
		if t.bat != nil {
			note = " (folded in scan)"
		}
		if len(t.stmt.GroupBy) > 0 {
			groups := make([]string, len(t.stmt.GroupBy))
			for i, g := range t.stmt.GroupBy {
				groups[i] = g.String()
			}
			p.emit(depth, "hash aggregate by %s%s", strings.Join(groups, ", "), note)
		} else {
			p.emit(depth, "aggregate (single group)%s", note)
		}
		for _, it := range t.stmt.Items {
			p.describeSubplans(it.Expr, depth+1, t.env)
		}
		if t.stmt.Having != nil {
			p.describeSubplans(t.stmt.Having, depth+1, t.env)
		}
		p.describe(t.child, depth+1)
	case *projectOp:
		note := ""
		if t.fused {
			note = " (fused in scan)"
		}
		p.emit(depth, "project %d column(s)%s", len(t.outCols), note)
		for _, it := range t.items {
			p.describeSubplans(it.Expr, depth+1, t.env)
		}
		p.describe(t.child, depth+1)
	case *gatherOp:
		p.describe(t.scan, depth)
	case *scanOp:
		// One node kind for every base-table scan: the pool (workers=N) and
		// the kernels (k of the pipeline's m expressions compiled) annotate it.
		notes := ""
		if t.workers > 1 {
			notes = fmt.Sprintf(" workers=%d", t.workers)
		}
		if t.exprs > 0 {
			notes += fmt.Sprintf(" vectorized %d/%d", t.kernels, t.exprs)
		}
		if analyzed {
			p.extra = scanAnnotation(t.cnt) + fmt.Sprintf(" batches=%d", t.cnt.batches)
			if t.cnt.decoded > 0 {
				p.extra += fmt.Sprintf(" decoded_blocks=%d", t.cnt.decoded)
			}
		}
		if c := t.probe; c != nil {
			via := "transient hash memo"
			if c.idx != nil && c.idx.Name != "" {
				via = "index"
			}
			p.emit(depth, "correlated probe %s (as %s) on %s = %s (via %s)%s",
				t.table.Name, t.qual, c.colE.String(), c.keyE.String(), via, notes)
		} else {
			kind, detail := t.describe(t.table)
			p.emit(depth, "batch %s scan %s (as %s)%s: %s", kind, t.table.Name, t.qual, notes, detail)
		}
		for _, pred := range t.preds {
			p.emit(depth+1, "fused filter %s", pred.String())
			p.describeSubplans(pred, depth+2, &t.env)
		}
	case *valuesOp:
		p.emit(depth, "materialised rows: %d", len(t.rows))
		if t.src != nil {
			p.describe(t.src, depth+1)
		}
	case *filterOp:
		if analyzed && t.win != nil {
			p.extra = lmNote(t.win.sites)
		}
		switch {
		case t.pred == nil:
			p.emit(depth, "batch-call gather: %d call site(s)", len(t.win.sites))
		case t.win != nil:
			p.emit(depth, "batch-call filter %s", t.pred.String())
		default:
			p.emit(depth, "filter %s", t.pred.String())
		}
		if t.pred != nil {
			p.describeSubplans(t.pred, depth+1, t.env)
		}
		p.describe(t.child, depth+1)
	case *hashJoinOp:
		side := "right"
		if t.buildIsLeft {
			side = "left"
		}
		p.emit(depth, "hash join on %s = %s (build %s: %d key(s))%s",
			t.leftKey.String(), t.rightKey.String(), side, len(t.buckets), residualNote(t.residualE))
		p.describe(t.probe, depth+1)
		p.emit(depth+1, "build side: %d column(s)", len(t.buildSrc.columns()))
		p.describe(t.buildSrc, depth+2)
	case *indexJoinOp:
		sideNote := ""
		if !t.probeIsLeft {
			sideNote = ", probing right input"
		}
		p.emit(depth, "index nested loop join on %s = %s (index %s on %s%s)%s",
			t.probeKeyE.String(), t.idxKeyE.String(), t.idx.Name, t.table.Name,
			sideNote, residualNote(t.residualE))
		p.describe(t.probe, depth+1)
	case *nestedLoopJoinOp:
		kind := "nested loop join"
		if t.on == nil {
			kind = "cross join"
		}
		p.emit(depth, "%s (right side: %d row(s))", kind, len(t.rightRows))
		p.describe(t.probe, depth+1)
		p.describe(t.rightSrc, depth+2)
	default:
		p.emit(depth, "%T", op)
	}
}

// describeSubplans renders the plan of every subquery appearing in an
// expression (EXISTS, IN, scalar), noting whether the subplan cache
// applies: a cacheable subplan is compiled once per statement and
// re-pulled with only the outer row rebound per probe (compile.go).
//
// Under EXPLAIN ANALYZE the subplan that actually executed is looked up
// in the recorder and rendered with its real counts plus per-subplan
// probe and cache-hit totals. Plain EXPLAIN rebuilds the subplan for
// display; the enclosing operator's environment supplies the outer scope
// so correlated references resolve during the display build.
func (p *planPrinter) describeSubplans(e Expr, depth int, env *evalEnv) {
	walkExpr(e, func(x Expr) bool {
		var sel *SelectStmt
		switch t := x.(type) {
		case *Subquery:
			sel = t.Select
		case *ExistsExpr:
			sel = t.Select
		case *InList:
			sel = t.Sub
		}
		if sel == nil {
			return true
		}
		note := "rebuilt per probe"
		if subplanCacheable(sel) {
			note = "compiled once, outer row rebound per probe"
		}
		if p.rec != nil {
			sp := p.rec.subplans[sel]
			if sp == nil {
				p.emit(depth, "subplan (%s): not compiled", note)
				return false
			}
			p.emit(depth, "subplan (%s) [probes=%d hits=%d misses=%d]:",
				note, sp.probes, sp.hits, sp.misses)
			if sp.root != nil {
				p.describe(sp.root, depth+1)
			} else {
				p.emit(depth+1, "never executed")
			}
			return false
		}
		root, _, err := buildSelectPlan(sel, env.db, env.params, env, false, nil)
		if err != nil {
			p.emit(depth, "subplan (%s): error: %v", note, err)
			return false
		}
		p.emit(depth, "subplan (%s):", note)
		p.describe(root, depth+1)
		return false
	})
}

// describe names an access path for EXPLAIN: its kind, and what it reads.
func (a *indexAccess) describe(t *Table) (kind, detail string) {
	switch {
	case a.ordered:
		col := t.Columns[a.rangeIdx.Column].Name
		by := "by " + col
		if a.desc {
			by += " desc"
		}
		if a.spec.bounded() {
			return "ordered index range", a.spec.describe(col) + ", " + by
		}
		return "ordered index", by
	case a.rangeIdx != nil:
		return "index range", a.spec.describe(t.Columns[a.rangeIdx.Column].Name)
	case a.ids != nil:
		return "index", fmt.Sprintf("%d candidate row(s)", len(a.ids))
	}
	return "seq", fmt.Sprintf("%d row(s)", t.liveCount())
}

// lmNote renders what a node's batch-form calls did, under the names
// QueryStats counts it by.
func lmNote(sites []*batchSite) string {
	var calls, batches, dedup uint64
	for _, s := range sites {
		s.memo.tally(&calls, &batches, &dedup)
	}
	return fmt.Sprintf("lm_calls=%d lm_batches=%d lm_dedup=%d", calls, batches, dedup)
}

// scanAnnotation renders an access path's EXPLAIN ANALYZE extras: rows
// actually read, plus the tombstoned (deleted, not yet compacted) slots
// it stepped over when there were any.
func scanAnnotation(c scanCounts) string {
	if c.tombs > 0 {
		return fmt.Sprintf("scanned=%d tombstones=%d", c.scanned, c.tombs)
	}
	return fmt.Sprintf("scanned=%d", c.scanned)
}

func residualNote(residual Expr) string {
	if residual == nil {
		return ""
	}
	return " residual " + residual.String()
}
