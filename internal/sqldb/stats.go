package sqldb

import (
	"context"
	"sync/atomic"
	"time"
)

// This file implements the database's observability surface. Every
// statement execution carries a queryCtx — the per-execution bundle of
// context.Context (cancellation) and locally accumulated counters — and
// folds its counters into the database-wide atomics exactly once when it
// finishes. Database.Stats() is therefore an aggregation of per-query
// recorders, not a set of ad-hoc global increments: concurrent cursors
// each accumulate privately and publish atomically at Close, so no query's
// work is ever attributed to another. The per-query slice is visible on
// its own as a QueryStats (Rows.Stats, ExplainAnalyze); Database.Stats()
// snapshots the aggregate, giving operators of a busy instance the numbers
// that matter under heavy traffic: how many queries ran, how often the
// plan cache hit, how much data scans actually touched, and whether
// cursors are being leaked.

// Stats is a point-in-time snapshot of a database's counters.
type Stats struct {
	// Queries counts top-level SELECT executions (Query, QueryRows,
	// prepared statements, and SELECTs routed through Exec).
	Queries uint64
	// Execs counts non-SELECT statements executed (DDL and DML).
	Execs uint64
	// PlanCacheHits / PlanCacheMisses count lookups in the statement cache.
	PlanCacheHits   uint64
	PlanCacheMisses uint64
	// RowsScanned counts base-table rows read (heap or index) by any
	// statement: a SELECT's scans and the scan an UPDATE or DELETE finds
	// its rows with. A `SELECT ... LIMIT k` without ORDER BY stops after
	// O(k) scanned rows — this counter is the observable proof.
	RowsScanned uint64
	// RowsEmitted counts rows delivered to callers.
	RowsEmitted uint64
	// IndexScans / FullScans count base-table access paths by kind, for
	// UPDATE and DELETE exactly as for a SELECT with the same WHERE.
	// IndexScans includes unbounded ordered (sort-eliding) index walks;
	// IndexRangeScans counts access paths served
	// from an index's ordered view by a range predicate (col > x,
	// BETWEEN) instead of a heap scan.
	IndexScans      uint64
	FullScans       uint64
	IndexRangeScans uint64
	// OrderedIndexOrders counts ORDER BY clauses served from index order:
	// the planner dropped the sort and streamed rows through the index's
	// ordered view, which is what lets ORDER BY ... LIMIT k read O(k) rows.
	OrderedIndexOrders uint64
	// SubplanCacheHits / SubplanCacheMisses count correlated-subquery
	// evaluations (EXISTS, IN, scalar) served by re-pulling a subplan
	// compiled once per statement vs. (re)built per evaluation.
	SubplanCacheHits   uint64
	SubplanCacheMisses uint64
	// OrdMaintains counts incremental ordered-view maintenance operations:
	// an INSERT splicing its row into a live ordered view, or an UPDATE
	// moving one between entries. Under a write-heavy workload this is the
	// number of O(n log n) rebuilds that did not happen.
	OrdMaintains uint64
	// TombstonesSkipped counts row slots a statement stepped over because
	// no version was visible to its snapshot (deleted or not-yet-committed
	// rows awaiting vacuum). A high rate relative to RowsScanned means
	// vacuum lag.
	TombstonesSkipped uint64
	// Begins / Commits / Rollbacks count explicit transactions (SQL
	// BEGIN/COMMIT/ROLLBACK or Database.Begin); autocommit statements are
	// not counted here.
	Begins    uint64
	Commits   uint64
	Rollbacks uint64
	// ActiveTxns is the number of explicit transactions currently open.
	ActiveTxns int64
	// VacuumRuns counts vacuum passes (background or explicit);
	// VersionsReclaimed counts row versions they removed once invisible
	// to every live snapshot.
	VacuumRuns        uint64
	VersionsReclaimed uint64
	// OpenCursors is the number of Rows cursors not yet closed. A steadily
	// growing value means a caller is leaking cursors (and pinning the
	// vacuum horizon with its snapshot).
	OpenCursors int64
	// WALAppends / WALBytes count commit-time write-ahead-log appends
	// (one record per committed transaction or autocommit statement, DDL
	// included) and the bytes they wrote. Zero on an in-memory database.
	WALAppends uint64
	WALBytes   uint64
	// Checkpoints counts completed checkpoints (explicit or automatic):
	// snapshot written, log truncated to a fresh generation.
	Checkpoints uint64
	// RecoveredTxns counts the committed units recovery replayed from
	// the WAL when the database was opened.
	RecoveredTxns uint64
	// TornTailsDropped counts WAL files whose tail was incomplete at
	// recovery (a crash mid-append) and was silently dropped back to the
	// last fully-committed record.
	TornTailsDropped uint64
	// WALGroupCommits counts commits whose durability rode another
	// commit's fsync (group commit): the committer found its log record
	// already synced, or waited on a sync another commit was leading,
	// instead of issuing its own fsync.
	WALGroupCommits uint64
	// SegmentsSealed counts the compressed column blocks the background
	// sealer (or an explicit Seal) froze off cold regions of row heaps.
	SegmentsSealed uint64
	// SegmentScans counts scans that read at least one sealed segment;
	// DecodedBlocks counts the column blocks they decompressed.
	SegmentScans  uint64
	DecodedBlocks uint64
	// VectorBatches counts column batches the vectorized executor
	// produced; RowFallbacks counts SELECT plans that wanted the
	// vectorized path but fell back to the row-at-a-time tree because of
	// an unsupported shape (subqueries, UDFs, non-specializable
	// expressions).
	VectorBatches uint64
	RowFallbacks  uint64
	// LMCalls counts evaluations of batch-form functions (LLM_FILTER and
	// its kin): one per row that reached the call. LMBatches counts the calls
	// of the functions themselves those took, LMDedup the evaluations that
	// sent nothing because an earlier row had asked with the same arguments.
	LMCalls   uint64
	LMBatches uint64
	LMDedup   uint64
}

// dbStats is the database-wide aggregate, updated with atomics.
type dbStats struct {
	queries         atomic.Uint64
	execs           atomic.Uint64
	rowsScanned     atomic.Uint64
	rowsEmitted     atomic.Uint64
	indexScans      atomic.Uint64
	fullScans       atomic.Uint64
	indexRangeScans atomic.Uint64
	orderedOrders   atomic.Uint64
	subplanHits     atomic.Uint64
	subplanMisses   atomic.Uint64
	ordMaintains    atomic.Uint64
	tombSkipped     atomic.Uint64
	openCursors     atomic.Int64

	begins            atomic.Uint64
	commits           atomic.Uint64
	rollbacks         atomic.Uint64
	activeTxns        atomic.Int64
	vacuumRuns        atomic.Uint64
	versionsReclaimed atomic.Uint64

	walAppends      atomic.Uint64
	walBytes        atomic.Uint64
	checkpoints     atomic.Uint64
	recoveredTxns   atomic.Uint64
	tornDropped     atomic.Uint64
	walGroupCommits atomic.Uint64

	segmentsSealed atomic.Uint64
	segmentScans   atomic.Uint64
	decodedBlocks  atomic.Uint64
	vectorBatches  atomic.Uint64
	rowFallbacks   atomic.Uint64

	lmCalls   atomic.Uint64
	lmBatches atomic.Uint64
	lmDedup   atomic.Uint64
}

// Stats returns a snapshot of the database's counters.
func (db *Database) Stats() Stats {
	return Stats{
		Queries:            db.stats.queries.Load(),
		Execs:              db.stats.execs.Load(),
		PlanCacheHits:      db.plans.hits.Load(),
		PlanCacheMisses:    db.plans.misses.Load(),
		RowsScanned:        db.stats.rowsScanned.Load(),
		RowsEmitted:        db.stats.rowsEmitted.Load(),
		IndexScans:         db.stats.indexScans.Load(),
		FullScans:          db.stats.fullScans.Load(),
		IndexRangeScans:    db.stats.indexRangeScans.Load(),
		OrderedIndexOrders: db.stats.orderedOrders.Load(),
		SubplanCacheHits:   db.stats.subplanHits.Load(),
		SubplanCacheMisses: db.stats.subplanMisses.Load(),
		OrdMaintains:       db.stats.ordMaintains.Load(),
		TombstonesSkipped:  db.stats.tombSkipped.Load(),
		Begins:             db.stats.begins.Load(),
		Commits:            db.stats.commits.Load(),
		Rollbacks:          db.stats.rollbacks.Load(),
		ActiveTxns:         db.stats.activeTxns.Load(),
		VacuumRuns:         db.stats.vacuumRuns.Load(),
		VersionsReclaimed:  db.stats.versionsReclaimed.Load(),
		OpenCursors:        db.stats.openCursors.Load(),
		WALAppends:         db.stats.walAppends.Load(),
		WALBytes:           db.stats.walBytes.Load(),
		Checkpoints:        db.stats.checkpoints.Load(),
		RecoveredTxns:      db.stats.recoveredTxns.Load(),
		TornTailsDropped:   db.stats.tornDropped.Load(),
		WALGroupCommits:    db.stats.walGroupCommits.Load(),
		SegmentsSealed:     db.stats.segmentsSealed.Load(),
		SegmentScans:       db.stats.segmentScans.Load(),
		DecodedBlocks:      db.stats.decodedBlocks.Load(),
		VectorBatches:      db.stats.vectorBatches.Load(),
		RowFallbacks:       db.stats.rowFallbacks.Load(),
		LMCalls:            db.stats.lmCalls.Load(),
		LMBatches:          db.stats.lmBatches.Load(),
		LMDedup:            db.stats.lmDedup.Load(),
	}
}

// QueryStats is one statement execution's slice of Stats: what a single
// query did, measured by its own recorder rather than read back out of the
// engine-wide aggregate. Available mid-flight and after completion from
// Rows.Stats, and from ExplainAnalyze. Field meanings match Stats.
type QueryStats struct {
	RowsScanned        uint64
	RowsEmitted        uint64
	IndexScans         uint64
	FullScans          uint64
	IndexRangeScans    uint64
	OrderedIndexOrders uint64
	SubplanCacheHits   uint64
	SubplanCacheMisses uint64
	OrdMaintains       uint64
	TombstonesSkipped  uint64
	// SegmentScans / DecodedBlocks / VectorBatches / RowFallbacks measure
	// this execution's use of the vectorized engine and its compressed
	// column segments; meanings match Stats.
	SegmentScans  uint64
	DecodedBlocks uint64
	VectorBatches uint64
	RowFallbacks  uint64
	// LMCalls / LMBatches / LMDedup measure this execution's batch-form
	// function calls; meanings match Stats.
	LMCalls   uint64
	LMBatches uint64
	LMDedup   uint64
	// VersionsReclaimed counts row versions a synchronous Vacuum pass
	// initiated by this execution removed (zero for ordinary statements —
	// reclamation is a background concern).
	VersionsReclaimed uint64
	// Elapsed is the wall time since execution began (planning included);
	// after the execution finishes it stops advancing.
	Elapsed time.Duration
}

// queryCtx carries one statement execution's cancellation context and its
// locally accumulated counters. An execution runs on a single goroutine,
// so the counters are plain integers; flush folds them into the
// database's atomics once, when the execution finishes (Rows.Close, or
// the end of Query/Exec). A nil queryCtx is valid everywhere and means
// "no context, no accounting" (EXPLAIN, internal helpers, tests).
type queryCtx struct {
	ctx  context.Context
	db   *Database
	lent *lentFuncs // nil for most statements, which are lent nothing

	// QueryStats is the execution's own slice of Stats, the one tally every
	// operator bills; queries and execs are the two Stats counters that
	// have no per-query meaning. Elapsed is fixed at flush.
	QueryStats
	queries uint64
	execs   uint64

	// snap is the snapshot the statement evaluates visibility against:
	// a registered read snapshot (SELECT) or an unregistered statement
	// snapshot (DML, protected by writeMu instead). nil for contexts
	// without one (plain EXPLAIN), where scans fall back to
	// latest-committed.
	snap *snapshot
	// wtx is the transaction a DML statement writes under (set between
	// beginWrite and its end callback).
	wtx *Txn
	// releaseSnap, when set, drops the execution's snapshot reference at
	// flush — the cursor path, where the snapshot must live exactly as
	// long as iteration can still happen.
	releaseSnap func()

	start time.Time

	// rec collects per-operator statistics; non-nil only under
	// ExplainAnalyze so ordinary executions skip all per-operator work.
	rec *execRecorder

	tick    uint32 // with flushed and founders in one word: the struct stays in the 288-byte size class
	flushed bool
	// founders counts the pool instances that founded groups in the
	// execution's folded GROUP BYs (runAggregationBatch): what a pooled
	// fold's merge costs in proportion to.
	founders uint16
}

func newQueryCtx(ctx context.Context, db *Database) *queryCtx {
	qc := &queryCtx{ctx: ctx, db: db, start: time.Now()}
	fs := db.funcs
	if ctx != nil {
		if bound, ok := ctx.Value(funcSetKey{}).(FuncSet); ok {
			fs = bound
		}
	}
	if fs != nil {
		qc.lent = &lentFuncs{set: fs}
	}
	return qc
}

// lentFuncs is a statement's FuncSet — the one its caller bound to ctx
// (WithFuncs), else the database's — and the memos of the batch-form calls
// it compiled, which keep the LM* counters (tallyLM).
type lentFuncs struct {
	set   FuncSet
	memos []*CallMemo
}

// snapshot returns the execution's counters as a QueryStats. Safe on a nil
// receiver (zero stats).
func (qc *queryCtx) snapshot() QueryStats {
	if qc == nil {
		return QueryStats{}
	}
	qc.tallyLM()
	qs := qc.QueryStats
	if !qc.flushed {
		qs.Elapsed = time.Since(qc.start)
	}
	return qs
}

// tallyLM brings the LM* counters up to what the memos have done so far.
func (qc *queryCtx) tallyLM() {
	if qc.lent == nil {
		return
	}
	qc.LMCalls, qc.LMBatches, qc.LMDedup = 0, 0, 0
	for _, m := range qc.lent.memos {
		m.tally(&qc.LMCalls, &qc.LMBatches, &qc.LMDedup)
	}
}

// cancelled reports a typed ErrCanceled when the execution's context is
// done. The context's own error is the wrapped cause, so
// errors.Is(err, context.Canceled) keeps working.
func (qc *queryCtx) cancelled() error {
	if qc == nil || qc.ctx == nil {
		return nil
	}
	if err := qc.ctx.Err(); err != nil {
		return &Error{Code: ErrCanceled, Msg: "sql: query canceled: " + err.Error(), Cause: err}
	}
	return nil
}

// admit is the one check every statement passes before it touches a latch
// or a snapshot, whichever entry point carried it: its context is not
// already done, and the transaction it was resolved into is still open.
func (qc *queryCtx) admit(tx *Txn) error {
	if err := qc.cancelled(); err != nil {
		return err
	}
	if tx != nil && tx.done {
		return errf(ErrMisuse, "sql: transaction already finished")
	}
	return nil
}

// tickCancelled is cancelled sampled every 64th call, cheap enough for
// per-row paths (scans, DML loops).
func (qc *queryCtx) tickCancelled() error {
	if qc == nil || qc.ctx == nil {
		return nil
	}
	if qc.tick++; qc.tick&63 != 0 {
		return nil
	}
	return qc.cancelled()
}

// flush folds the local counters into the database aggregate and releases
// the execution's snapshot reference, if it still holds one. Idempotent —
// abandoned-cursor and mid-loop-error paths may reach it more than once,
// and the snapshot must be released exactly once so the vacuum horizon
// can advance.
func (qc *queryCtx) flush() {
	if qc == nil || qc.flushed || qc.db == nil {
		return
	}
	qc.flushed = true
	if qc.releaseSnap != nil {
		qc.releaseSnap()
		qc.releaseSnap = nil
		qc.snap = nil
	}
	qc.Elapsed = time.Since(qc.start)
	qc.tallyLM()
	s := &qc.db.stats
	fold(&s.queries, qc.queries)
	fold(&s.execs, qc.execs)
	fold(&s.rowsScanned, qc.RowsScanned)
	fold(&s.rowsEmitted, qc.RowsEmitted)
	fold(&s.indexScans, qc.IndexScans)
	fold(&s.fullScans, qc.FullScans)
	fold(&s.indexRangeScans, qc.IndexRangeScans)
	fold(&s.orderedOrders, qc.OrderedIndexOrders)
	fold(&s.subplanHits, qc.SubplanCacheHits)
	fold(&s.subplanMisses, qc.SubplanCacheMisses)
	fold(&s.ordMaintains, qc.OrdMaintains)
	fold(&s.tombSkipped, qc.TombstonesSkipped)
	fold(&s.segmentScans, qc.SegmentScans)
	fold(&s.decodedBlocks, qc.DecodedBlocks)
	fold(&s.vectorBatches, qc.VectorBatches)
	fold(&s.rowFallbacks, qc.RowFallbacks)
	fold(&s.lmCalls, qc.LMCalls)
	fold(&s.lmBatches, qc.LMBatches)
	fold(&s.lmDedup, qc.LMDedup)
}

// fold adds one execution's count to its engine-wide atomic; most are zero
// for any one statement and skip the contended write.
func fold(total *atomic.Uint64, n uint64) {
	if n > 0 {
		total.Add(n)
	}
}
