package sqldb

import (
	"context"
	"sync"
	"time"
)

// This file implements the database's observability surface. Every
// statement execution carries a queryCtx — the per-execution bundle of
// context.Context (cancellation) and locally accumulated counters — and
// folds its counters into the database-wide aggregate exactly once when it
// finishes. The aggregate is one Stats under one lock (dbStats): a query's
// fold and every engine event (a Begin, a WAL append, a vacuum pass) move
// their counters in one locked call, so concurrent cursors each accumulate
// privately, no query's work is ever attributed to another, and
// Database.Stats() is a consistent snapshot — never half of an event. The
// per-query slice is visible on its own as a QueryStats (Rows.Stats,
// ExplainAnalyze); Database.Stats() copies the aggregate, giving operators
// of a busy instance the numbers that matter under heavy traffic: how many
// queries ran, how often the plan cache hit, how much data scans actually
// touched, and whether cursors are being leaked.

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
	// Begins / Commits / Rollbacks count explicit transactions: those
	// Database.Begin opens, finished by Txn.Commit / Txn.Rollback (a
	// Session's COMMIT or ROLLBACK calls them). Autocommit statements are
	// not counted here.
	Begins    uint64
	Commits   uint64
	Rollbacks uint64
	// ActiveTxns is the number of explicit transactions currently open.
	ActiveTxns int64
	// VacuumRuns counts vacuum passes (background or explicit);
	// VersionsReclaimed counts row versions they removed once invisible
	// to every live snapshot. Both are engine-wide only: a vacuum pass is
	// no statement's work, so QueryStats has neither.
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
	// each started a log generation that opens with the committed state.
	// The generation Open starts is not counted.
	Checkpoints uint64
	// RecoveredTxns counts the records recovery replayed when the database
	// was opened: the log's state records and its committed units.
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

// dbStats is the database-wide aggregate: one Stats under one lock. Each
// event moves all of its counters in one add, so no snapshot sees half of
// one (a Begin's Begins without its ActiveTxns).
type dbStats struct {
	mu sync.Mutex
	s  Stats
}

// add applies one event's counter moves under the lock.
func (d *dbStats) add(f func(*Stats)) {
	d.mu.Lock()
	f(&d.s)
	d.mu.Unlock()
}

// Stats returns a consistent snapshot of the database's counters: every
// event is in it whole or not at all. The plan-cache counts are the
// statement cache's own, bumped before a statement has a queryCtx.
func (db *Database) Stats() Stats {
	db.stats.mu.Lock()
	s := db.stats.s
	db.stats.mu.Unlock()
	s.PlanCacheHits, s.PlanCacheMisses = db.plans.hits.Load(), db.plans.misses.Load()
	return s
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
	// Elapsed is the wall time since execution began (planning included);
	// after the execution finishes it stops advancing.
	Elapsed time.Duration
}

// queryCtx carries one statement execution's cancellation context and its
// locally accumulated counters. An execution runs on a single goroutine,
// so the counters are plain integers; flush folds them into the
// database's aggregate once, when the execution finishes (Rows.Close, or
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
	// beginWrite and endWrite).
	wtx *Txn

	start time.Time

	// rec collects per-operator statistics; non-nil only under
	// ExplainAnalyze so ordinary executions skip all per-operator work.
	rec *execRecorder

	tick    uint32 // with flushed, ownsSnap and founders in one word: the struct stays in the 256-byte size class
	flushed bool
	// ownsSnap: flush releases snap's reference, a cursor's (beginRead),
	// which lives exactly as long as iteration can still happen.
	ownsSnap bool
	// founders counts the pool instances that founded groups in the
	// execution's folded GROUP BYs (runAggregationBatch): what a pooled
	// fold's merge costs in proportion to.
	founders uint16
}

// init readies a zero qc — allocated alone, or inside the Rows it serves —
// for one execution on db under ctx, and returns it.
func (qc *queryCtx) init(ctx context.Context, db *Database) *queryCtx {
	qc.ctx, qc.db, qc.start = ctx, db, time.Now()
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
// already done, and the transaction it runs in is still open.
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
	if qc.ownsSnap {
		qc.db.tm.release(qc.snap)
		qc.ownsSnap, qc.snap = false, nil
	}
	qc.Elapsed = time.Since(qc.start)
	qc.tallyLM()
	qc.db.stats.add(func(s *Stats) {
		s.Queries += qc.queries
		s.Execs += qc.execs
		s.RowsScanned += qc.RowsScanned
		s.RowsEmitted += qc.RowsEmitted
		s.IndexScans += qc.IndexScans
		s.FullScans += qc.FullScans
		s.IndexRangeScans += qc.IndexRangeScans
		s.OrderedIndexOrders += qc.OrderedIndexOrders
		s.SubplanCacheHits += qc.SubplanCacheHits
		s.SubplanCacheMisses += qc.SubplanCacheMisses
		s.OrdMaintains += qc.OrdMaintains
		s.TombstonesSkipped += qc.TombstonesSkipped
		s.SegmentScans += qc.SegmentScans
		s.DecodedBlocks += qc.DecodedBlocks
		s.VectorBatches += qc.VectorBatches
		s.RowFallbacks += qc.RowFallbacks
		s.LMCalls += qc.LMCalls
		s.LMBatches += qc.LMBatches
		s.LMDedup += qc.LMDedup
	})
}
