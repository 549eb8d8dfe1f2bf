package sqldb

import (
	"context"
	"sort"
	"strings"
	"sync"
)

// This file implements the MVCC transaction layer: per-row version chains
// tagged with (xmin, xmax) transaction ids, snapshots captured at statement
// or transaction start, and the BEGIN/COMMIT/ROLLBACK surface.
//
// The concurrency contract:
//
//   - Readers never block and never hold a lock while a cursor iterates.
//     A statement captures a snapshot (a point in transaction-id space),
//     then evaluates every version chain against it using atomic loads
//     only. Writers committing mid-iteration neither stall the reader nor
//     change what it sees.
//   - Writers never wait for readers. They serialise among themselves on
//     Database.writeMu — a single-writer model: an autocommit statement
//     holds it for the statement, an explicit transaction from its first
//     write until commit/rollback (a second concurrently writing
//     transaction blocks until the first finishes, or its statement's
//     context is done; this engine detects no write-write conflicts
//     because it never runs two writers at once).
//   - Versions made unreachable (superseded, deleted, or rolled back) are
//     reclaimed by a background vacuum (vacuum.go) once they are invisible
//     to every registered snapshot — the oldest-active-snapshot horizon.
//
// Visibility: a version is visible to snapshot s when s sees its creator
// (xmin committed before the snapshot, or the snapshot's own transaction)
// and does not see its deleter (xmax zero, or a transaction the snapshot
// considers in-progress/future). Version chains hang off stable row ids,
// newest first: UPDATE prepends a new version at the same slot (row ids
// remain stable, scan order observable without ORDER BY is preserved),
// DELETE stamps xmax on the head, INSERT opens a new slot.
//
// Memory model: a writer publishes each version with an atomic store and
// commits by removing its xid from the in-progress set under txnManager.mu;
// a reader captures its snapshot under the same mutex. Capture-after-commit
// therefore happens-after every store the committed transaction made, and
// any store the reader might miss belongs to a transaction its snapshot
// treats as in-progress or future — invisible either way.

// snapshot is a point in transaction-id space: it sees every transaction
// that committed before it was captured, plus its own. It is immutable
// after capture, so autocommit reads between two transaction boundaries
// share one (txnManager.shared).
type snapshot struct {
	// xid is the observing transaction's id; 0 for a read-only snapshot
	// (autocommit SELECT, Dump, checkpoint).
	xid uint64
	// next: transaction ids >= next had not been allocated at capture.
	next uint64
	// inPro holds the transaction ids in progress at capture (own xid
	// excluded), sorted ascending.
	inPro []uint64

	// refs counts registered holders (statement, cursor, transaction);
	// guarded by txnManager.mu. Unregistered statement snapshots used by
	// DML under writeMu keep refs at 0.
	refs int
}

// sees reports whether the snapshot observes transaction x as committed
// (or as its own).
func (s *snapshot) sees(x uint64) bool {
	if x == s.xid && x != 0 {
		return true
	}
	if x >= s.next {
		return false
	}
	i := sort.Search(len(s.inPro), func(i int) bool { return s.inPro[i] >= x })
	return i >= len(s.inPro) || s.inPro[i] != x
}

// visibleVersion walks a newest-first version chain and returns the row
// visible to the snapshot, or nil. Lock-free: chain links and xmax are
// atomic, xmin is immutable after publication.
func visibleVersion(head *rowVersion, s *snapshot) Row {
	for v := head; v != nil; v = v.next.Load() {
		if !s.sees(v.xmin) {
			continue
		}
		if xmax := v.xmax.Load(); xmax != 0 && s.sees(xmax) {
			// Deleted (or superseded by a visible update, in which case
			// the newer version was already returned above).
			return nil
		}
		return v.row
	}
	return nil
}

// latestRow returns the current committed-or-own row of a chain, ignoring
// snapshots. Valid only under writeMu (where every chain head is committed
// or belongs to the running writer) and for best-effort contexts that
// carry no snapshot (plain EXPLAIN).
func latestRow(head *rowVersion) Row {
	if head == nil || head.xmax.Load() != 0 {
		return nil
	}
	return head.row
}

// txnManager allocates transaction ids, tracks which are in progress, and
// registers live snapshots so the vacuum horizon can be computed.
type txnManager struct {
	mu         sync.Mutex
	nextXID    uint64
	inProgress map[uint64]struct{}
	snaps      map[*snapshot]struct{}
	// shared is the last snapshot captured for xid 0. begin and finish —
	// the only writers of nextXID and inProgress — clear it; until then a
	// fresh capture would equal it, so capture(0) hands it out again, with
	// the same visibility and the same vacuum horizon.
	shared *snapshot
}

func newTxnManager() *txnManager {
	return &txnManager{
		nextXID:    1,
		inProgress: make(map[uint64]struct{}),
		snaps:      make(map[*snapshot]struct{}),
	}
}

// begin allocates a transaction id and marks it in progress.
func (tm *txnManager) begin() uint64 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	xid := tm.nextXID
	tm.nextXID++
	tm.inProgress[xid] = struct{}{}
	tm.shared = nil
	return xid
}

// finish commits or aborts xid: it stops being in-progress. For a commit
// this is the publication point; for an abort the caller has already
// unwound the transaction's versions.
func (tm *txnManager) finish(xid uint64) {
	tm.mu.Lock()
	delete(tm.inProgress, xid)
	tm.shared = nil
	tm.mu.Unlock()
}

// captureLocked builds a snapshot for xid under tm.mu.
func (tm *txnManager) captureLocked(xid uint64) *snapshot {
	s := &snapshot{xid: xid, next: tm.nextXID}
	for x := range tm.inProgress {
		if x != xid {
			s.inPro = append(s.inPro, x)
		}
	}
	sort.Slice(s.inPro, func(i, j int) bool { return s.inPro[i] < s.inPro[j] })
	return s
}

// capture registers one reference on a snapshot for xid: a fresh one for
// a transaction, the shared one (captured if none stands) for xid 0.
func (tm *txnManager) capture(xid uint64) *snapshot {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	s := tm.shared
	if s == nil || xid != 0 {
		if s = tm.captureLocked(xid); xid == 0 {
			tm.shared = s
		}
	}
	s.refs++
	tm.snaps[s] = struct{}{}
	return s
}

// captureStmt builds an unregistered statement snapshot for a DML
// statement. It does not hold the vacuum horizon: the statement runs under
// writeMu, which vacuum also takes, so no reclaim can interleave.
func (tm *txnManager) captureStmt(xid uint64) *snapshot {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.captureLocked(xid)
}

// addRef takes an extra reference on a registered snapshot (a cursor that
// may outlive the statement or transaction that captured it).
func (tm *txnManager) addRef(s *snapshot) {
	tm.mu.Lock()
	s.refs++
	tm.snaps[s] = struct{}{}
	tm.mu.Unlock()
}

// release drops one reference; the snapshot stops pinning the vacuum
// horizon when the last holder lets go.
func (tm *txnManager) release(s *snapshot) {
	tm.mu.Lock()
	if s.refs--; s.refs <= 0 {
		delete(tm.snaps, s)
	}
	tm.mu.Unlock()
}

// liveSnapshots reports the number of registered snapshots — distinct
// ones, so reads sharing one count once — the leak test's probe.
func (tm *txnManager) liveSnapshots() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return len(tm.snaps)
}

// horizon returns the oldest transaction id any live observer could still
// consider in-progress or future. A version deleted or superseded by a
// committed transaction older than the horizon is invisible to every
// current and future snapshot and may be reclaimed.
func (tm *txnManager) horizon() uint64 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	h := tm.nextXID
	for x := range tm.inProgress {
		if x < h {
			h = x
		}
	}
	for s := range tm.snaps {
		if s.next < h {
			h = s.next
		}
		if len(s.inPro) > 0 && s.inPro[0] < h {
			h = s.inPro[0]
		}
	}
	return h
}

// ---------------------------------------------------------------------------
// Transactions

// undo op kinds, replayed in reverse by undoTo.
const (
	undoInsert      = iota // drop the n inserted versions from slot id up and their index entries (the slots become empty)
	undoUpdate             // unlink our version and its index entries, revive the one beneath it
	undoDelete             // clear xmax on the head we stamped
	undoCreateTable        // unpublish the created table
	undoDropTable          // republish the dropped table
	undoCreateIndex        // unpublish the created index
)

type undoRec struct {
	kind  int
	table *Table
	id    int // the slot; for undoCreateIndex, the indexed column
	n     int // undoInsert: the run of slots from id that the statement inserted
}

// Txn is an explicit transaction. It is not safe for concurrent use by
// multiple goroutines (like database/sql's *Tx); independent goroutines
// each Begin their own. Reads inside the transaction run against the
// snapshot captured at Begin plus the transaction's own writes; each DML
// statement additionally sees everything committed before the statement
// started. The first write acquires the database's single-writer latch and
// holds it until Commit or Rollback.
type Txn struct {
	db   *Database
	xid  uint64
	snap *snapshot

	wrote  bool // holds db.writeMu
	auto   bool // autocommit statement transaction: committed by endWrite
	replay bool // WAL recovery: rows arrive as logged, past coercion; never undone
	done   bool
	undo   []undoRec
	undo0  [1]undoRec // an autocommit undo's first storage: a one-row statement allocates none
	// markUndo and markWAL are where the running statement began in undo and
	// walOps (beginWrite): what undoTo cuts them back to if it fails.
	markUndo, markWAL int

	// walOps are the logical changes to log at commit, in application
	// order. Captured only when the database has an armed WAL (wal.go);
	// discarded by rollback.
	walOps []walOp
}

// Begin starts an explicit transaction, the one way to open one: a bare
// Database call never joins it, and many goroutines may hold concurrent
// Txns (writers serialise on first write).
func (db *Database) Begin() *Txn {
	xid := db.tm.begin()
	tx := &Txn{db: db, xid: xid, snap: db.tm.capture(xid)}
	db.stats.add(func(s *Stats) { s.Begins++; s.ActiveTxns++ })
	return tx
}

// record notes an undo step — of a row or of a schema change — which
// undoTo replays if the statement fails or the transaction rolls back.
// Every writing transaction keeps it, autocommit included, but recovery's:
// replay never rolls back.
// Consecutive slots one statement inserts into one table are one record, so
// a bulk insert's undo is a constant.
func (tx *Txn) record(u undoRec) {
	if tx.replay {
		return
	}
	if k := len(tx.undo) - 1; u.kind == undoInsert && k >= tx.markUndo {
		if p := &tx.undo[k]; p.kind == undoInsert && p.table == u.table && p.id+p.n == u.id {
			p.n++
			return
		}
	}
	tx.undo = append(tx.undo, u)
}

// logWALOp captures one logical change for the commit-time WAL append.
// A no-op unless the database has an armed WAL, so the in-memory engine
// pays one nil check per DML op.
func (tx *Txn) logWALOp(op walOp) {
	if w := tx.db.wal; w != nil && w.armed.Load() {
		tx.walOps = append(tx.walOps, op)
	}
}

// Commit makes the transaction's writes visible to every later snapshot.
// It is the one commit sequence, of explicit transactions and autocommit
// statements (beginWrite) alike: the unit's record is appended to the WAL
// under the single-writer latch, so log order equals commit order; the
// writes are published; the latch is released; and only then does Commit
// wait for the fsync, so concurrent commits group into one. An append or
// fsync failure returns a typed ErrIO — the writes are still applied in
// memory, but the WAL is poisoned and every later commit fails the same way
// until the database is reopened (which recovers the durable prefix). An
// explicit transaction that wrote is refused once the database is closed:
// it is rolled back, publishing nothing, and Commit returns ErrMisuse.
func (tx *Txn) Commit() error {
	if tx.done {
		return errf(ErrMisuse, "sql: transaction already finished")
	}
	db := tx.db
	if tx.wrote && !tx.auto && db.isClosed() {
		_ = tx.Rollback()
		return errClosed
	}
	tx.done = true
	var ioErr error
	var syncGen uint64
	var syncOff int64
	if len(tx.walOps) > 0 { // walOps imply wrote: the latch is held
		syncGen, syncOff, ioErr = db.wal.appendCommit(tx.walOps)
	}
	db.tm.finish(tx.xid) // publication point
	if !tx.auto {
		db.tm.release(tx.snap)
		db.stats.add(func(s *Stats) { s.Commits++; s.ActiveTxns-- })
	}
	if tx.wrote {
		db.writeMu.Unlock()
		if ioErr == nil && syncOff > 0 {
			ioErr = db.wal.waitSync(syncGen, syncOff)
		}
		db.maybeVacuum()
		db.maybeSeal()
	}
	return ioErr
}

// Rollback unwinds the transaction's writes and discards it. The undo log
// is replayed in reverse while the xid is still marked in-progress, so no
// concurrent snapshot ever observes an aborted version as committed.
func (tx *Txn) Rollback() error {
	if tx.done {
		return errf(ErrMisuse, "sql: transaction already finished")
	}
	tx.done = true
	db := tx.db
	tx.undoTo(0, 0)
	db.tm.finish(tx.xid)
	db.tm.release(tx.snap)
	db.stats.add(func(s *Stats) { s.Rollbacks++; s.ActiveTxns-- })
	if tx.wrote {
		db.writeMu.Unlock()
		db.maybeVacuum()
	}
	return nil
}

// undoTo replays the undo records from undo up in reverse and cuts undo and
// walOps back to undo and wal records: the writes since are gone, in memory
// and from the record the transaction will commit (writeMu held, or nothing
// to undo).
func (tx *Txn) undoTo(undo, wal int) {
	for i := len(tx.undo) - 1; i >= undo; i-- {
		u := tx.undo[i]
		switch u.kind {
		case undoInsert:
			for id := u.id + u.n - 1; id >= u.id; id-- {
				ours := u.table.head(id)
				u.table.setHead(id, nil)
				u.table.liveRows.Add(-1)
				u.table.unindex(id, ours, nil)
			}
		case undoUpdate:
			ours := u.table.head(u.id)
			old := ours.next.Load()
			old.xmax.Store(0)
			u.table.setHead(u.id, old)
			u.table.unindex(u.id, ours, old)
		case undoDelete:
			u.table.head(u.id).xmax.Store(0)
			u.table.liveRows.Add(1)
		case undoCreateTable:
			tx.db.publishTables(func(m map[string]*Table) { delete(m, strings.ToLower(u.table.Name)) })
		case undoDropTable:
			tx.db.publishTables(func(m map[string]*Table) { m[strings.ToLower(u.table.Name)] = u.table })
		case undoCreateIndex:
			u.table.setIndex(u.id, nil)
		}
	}
	clear(tx.undo[undo:])
	clear(tx.walOps[wal:])
	tx.undo, tx.walOps = tx.undo[:undo], tx.walOps[:wal]
}

// Exec executes its statements inside the transaction. BEGIN, COMMIT and
// ROLLBACK are refused and leave the transaction open: only Commit and
// Rollback end it.
func (tx *Txn) Exec(sql string, params ...any) (int, error) {
	return tx.ExecContext(context.Background(), sql, params...)
}

// ExecContext is Exec with a cancellation context.
func (tx *Txn) ExecContext(ctx context.Context, sql string, params ...any) (int, error) {
	return tx.db.execSQL(ctx, sql, params, tx)
}

// QueryRows opens a streaming cursor over a SELECT inside the transaction,
// reading the transaction's snapshot plus its own writes; Collect
// materialises it. The cursor holds its own snapshot reference and stays
// valid (and consistent) even if the transaction commits before the cursor
// is drained.
func (tx *Txn) QueryRows(ctx context.Context, sql string, params ...any) (*Rows, error) {
	sel, err := tx.db.plans.selectStmt(sql, "QueryRows")
	if err != nil {
		return nil, err
	}
	return tx.db.queryRows(ctx, sel, bindParams(params), tx, nil, false)
}

// ---------------------------------------------------------------------------
// Statement entry points

// beginRead returns the snapshot a reading statement evaluates visibility
// against, with one reference the caller releases (tm.release; a cursor's
// queryCtx.flush). An autocommit read (tx nil) takes the shared snapshot
// of xid 0; a read inside a transaction takes its snapshot (the release
// may come from a cursor that outlives the transaction).
func (db *Database) beginRead(tx *Txn) *snapshot {
	if tx != nil {
		db.tm.addRef(tx.snap)
		return tx.snap
	}
	return db.tm.capture(0)
}

// latch is the single-writer latch, a one-slot channel: unlike a
// sync.Mutex, it can be waited for under a context (lock).
type latch chan struct{}

func (l latch) Lock() { l <- struct{}{} }

// Unlock frees the latch; freeing a free latch panics, as a sync.Mutex's
// unlock does, rather than wait for a holder that will never come.
func (l latch) Unlock() {
	select {
	case <-l:
	default:
		panic("sql: unlock of unlocked writer latch")
	}
}

// lock takes the latch, or returns qc's ErrCanceled once its context is
// done. A free latch is taken before the context makes its Done channel.
func (l latch) lock(qc *queryCtx) error {
	select {
	case l <- struct{}{}:
		return nil
	default:
	}
	if qc.ctx == nil {
		l.Lock()
		return nil
	}
	select {
	case l <- struct{}{}:
		return nil
	case <-qc.ctx.Done():
		return qc.cancelled()
	}
}

// beginWrite pins the single-writer latch for one writing statement — DML
// or DDL — and returns the transaction it runs in, which the statement
// hands to endWrite when it ends, marking where the statement begins in it.
// For autocommit (tx nil) the transaction is a throwaway that endWrite
// commits. A statement whose context is done while it waits for the latch
// is refused with ErrCanceled, and a closed database refuses it with
// ErrMisuse, before it changes a row.
func (db *Database) beginWrite(qc *queryCtx, tx *Txn) (*Txn, error) {
	held := tx != nil && tx.wrote
	if !held {
		if err := db.writeMu.lock(qc); err != nil {
			return nil, err
		}
	}
	if db.isClosed() {
		if !held {
			db.writeMu.Unlock()
		}
		return nil, errClosed
	}
	if tx == nil {
		tx = &Txn{db: db, xid: db.tm.begin(), auto: true}
		tx.undo = tx.undo0[:0]
	}
	tx.wrote = true
	tx.markUndo, tx.markWAL = len(tx.undo), len(tx.walOps)
	qc.snap = db.tm.captureStmt(tx.xid)
	qc.wtx = tx
	return tx, nil
}

// endWrite ends a statement beginWrite began in tx, err being how the
// statement ended. A statement is all or nothing: a failed one is undone to
// its mark, so it changes no row and logs no op. endWrite then clears the
// statement snapshot and commits an autocommit tx, appending its WAL record
// on a durable database (none for a failed statement); an explicit
// transaction keeps the latch, and its earlier statements, until Commit or
// Rollback. It returns the statement's error, or else the commit's ErrIO,
// which must be propagated (the in-memory effects stand; see Txn.Commit).
func (db *Database) endWrite(qc *queryCtx, tx *Txn, err error) error {
	qc.snap, qc.wtx = nil, nil
	if err != nil {
		tx.undoTo(tx.markUndo, tx.markWAL)
	}
	if !tx.auto {
		return err
	}
	if e := tx.Commit(); e != nil {
		return e
	}
	return err
}
