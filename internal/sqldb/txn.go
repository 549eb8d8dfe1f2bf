package sqldb

import (
	"context"
	"sort"
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
//     transaction blocks until the first finishes; this engine detects no
//     write-write conflicts because it never runs two writers at once).
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
// that committed before it was captured, plus its own.
type snapshot struct {
	// xid is the observing transaction's id; 0 for a read-only snapshot
	// (autocommit SELECT).
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
	return xid
}

// finish commits or aborts xid: it stops being in-progress. For a commit
// this is the publication point; for an abort the caller has already
// unwound the transaction's versions.
func (tm *txnManager) finish(xid uint64) {
	tm.mu.Lock()
	delete(tm.inProgress, xid)
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

// capture builds and registers a snapshot with one reference.
func (tm *txnManager) capture(xid uint64) *snapshot {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	s := tm.captureLocked(xid)
	s.refs = 1
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

// liveSnapshots reports the number of registered snapshots — the leak
// test's probe, mirroring the parallel worker counter.
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

// undo op kinds, replayed in reverse on rollback.
const (
	undoInsert      = iota // drop the inserted version and its index entries (slot becomes empty)
	undoUpdate             // unlink our version and its index entries, revive the one beneath it
	undoDelete             // clear xmax on the head we stamped
	undoCreateTable        // unpublish the created table
	undoDropTable          // republish the dropped table
	undoCreateIndex        // unpublish the created index
)

type undoRec struct {
	kind  int
	table *Table
	id    int
	// key is the catalog (or index-map) key for the DDL undo kinds.
	key string
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
	auto   bool // autocommit statement transaction: no undo, never rolled back
	replay bool // WAL recovery: rows arrive as logged, past coercion
	done   bool
	undo   []undoRec

	// walOps are the logical changes to log at commit, in application
	// order. Captured only when the database has an armed WAL (wal.go);
	// discarded by rollback.
	walOps []walOp
}

// Begin starts an explicit transaction. Programmatic equivalent of the
// SQL BEGIN statement, but independent of the session transaction: many
// goroutines may hold concurrent Txns (writers serialise on first write).
func (db *Database) Begin() *Txn {
	xid := db.tm.begin()
	tx := &Txn{db: db, xid: xid, snap: db.tm.capture(xid)}
	db.stats.begins.Add(1)
	db.stats.activeTxns.Add(1)
	return tx
}

// record notes an undo step for rollback. Autocommit statement
// transactions skip it: they are never rolled back (a failing statement
// keeps its partial work, the engine's documented non-atomic statement
// semantics).
func (tx *Txn) record(kind int, t *Table, id int) {
	if tx.auto {
		return
	}
	tx.undo = append(tx.undo, undoRec{kind: kind, table: t, id: id})
}

// recordDDL notes a schema-change undo step. DDL inside an explicit
// transaction rolls back with it, keeping the WAL (which only sees
// committed frames) and the in-memory catalog in lockstep.
func (tx *Txn) recordDDL(kind int, t *Table, key string) {
	if tx.auto {
		return
	}
	tx.undo = append(tx.undo, undoRec{kind: kind, table: t, key: key})
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
// On a durable database the transaction's frame is appended to the WAL
// (and fsynced, per policy) before publication; an append failure
// returns a typed ErrIO — the writes are still applied in memory, but
// the WAL is poisoned and every later commit fails the same way until
// the database is reopened (which recovers the durable prefix).
func (tx *Txn) Commit() error {
	if tx.done {
		return errf(ErrMisuse, "sql: transaction already finished")
	}
	tx.done = true
	db := tx.db
	var ioErr error
	var syncGen uint64
	var syncOff int64
	if len(tx.walOps) > 0 {
		// Still under writeMu here (walOps imply wrote), so log order
		// equals commit order. The record is made durable below, after
		// the latch is released, so concurrent commits group-fsync.
		syncGen, syncOff, ioErr = db.wal.appendCommit(tx.walOps, false)
	}
	db.tm.finish(tx.xid) // publication point
	db.tm.release(tx.snap)
	db.stats.commits.Add(1)
	db.stats.activeTxns.Add(-1)
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
	if tx.wrote {
		for i := len(tx.undo) - 1; i >= 0; i-- {
			u := tx.undo[i]
			switch u.kind {
			case undoInsert:
				ours := u.table.head(u.id)
				u.table.setHead(u.id, nil)
				u.table.liveRows.Add(-1)
				u.table.unindex(u.id, ours, nil)
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
				db.publishTables(func(m map[string]*Table) { delete(m, u.key) })
			case undoDropTable:
				t := u.table
				db.publishTables(func(m map[string]*Table) { m[u.key] = t })
			case undoCreateIndex:
				u.table.publishIndexes(func(m map[string]*Index) { delete(m, u.key) })
			}
		}
	}
	db.tm.finish(tx.xid)
	db.tm.release(tx.snap)
	db.stats.rollbacks.Add(1)
	db.stats.activeTxns.Add(-1)
	if tx.wrote {
		db.writeMu.Unlock()
		db.maybeVacuum()
	}
	return nil
}

// ensureWrite acquires the single-writer latch on the transaction's first
// writing statement.
func (tx *Txn) ensureWrite() {
	if !tx.wrote {
		tx.db.writeMu.Lock()
		tx.wrote = true
	}
}

// Exec executes one statement inside the transaction. BEGIN is rejected;
// COMMIT/ROLLBACK finish the transaction.
func (tx *Txn) Exec(sql string, params ...any) (int, error) {
	return tx.ExecContext(context.Background(), sql, params...)
}

// ExecContext is Exec with a cancellation context.
func (tx *Txn) ExecContext(ctx context.Context, sql string, params ...any) (int, error) {
	return tx.db.execSQL(ctx, sql, params, tx, false)
}

// Query executes a SELECT inside the transaction, reading the
// transaction's snapshot plus its own writes.
func (tx *Txn) Query(sql string, params ...any) (*Result, error) {
	return tx.QueryContext(context.Background(), sql, params...)
}

// QueryContext is Query with a cancellation context.
func (tx *Txn) QueryContext(ctx context.Context, sql string, params ...any) (*Result, error) {
	return collect(tx.QueryRows(ctx, sql, params...))
}

// QueryRows opens a streaming cursor inside the transaction. The cursor
// holds its own snapshot reference and stays valid (and consistent) even
// if the transaction commits before the cursor is drained.
func (tx *Txn) QueryRows(ctx context.Context, sql string, params ...any) (*Rows, error) {
	sel, err := tx.db.plans.selectStmt(sql, "QueryRows")
	if err != nil {
		return nil, err
	}
	return tx.db.queryRows(ctx, sel, bindParams(params), tx, nil, false)
}

// ---------------------------------------------------------------------------
// Session transaction (SQL BEGIN/COMMIT/ROLLBACK through Database.Exec)

// beginSession opens the database's session transaction — the one bare
// Exec/Query calls join, giving single-connection SQL semantics.
func (db *Database) beginSession() error {
	db.sessionMu.Lock()
	defer db.sessionMu.Unlock()
	if db.session != nil {
		return errf(ErrMisuse, "sql: cannot start a transaction within a transaction")
	}
	db.session = db.Begin()
	return nil
}

// takeSession detaches and returns the session transaction for COMMIT or
// ROLLBACK.
func (db *Database) takeSession() (*Txn, error) {
	db.sessionMu.Lock()
	defer db.sessionMu.Unlock()
	if db.session == nil {
		return nil, errf(ErrMisuse, "sql: no transaction is active")
	}
	tx := db.session
	db.session = nil
	return tx, nil
}

// currentTxn is how a bare Database call resolves its transaction: the
// open session transaction, or nil (autocommit). Entry points call it;
// nothing beneath them does — a Txn method runs in its receiver, and the
// parsed-statement entry points the wire uses (wire.go) in exactly the tx
// they were handed.
func (db *Database) currentTxn() *Txn {
	db.sessionMu.Lock()
	defer db.sessionMu.Unlock()
	return db.session
}

// ---------------------------------------------------------------------------
// Statement entry points

// beginRead returns the snapshot a reading statement evaluates visibility
// against, plus a release callback. An autocommit read (tx nil) captures a
// fresh registered snapshot; a read inside a transaction shares its
// snapshot with an extra reference (the release may come from a cursor
// that outlives the transaction).
func (db *Database) beginRead(tx *Txn) (*snapshot, func()) {
	if tx != nil {
		db.tm.addRef(tx.snap)
		snap := tx.snap
		return snap, func() { db.tm.release(snap) }
	}
	s := db.tm.capture(0)
	return s, func() { db.tm.release(s) }
}

// beginWrite pins the single-writer latch for one DML statement and
// returns the transaction it runs in plus a statement-end callback. For
// autocommit (tx nil) the transaction is a throwaway that commits in
// end(), which also appends the statement's WAL record on a durable
// database — end's error is the commit-time ErrIO surface and must be
// propagated (the in-memory effects stand either way; see Txn.Commit).
// Inside an explicit transaction the latch stays held (until
// Commit/Rollback) and end() only clears the statement snapshot.
func (db *Database) beginWrite(qc *queryCtx, tx *Txn) (*Txn, func() error) {
	if tx != nil {
		tx.ensureWrite()
		qc.snap = db.tm.captureStmt(tx.xid)
		qc.wtx = tx
		return tx, func() error {
			qc.snap = nil
			qc.wtx = nil
			return nil
		}
	}
	db.writeMu.Lock()
	xid := db.tm.begin()
	at := &Txn{db: db, xid: xid, auto: true, wrote: true}
	qc.snap = db.tm.captureStmt(xid)
	qc.wtx = at
	return at, func() error {
		qc.snap = nil
		qc.wtx = nil
		at.done = true
		var ioErr error
		var syncGen uint64
		var syncOff int64
		if len(at.walOps) > 0 {
			// A failing statement keeps its partial work (the engine's
			// documented non-atomic statement semantics), so whatever ops
			// were applied are logged as this statement's record.
			syncGen, syncOff, ioErr = db.wal.appendCommit(at.walOps, true)
		}
		db.tm.finish(xid) // autocommit: publication point
		db.writeMu.Unlock()
		if ioErr == nil && syncOff > 0 {
			ioErr = db.wal.waitSync(syncGen, syncOff)
		}
		db.maybeVacuum()
		db.maybeSeal()
		return ioErr
	}
}

// acquireWrite takes the single-writer latch for a DDL statement in tx
// (nil = autocommit DDL). Inside an open transaction DDL rides the
// transaction's latch span and — like DML — is undone by rollback, so the
// catalog never diverges from what the WAL will record at commit.
func (db *Database) acquireWrite(tx *Txn) func() {
	if tx != nil {
		tx.ensureWrite()
		return func() {}
	}
	db.writeMu.Lock()
	return db.writeMu.Unlock
}
