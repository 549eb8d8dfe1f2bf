package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// Tests for MVCC snapshot isolation: explicit transactions (SQL and API),
// rollback bit-identity, snapshot lifecycle on every cursor/error path
// (the vacuum-horizon leak tests), the background/explicit vacuum, and
// the concurrent reader/writer isolation property.

// dumpString renders the whole database as its SQL script — the
// bit-identity witness for rollback tests.
func dumpString(t *testing.T, db *Database) string {
	t.Helper()
	var b strings.Builder
	if err := db.Dump(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestBeginRollbackLeavesQueriesBitIdentical: Begin → DML → Rollback must
// leave every subsequent query — and the full dump — exactly as before the
// transaction.
func TestBeginRollbackLeavesQueriesBitIdentical(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, s TEXT)")
	db.MustExec("CREATE INDEX idx_t_k ON t (k)")
	for i := 0; i < 50; i++ {
		db.MustExec("INSERT INTO t VALUES (?, ?, ?)", i, i%7, fmt.Sprintf("s%d", i))
	}
	probes := []string{
		"SELECT id, k, s FROM t ORDER BY id",
		"SELECT id FROM t WHERE k = 3 ORDER BY id",
		"SELECT id FROM t WHERE k BETWEEN 2 AND 5 ORDER BY k, id",
		"SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k",
		"SELECT id FROM t ORDER BY k LIMIT 5",
	}
	before := make([][][]string, len(probes))
	for i, q := range probes {
		before[i] = queryStrings(t, db, q)
	}
	dumpBefore := dumpString(t, db)

	tx := db.Begin()
	for _, sql := range []string{
		"INSERT INTO t VALUES (101, 1, 'new')",
		"UPDATE t SET k = k + 10 WHERE id < 20",
		"DELETE FROM t WHERE id % 5 = 0",
	} {
		if _, err := tx.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// Inside the transaction the writes are visible to its own reads.
	in, err := txQuery(tx, "SELECT COUNT(*) FROM t WHERE id = 101")
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Rows) != 1 || in.Rows[0][0].AsText() != "1" {
		t.Fatalf("own insert invisible inside transaction: %v", in.Rows)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	for i, q := range probes {
		if got := queryStrings(t, db, q); !reflect.DeepEqual(got, before[i]) {
			t.Errorf("after rollback, %q = %v, want %v", q, got, before[i])
		}
	}
	if got := dumpString(t, db); got != dumpBefore {
		t.Errorf("dump after rollback differs from before:\n--- before ---\n%s--- after ---\n%s", dumpBefore, got)
	}
	// A vacuum pass after rollback must not change anything either
	// (rolled-back versions were already unlinked).
	db.Vacuum()
	for i, q := range probes {
		if got := queryStrings(t, db, q); !reflect.DeepEqual(got, before[i]) {
			t.Errorf("after rollback+vacuum, %q = %v, want %v", q, got, before[i])
		}
	}
}

// TestTxnAPIVisibilityAndIsolation: the Txn handle's writes are visible
// to its own reads, invisible to concurrent snapshots until Commit, and
// visible to snapshots captured after.
func TestTxnAPIVisibilityAndIsolation(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1, 10)")

	// A cursor opened before the transaction pins the pre-txn state.
	pre, err := db.QueryRows(context.Background(), "SELECT id FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer pre.Close()

	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO t VALUES (2, 20)"); err != nil {
		t.Fatal(err)
	}
	res, err := txQuery(tx, "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 2 {
		t.Errorf("txn sees %d rows of its own state, want 2", got)
	}

	n := 0
	for pre.Next() {
		n++
	}
	if n != 1 || pre.Err() != nil {
		t.Errorf("pre-txn cursor saw %d rows (err %v), want its snapshot's 1", n, pre.Err())
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	post := queryStrings(t, db, "SELECT id FROM t ORDER BY id")
	if !reflect.DeepEqual(post, [][]string{{"1"}, {"2"}}) {
		t.Errorf("post-commit rows = %v, want [[1] [2]]", post)
	}
}

// TestTxnCursorOutlivesCommit: a cursor opened inside a transaction holds
// its own snapshot reference and stays consistent after the transaction
// commits.
func TestTxnCursorOutlivesCommit(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
	for i := 0; i < 20; i++ {
		db.MustExec("INSERT INTO t VALUES (?)", i)
	}
	tx := db.Begin()
	if _, err := tx.Exec("DELETE FROM t WHERE id >= 10"); err != nil {
		t.Fatal(err)
	}
	rows, err := tx.QueryRows(context.Background(), "SELECT id FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// More DML after commit; the cursor must still see exactly the
	// transaction's view (10 survivors).
	db.MustExec("DELETE FROM t WHERE id < 5")
	n := 0
	for rows.Next() {
		n++
	}
	if n != 10 || rows.Err() != nil {
		t.Errorf("txn cursor saw %d rows (err %v), want 10", n, rows.Err())
	}
}

// TestTxnMisuseErrors pins the ErrMisuse surface of the transaction API.
func TestTxnMisuseErrors(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER)")

	if _, err := db.Exec("COMMIT"); CodeOf(err) != ErrMisuse {
		t.Errorf("COMMIT without txn: %v, want ErrMisuse", err)
	}
	if _, err := db.Exec("ROLLBACK"); CodeOf(err) != ErrMisuse {
		t.Errorf("ROLLBACK without txn: %v, want ErrMisuse", err)
	}
	if _, err := db.Exec("BEGIN"); CodeOf(err) != ErrMisuse {
		t.Errorf("bare BEGIN: %v, want ErrMisuse", err)
	}

	// No statement begins or ends a Txn: each is refused and leaves it open
	// with its writes, and the statements before it in the same text stand
	// inside it until the handle ends it.
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO t VALUES (5)"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		if _, err := tx.Exec(sql); CodeOf(err) != ErrMisuse {
			t.Errorf("%s inside Txn: %v, want ErrMisuse", sql, err)
		}
		if active := db.Stats().ActiveTxns; active != 1 {
			t.Errorf("ActiveTxns = %d after %s inside Txn, want 1", active, sql)
		}
		if res, err := txQuery(tx, "SELECT COUNT(*) FROM t WHERE id = 5"); err != nil || res.Rows[0][0].AsInt() != 1 {
			t.Errorf("after %s the Txn does not read its own insert: %v (err %v)", sql, res, err)
		}
	}
	if n, err := tx.Exec("INSERT INTO t VALUES (7); COMMIT"); CodeOf(err) != ErrMisuse || n != 1 {
		t.Errorf("INSERT then COMMIT in one Txn.Exec: n = %d, %v; want 1, ErrMisuse", n, err)
	}
	if got := queryStrings(t, db, "SELECT COUNT(*) FROM t"); got[0][0] != "0" {
		t.Errorf("a COMMIT statement published the Txn's rows: COUNT(*) = %s outside it", got[0][0])
	}
	if res, err := txQuery(tx, "SELECT id FROM t ORDER BY id"); err != nil || !reflect.DeepEqual(rowsToStrings(res.Rows), [][]string{{"5"}, {"7"}}) {
		t.Errorf("the Txn reads %v (err %v), want its inserts 5 and 7", res, err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := queryStrings(t, db, "SELECT COUNT(*) FROM t"); got[0][0] != "0" {
		t.Errorf("Rollback left %s rows, want none", got[0][0])
	}

	tx = db.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); CodeOf(err) != ErrMisuse {
		t.Errorf("double Commit: %v, want ErrMisuse", err)
	}
	if err := tx.Rollback(); CodeOf(err) != ErrMisuse {
		t.Errorf("Rollback after Commit: %v, want ErrMisuse", err)
	}
	if _, err := tx.QueryRows(context.Background(), "SELECT * FROM t"); CodeOf(err) != ErrMisuse {
		t.Errorf("QueryRows on finished Txn: %v, want ErrMisuse", err)
	}

	// A finished Txn rejects every statement kind before it touches a latch
	// or a snapshot: nothing is left held for the next writer to wait on.
	finish := map[string]func(*Txn) error{"Commit": (*Txn).Commit, "Rollback": (*Txn).Rollback}
	for how, end := range finish {
		for _, sql := range []string{
			"CREATE TABLE b (id INTEGER)", "CREATE INDEX t_id ON t (id)", "DROP TABLE t",
			"SELECT * FROM t", "INSERT INTO t VALUES (1)", "BEGIN",
		} {
			tx := db.Begin()
			if err := end(tx); err != nil {
				t.Fatal(err)
			}
			if _, err := tx.Exec(sql); CodeOf(err) != ErrMisuse {
				t.Errorf("%s after %s: %v, want ErrMisuse", sql, how, err)
			}
		}
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := db.Exec("INSERT INTO t VALUES (2)")
		wrote <- err
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a statement on a finished Txn left the writer latch held")
	}
	if n, active := db.LiveSnapshots(), db.Stats().ActiveTxns; n != 0 || active != 0 {
		t.Errorf("LiveSnapshots = %d, ActiveTxns = %d after finished-Txn misuse, want 0/0", n, active)
	}
	if _, err := db.Query("SELECT * FROM b"); CodeOf(err) != ErrNoTable {
		t.Errorf("table b exists (err %v): a finished Txn ran its CREATE TABLE", err)
	}
}

// TestBareCallsRunAutocommit: a bare Database call runs as its own
// autocommit, whatever Txn is open beside it. Its reads see only committed
// state, its write commits at once and outlives the Txn's rollback, and no
// statement it carries opens, joins or finishes a transaction.
func TestBareCallsRunAutocommit(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1)")
	ctx := context.Background()

	tx := db.Begin()
	if err := db.InsertRows("t", [][]any{{2}}); err != nil {
		t.Fatal(err)
	}
	committed := dumpString(t, db)
	if _, err := tx.Exec("INSERT INTO t VALUES (99)"); err != nil {
		t.Fatal(err)
	}
	const probe = "SELECT id FROM t ORDER BY id"
	want := [][]string{{"1"}, {"2"}}
	if got := queryStrings(t, db, probe); !reflect.DeepEqual(got, want) {
		t.Errorf("Query = %v, want the committed %v", got, want)
	}
	rows, err := db.QueryRows(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := rows.Collect(); err != nil || len(res.Rows) != 2 {
		t.Errorf("QueryRows saw %v (err %v), want the 2 committed rows", res, err)
	}
	if n, err := db.Exec(probe); err != nil || n != 2 {
		t.Errorf("Exec(SELECT) counted %d rows (err %v), want the 2 committed", n, err)
	}
	aq, err := db.ExplainAnalyze(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	if aq.Stats.RowsEmitted != 2 {
		t.Errorf("ExplainAnalyze emitted %d rows, want the 2 committed", aq.Stats.RowsEmitted)
	}
	if got := dumpString(t, db); got != committed {
		t.Errorf("Dump wrote the Txn's uncommitted row:\n%s", got)
	}

	for _, sql := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
		if _, err := db.Exec(sql); CodeOf(err) != ErrMisuse {
			t.Errorf("bare %s: %v, want ErrMisuse", sql, err)
		}
	}
	begin, err := Parse("BEGIN")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.execAll(ctx, []Statement{begin}, nil, nil); CodeOf(err) != ErrMisuse {
		t.Errorf("BEGIN through execAll(nil): %v, want ErrMisuse", err)
	}
	// The bare COMMIT and ROLLBACK left the Txn open and its row its own.
	if res, err := txQuery(tx, "SELECT COUNT(*) FROM t WHERE id = 99"); err != nil || res.Rows[0][0].AsInt() != 1 {
		t.Fatalf("the Txn lost its insert to a bare statement: %v (err %v)", res, err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := queryStrings(t, db, probe); !reflect.DeepEqual(got, want) {
		t.Errorf("after the Txn's rollback: %v, want %v with InsertRows' row surviving", got, want)
	}
	if n, active := db.LiveSnapshots(), db.Stats().ActiveTxns; n != 0 || active != 0 {
		t.Errorf("LiveSnapshots = %d, ActiveTxns = %d, want 0/0", n, active)
	}
}

// TestWriteLatchWaitHonoursContext: a statement waiting for the writer latch
// an open Txn holds gives up when its context does — ErrCanceled (57014)
// within the deadline, not after the Txn ends — and applies nothing, then or
// once the latch is free. Freeing a free latch panics rather than hang.
func TestWriteLatchWaitHonoursContext(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
	db.MustExec("INSERT INTO t VALUES (1)")
	before := dumpString(t, db)
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := db.ExecContext(ctx, "INSERT INTO t VALUES (3)")
	if waited := time.Since(start); CodeOf(err) != ErrCanceled || SQLStateFor(err) != "57014" || waited > time.Second {
		t.Fatalf("INSERT behind an open Txn under a 100 ms deadline: %v after %v, want ErrCanceled (57014) within 1 s", err, waited)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := dumpString(t, db); got != before {
		t.Errorf("the cancelled INSERT or the rolled-back Txn left a row:\n%s", got)
	}
	if n := db.LiveSnapshots(); n != 0 {
		t.Errorf("LiveSnapshots = %d, want 0", n)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (3)"); err != nil {
		t.Fatalf("the latch was not given back: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("freeing a free writer latch did not panic")
		}
	}()
	db.writeMu.Unlock()
}

// TestTxnStatsCounters: Begins/Commits/Rollbacks/ActiveTxns move with the
// transaction lifecycle, each end counted once.
func TestTxnStatsCounters(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER)")
	base := db.Stats()

	tx := db.Begin()
	s := db.Stats()
	if s.Begins != base.Begins+1 || s.ActiveTxns != base.ActiveTxns+1 {
		t.Errorf("after Begin: Begins=%d ActiveTxns=%d, want +1/+1 over %d/%d",
			s.Begins, s.ActiveTxns, base.Begins, base.ActiveTxns)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx = db.Begin()
	if _, err := tx.Exec("INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	s = db.Stats()
	if s.Begins != base.Begins+2 || s.Commits != base.Commits+1 ||
		s.Rollbacks != base.Rollbacks+1 || s.ActiveTxns != base.ActiveTxns {
		t.Errorf("counters = begins %d commits %d rollbacks %d active %d, want %d/%d/%d/%d",
			s.Begins, s.Commits, s.Rollbacks, s.ActiveTxns,
			base.Begins+2, base.Commits+1, base.Rollbacks+1, base.ActiveTxns)
	}
}

// TestStatsSnapshotConsistent: a Stats read beside live traffic is whole —
// every event is in it entirely or not at all, so Begins always equals
// Commits + Rollbacks + ActiveTxns — and the aggregate loses nothing: the
// final delta is the exact count of what ran.
func TestStatsSnapshotConsistent(t *testing.T) {
	const (
		writers = 2
		txns    = 20000 // per writer, half committed and half rolled back
		every   = 10    // an autocommit SELECT after every 10th transaction
		rows    = 8
	)
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER)")
	for i := range rows {
		db.MustExec(fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	base := db.Stats()

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range txns {
				tx := db.Begin()
				end := tx.Commit
				if i%2 == 1 {
					end = tx.Rollback
				}
				if err := end(); err != nil {
					errs <- err
					return
				}
				if i%every == 0 {
					if _, err := db.Query("SELECT id FROM t"); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	reads, torn := 0, 0
	var first Stats
	for running := true; running; reads++ {
		select {
		case <-done:
			running = false
		default:
		}
		s := db.Stats()
		if s.Begins != s.Commits+s.Rollbacks+uint64(s.ActiveTxns) {
			if torn == 0 {
				first = s
			}
			torn++
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if torn > 0 {
		t.Errorf("%d of %d snapshots torn; first: Begins %d != Commits %d + Rollbacks %d + ActiveTxns %d",
			torn, reads, first.Begins, first.Commits, first.Rollbacks, first.ActiveTxns)
	}

	s := db.Stats()
	queries := uint64(writers * txns / every)
	if got := s.Begins - base.Begins; got != writers*txns {
		t.Errorf("Begins moved by %d, want %d", got, writers*txns)
	}
	if got := s.Commits - base.Commits; got != writers*txns/2 {
		t.Errorf("Commits moved by %d, want %d", got, writers*txns/2)
	}
	if s.ActiveTxns != base.ActiveTxns {
		t.Errorf("ActiveTxns = %d after every transaction ended, want %d", s.ActiveTxns, base.ActiveTxns)
	}
	if got := s.Queries - base.Queries; got != queries {
		t.Errorf("Queries moved by %d, want %d", got, queries)
	}
	if got := s.RowsScanned - base.RowsScanned; got != queries*rows {
		t.Errorf("RowsScanned moved by %d, want %d", got, queries*rows)
	}
}

// ---------------------------------------------------------------------------
// Snapshot lifecycle: every path that captures a registered snapshot must
// release it, or the vacuum horizon never advances. These mirror the PR-6
// parallelWorkersActive leak tests, with tm.liveSnapshots as the witness.

// TestSnapshotReleasedOnEveryCursorPath: normal drain, early Close,
// mid-iteration error, ExplainAnalyze, Explain, Dump, and a failed
// ExecContext all return the live-snapshot count to its baseline.
func TestSnapshotReleasedOnEveryCursorPath(t *testing.T) {
	db := bigDB(t, 2000)
	base := db.tm.liveSnapshots()
	ctx := context.Background()

	// Drain to exhaustion.
	rows, err := db.QueryRows(ctx, "SELECT id FROM big WHERE grp = 3")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if got := db.tm.liveSnapshots(); got != base {
		t.Errorf("after drain: liveSnapshots = %d, want %d", got, base)
	}

	// Abandon mid-iteration via Close.
	rows, err = db.QueryRows(ctx, "SELECT id FROM big")
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	rows.Close()
	if got := db.tm.liveSnapshots(); got != base {
		t.Errorf("after early Close: liveSnapshots = %d, want %d", got, base)
	}

	// Cancellation mid-iteration: the cursor errors out partway and must
	// still release its snapshot.
	cctx, cancel := context.WithCancel(ctx)
	rows, err = db.QueryRows(cctx, "SELECT id FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected a first row before cancel")
	}
	cancel()
	for rows.Next() {
	}
	if CodeOf(rows.Err()) != ErrCanceled {
		t.Fatalf("after cancel: rows.Err() = %v, want ErrCanceled", rows.Err())
	}
	if got := db.tm.liveSnapshots(); got != base {
		t.Errorf("after canceled cursor: liveSnapshots = %d, want %d", got, base)
	}

	// DML statement error mid-loop (unique violation partway through).
	if _, err := db.ExecContext(ctx, "UPDATE big SET id = 1"); err == nil {
		t.Fatal("expected UPDATE constraint error")
	}
	if got := db.tm.liveSnapshots(); got != base {
		t.Errorf("after exec error: liveSnapshots = %d, want %d", got, base)
	}

	// ExplainAnalyze and Explain.
	if _, err := db.ExplainAnalyze(ctx, "SELECT grp, COUNT(*) FROM big GROUP BY grp"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Explain("SELECT id FROM big WHERE grp = 1"); err != nil {
		t.Fatal(err)
	}
	if got := db.tm.liveSnapshots(); got != base {
		t.Errorf("after explain paths: liveSnapshots = %d, want %d", got, base)
	}

	// Dump.
	var b strings.Builder
	if err := db.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if got := db.tm.liveSnapshots(); got != base {
		t.Errorf("after Dump: liveSnapshots = %d, want %d", got, base)
	}
}

// TestOpenCursorPinsVacuumHorizon: versions visible to an open cursor's
// snapshot survive a vacuum pass; once the cursor closes, the next pass
// reclaims them.
func TestOpenCursorPinsVacuumHorizon(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
	for i := 0; i < 100; i++ {
		db.MustExec("INSERT INTO t VALUES (?)", i)
	}
	rows, err := db.QueryRows(context.Background(), "SELECT id FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected a first row")
	}
	db.MustExec("DELETE FROM t WHERE id >= 50")
	if got := db.Vacuum(); got != 0 {
		t.Errorf("vacuum under an open cursor reclaimed %d versions, want 0 (horizon pinned)", got)
	}
	n := 1
	for rows.Next() {
		n++
	}
	if n != 100 || rows.Err() != nil {
		t.Fatalf("pinned cursor saw %d rows (err %v), want all 100", n, rows.Err())
	}
	if got := db.Vacuum(); got != 50 {
		t.Errorf("vacuum after Close reclaimed %d versions, want 50", got)
	}
}

// TestSharedReadSnapshot: autocommit reads with no transaction boundary
// between them share one snapshot, and every boundary — an autocommit
// write, a Begin, a Commit, a Rollback — makes the next read capture anew,
// so sharing moves no answer and no vacuum horizon. An explicit
// transaction's snapshot is never handed to an autocommit read.
func TestSharedReadSnapshot(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY)")
	open := func() *Rows {
		t.Helper()
		rows, err := db.QueryRows(context.Background(), "SELECT id FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a, b := open(), open()
	if n := db.LiveSnapshots(); n != 1 || a.qc.snap != b.qc.snap {
		t.Errorf("two reads with no boundary between them hold %d snapshots, want 1 shared", n)
	}
	a.Close()
	b.Close()

	count := func() int64 {
		t.Helper()
		res, err := db.Query("SELECT COUNT(*) FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].AsInt()
	}
	want := int64(0)
	for i := 0; i < 1000; i++ {
		if i%3 == 0 {
			db.MustExec("INSERT INTO t VALUES (?)", i)
			want++
		} else {
			tx := db.Begin()
			if _, err := tx.Exec("INSERT INTO t VALUES (?)", i); err != nil {
				t.Fatal(err)
			}
			r := open()
			if r.qc.snap == tx.snap || r.qc.snap.xid != 0 {
				t.Fatalf("step %d: an autocommit read was handed the open transaction's snapshot", i)
			}
			r.Close()
			if n := count(); n != want {
				t.Fatalf("step %d: a read beside an open transaction counts %d rows, want %d", i, n, want)
			}
			if i%3 == 1 {
				err := tx.Commit()
				if want++; err != nil {
					t.Fatal(err)
				}
			} else if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		}
		if n := count(); n != want {
			t.Fatalf("step %d: a read counts %d rows, want %d", i, n, want)
		}
	}

	// A shared snapshot pins the horizon while a cursor holds it, and only
	// then: the rows deleted after it are reclaimed once both cursors close.
	db.vacWG.Wait()
	reclaimed := db.Stats().VersionsReclaimed
	a, b = open(), open()
	deleted, err := db.Exec("DELETE FROM t WHERE id < 100")
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Vacuum(); got != 0 {
		t.Errorf("vacuum under two cursors sharing a snapshot reclaimed %d versions, want 0", got)
	}
	a.Close()
	b.Close()
	if n := db.LiveSnapshots(); n != 0 {
		t.Errorf("LiveSnapshots = %d after every cursor closed, want 0", n)
	}
	db.Vacuum()
	db.vacWG.Wait()
	if got := db.Stats().VersionsReclaimed - reclaimed; got != uint64(deleted) {
		t.Errorf("vacuum after the cursors closed reclaimed %d versions, want the %d deleted", got, deleted)
	}
}

// ---------------------------------------------------------------------------
// Concurrent readers and writers

// TestConcurrentReadersWritersEachSeeTheirSnapshot is the reader/writer
// isolation property: N readers iterate long cursors while M writers
// commit interleaved DML. Writers keep the total row count invariant
// (every transaction inserts one row and deletes one row), so every
// reader — whichever snapshot it captured — must see exactly the same
// count, and no torn (partially applied) transaction. Run under -race in
// both GOMAXPROCS matrix legs.
func TestConcurrentReadersWritersEachSeeTheirSnapshot(t *testing.T) {
	const nRows = 500
	const readers = 4
	const writers = 3
	const writerTxns = 40

	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, gen INTEGER)")
	rows := make([][]any, nRows)
	for i := range rows {
		rows[i] = []any{i, 0}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}

	var writerWG, readerWG sync.WaitGroup
	errc := make(chan error, readers+writers)
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			r := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < writerTxns; i++ {
				tx := db.Begin()
				// One insert + one point delete from the writer's private
				// stripe of seed rows per transaction: the live count is
				// nRows in every committed state.
				newID := 1_000_000 + w*writerTxns + i
				oldID := w*writerTxns + i
				if _, err := tx.Exec("INSERT INTO t VALUES (?, ?)", newID, i); err != nil {
					tx.Rollback()
					errc <- fmt.Errorf("writer %d insert: %v", w, err)
					return
				}
				if _, err := tx.Exec("DELETE FROM t WHERE id = ?", oldID); err != nil {
					tx.Rollback()
					errc <- fmt.Errorf("writer %d delete: %v", w, err)
					return
				}
				// A random fraction aborts instead — also count-neutral.
				if r.Intn(5) == 0 {
					if err := tx.Rollback(); err != nil {
						errc <- fmt.Errorf("writer %d rollback: %v", w, err)
						return
					}
				} else if err := tx.Commit(); err != nil {
					errc <- fmt.Errorf("writer %d commit: %v", w, err)
					return
				}
			}
		}(w)
	}

	for rd := 0; rd < readers; rd++ {
		readerWG.Add(1)
		go func(rd int) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rows, err := db.QueryRows(context.Background(), "SELECT id, gen FROM t")
				if err != nil {
					errc <- fmt.Errorf("reader %d open: %v", rd, err)
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil {
					errc <- fmt.Errorf("reader %d iterate: %v", rd, err)
					return
				}
				if n != nRows {
					errc <- fmt.Errorf("reader %d saw %d rows, want %d (torn snapshot)", rd, n, nRows)
					return
				}
			}
		}(rd)
	}

	writerDone := make(chan struct{})
	go func() {
		writerWG.Wait()
		close(writerDone)
	}()
	stopOnce := sync.OnceFunc(func() { close(stop) })
	defer readerWG.Wait()
	defer stopOnce()
	select {
	case err := <-errc:
		t.Fatal(err)
	case <-writerDone:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent reader/writer property timed out")
	}
	stopOnce()
	readerWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if got := queryStrings(t, db, "SELECT COUNT(*) FROM t"); !reflect.DeepEqual(got, [][]string{{fmt.Sprint(nRows)}}) {
		t.Fatalf("final count = %v, want %d", got, nRows)
	}
	if got := db.Stats().ActiveTxns; got != 0 {
		t.Fatalf("ActiveTxns = %d after all writers finished, want 0", got)
	}
}
