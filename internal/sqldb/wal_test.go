package sqldb

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// Tests for the durability layer's happy paths and typed-error edges:
// encoding round-trips, reopen recovery, fsync per commit (observed
// through memFS's durable-prefix model), checkpointing, torn-tail truncation,
// LoadScript atomicity, and the ErrIO surface under injected ENOSPC /
// short-write / fsync failures. The exhaustive crash-point matrix lives
// in wal_crash_test.go.

// withWAL puts a durable database's WAL on fs and starts automatic
// checkpoints after ckptBytes of log (0: the default threshold; -1: only
// on demand).
func withWAL(fs walFS, ckptBytes int64) Option {
	return func(db *Database) { db.walFS, db.ckptBytes = fs, ckptBytes }
}

// appendWalRecord frames a payload as one checksummed record, as
// appendCommit frames the ops it encodes.
func appendWalRecord(b []byte, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// openWalDB opens a durable database named "db" on the given filesystem.
func openWalDB(t testing.TB, fs walFS, ckptBytes int64) *Database {
	t.Helper()
	db, err := Open("db", withWAL(fs, ckptBytes))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return db
}

func closeDB(t testing.TB, db *Database) {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// failNext arms the injection point n mutating operations from now.
func (c *crashFS) failNext(n int) {
	c.mu.Lock()
	c.failAt = c.op + n
	c.mu.Unlock()
}

func TestWalOpEncodingRoundTrip(t *testing.T) {
	ops := []walOp{
		{kind: 'S', sql: "CREATE TABLE t (a INTEGER)"},
		{kind: 'I', table: "t", row: Row{Int(-7), Float(1.5), Text("héllo"), Bool(true), Null}},
		{kind: 'D', table: "t", row: Row{Text(""), Int(1 << 62), Bool(false)}},
		{kind: 'U', table: "películas", row: Row{Int(1), Text("old")}, row2: Row{Int(1), Text("new\x00bytes")}},
	}
	var buf []byte
	for _, op := range ops {
		buf = appendWalOp(buf, op)
	}
	d := &walDecoder{b: buf}
	for i, want := range ops {
		got := d.op()
		if d.err != nil {
			t.Fatalf("op %d: decode error: %v", i, d.err)
		}
		if got.kind != want.kind || got.table != want.table || got.sql != want.sql {
			t.Fatalf("op %d: got %+v want %+v", i, got, want)
		}
		if !rowsExactEqual(got.row, want.row) || !rowsExactEqual(got.row2, want.row2) {
			t.Fatalf("op %d: rows differ: got %v/%v want %v/%v", i, got.row, got.row2, want.row, want.row2)
		}
	}
	if d.off != len(buf) {
		t.Fatalf("decoder consumed %d of %d bytes", d.off, len(buf))
	}
	// Truncated buffers must fail cleanly, never panic.
	for cut := 0; cut < len(buf); cut++ {
		d := &walDecoder{b: buf[:cut]}
		for d.err == nil && d.off < cut {
			d.op()
		}
	}
}

func TestOpenRequiresPath(t *testing.T) {
	if _, err := Open(""); CodeOf(err) != ErrMisuse {
		t.Fatalf("Open(\"\") error = %v, want ErrMisuse", err)
	}
}

func TestCheckpointWithoutDurability(t *testing.T) {
	db := NewDatabase()
	if err := db.Checkpoint(); CodeOf(err) != ErrMisuse {
		t.Fatalf("Checkpoint on in-memory db = %v, want ErrMisuse", err)
	}
}

// TestReopenRecoversCommittedState is the core durability contract: after
// a mixed workload (DDL, autocommit DML, an explicit transaction, a
// rolled-back transaction), a reopen reproduces the exact committed state.
func TestReopenRecoversCommittedState(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, 0)
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, s TEXT)")
	db.MustExec("CREATE INDEX idx_t_k ON t (k)")
	for i := 0; i < 20; i++ {
		db.MustExec("INSERT INTO t VALUES (?, ?, ?)", i, i%3, "row")
	}
	db.MustExec("UPDATE t SET s = 'upd' WHERE k = 1")
	db.MustExec("DELETE FROM t WHERE id >= 15")

	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO t VALUES (100, 9, 'txn'); UPDATE t SET k = 9 WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	rb := db.Begin()
	if _, err := rb.Exec("DELETE FROM t; CREATE TABLE gone (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if err := rb.Rollback(); err != nil {
		t.Fatal(err)
	}

	want := dumpString(t, db)
	closeDB(t, db)

	db2 := openWalDB(t, fs, 0)
	defer closeDB(t, db2)
	if got := dumpString(t, db2); got != want {
		t.Errorf("recovered dump differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if n := db2.Stats().RecoveredTxns; n == 0 {
		t.Errorf("RecoveredTxns = 0, want > 0")
	}
	// The rolled-back transaction (including its DDL) must not resurface.
	if _, err := db2.Query("SELECT * FROM gone"); CodeOf(err) != ErrNoTable {
		t.Errorf("rolled-back CREATE TABLE visible after recovery: err=%v", err)
	}
}

// TestCommitRecordBufferBounded: a commit encodes its record into the
// writer's one reused buffer, which is kept only while it is at most
// walBufKeep — a bulk load's record is not held after it — and the records
// it framed recover every row. A durable autocommit UPDATE or INSERT
// allocates at most one object more than the same statement in memory.
func TestCommitRecordBufferBounded(t *testing.T) {
	load := func(db *Database) {
		db.MustExec("CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, bal INTEGER)")
		rows := make([][]any, 20000)
		for i := range rows {
			rows[i] = []any{i, fmt.Sprint("owner-", i), 1000}
		}
		if err := db.InsertRows("acct", rows); err != nil {
			t.Fatal(err)
		}
		db.vacWG.Wait() // past the seal the load started: it allocates too
	}
	fs := newMemFS()
	db := openWalDB(t, fs, -1)
	load(db)
	if c := cap(db.wal.buf); c > walBufKeep {
		t.Errorf("after a 20,000-row load the writer keeps a %d B record buffer, want at most %d", c, walBufKeep)
	}
	for i := 0; i < 100; i++ {
		db.MustExec("UPDATE acct SET bal = bal + ? WHERE id = ?", i, i)
	}
	if c := cap(db.wal.buf); c == 0 || c > walBufKeep {
		t.Errorf("after 100 updates the writer keeps a %d B record buffer, want one of at most %d", c, walBufKeep)
	}
	closeDB(t, db)

	db = openWalDB(t, fs, -1)
	defer closeDB(t, db)
	db.vacWG.Wait()
	// No ORDER BY: an ordered view of the index would cost every later
	// INSERT its upkeep, in this database and not in the in-memory one.
	res, err := db.Query("SELECT id, owner, bal FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 20000)
	for _, r := range res.Rows {
		i := r[0].AsInt()
		bal := int64(1000)
		if i < 100 {
			bal += i
		}
		if i < 0 || i >= 20000 || seen[i] || r[1].AsText() != fmt.Sprint("owner-", i) || r[2].AsInt() != bal {
			t.Fatalf("reopened row %v, want (%d, owner-%d, %d) once", r, i, i, bal)
		}
		seen[i] = true
	}
	if len(res.Rows) != 20000 {
		t.Fatalf("reopen reads %d rows, want 20000", len(res.Rows))
	}

	if raceDetector {
		return // the race runtime allocates on its own account
	}
	mem := NewDatabase()
	load(mem)
	next := 1 << 20
	for _, c := range []struct {
		sql    string
		params func() []any
	}{
		{"UPDATE acct SET bal = bal + ? WHERE id = ?", func() []any { return []any{1, 7} }},
		{"INSERT INTO acct VALUES (?, ?, ?)", func() []any { next++; return []any{next, "o", 5} }},
	} {
		allocs := func(db *Database) float64 {
			for i := 0; i < 100; i++ { // past the first writes' one-time set-up
				db.MustExec(c.sql, c.params()...)
			}
			return testing.AllocsPerRun(50, func() { db.MustExec(c.sql, c.params()...) })
		}
		if m, d := allocs(mem), allocs(db); d > m+1 {
			t.Errorf("%s: %.0f allocations durable, %.0f in memory; want at most one more", c.sql, d, m)
		}
	}
}

// TestReplayInstallsLoggedRowsVerbatim: an INSERT in the log is the row
// coercion produced under the rule of the binary that wrote it, and the
// UPDATE/DELETE images behind it match it bit for bit — so replay must not
// coerce it a second time under today's rule. The log here is hand-built
// the way a binary from before `coerce` accepted every spelling of zero
// wrote it: TEXT '0.0' and '+0' sitting in a UNIQUE INTEGER column next to
// 0, one of them then deleted and one updated by its image.
func TestReplayInstallsLoggedRowsVerbatim(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, 0)
	db.MustExec("CREATE TABLE t (a INTEGER UNIQUE, s TEXT)")
	if _, _, err := db.wal.appendCommit([]walOp{
		{kind: 'I', table: "t", row: Row{Int(0), Text("zero")}},
		{kind: 'I', table: "t", row: Row{Text("0.0"), Text("gone")}},
		{kind: 'I', table: "t", row: Row{Text("+0"), Text("old")}},
		{kind: 'D', table: "t", row: Row{Text("0.0"), Text("gone")}},
		{kind: 'U', table: "t", row: Row{Text("+0"), Text("old")}, row2: Row{Text("+0"), Text("new")}},
	}); err != nil {
		t.Fatal(err)
	}
	closeDB(t, db)

	db2 := openWalDB(t, fs, 0)
	defer closeDB(t, db2)
	res, err := db2.Query("SELECT typeof(a), a, s FROM t ORDER BY s")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, r[0].AsText()+" "+r[1].AsText()+" "+r[2].AsText())
	}
	if want := []string{"text +0 new", "integer 0 zero"}; !reflect.DeepEqual(got, want) {
		t.Errorf("recovered rows = %q, want %q", got, want)
	}
	// A fresh insert still coerces.
	db2.MustExec("INSERT INTO t VALUES ('7.0', 'fresh')")
	if res, err := db2.Query("SELECT typeof(a) FROM t WHERE s = 'fresh'"); err != nil || res.Rows[0][0].AsText() != "integer" {
		t.Errorf("typeof of a fresh '7.0' = %v, %v; want integer", res, err)
	}
}

// TestRolledBackTxnWritesNothing: rollback must not touch the log at all.
func TestRolledBackTxnWritesNothing(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, 0)
	defer closeDB(t, db)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	before, err := fs.ReadFile("db/wal-0.log")
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	if _, err := tx.Exec("INSERT INTO t VALUES (1); DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	after, err := fs.ReadFile("db/wal-0.log")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("rollback appended %d bytes to the WAL", len(after)-len(before))
	}
}

// TestFsyncEveryCommit: Commit returns only once its record is fsynced.
func TestFsyncEveryCommit(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, 0)
	defer closeDB(t, db)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	for i := 0; i < 3; i++ {
		db.MustExec("INSERT INTO t VALUES (?)", i)
		data, _ := fs.ReadFile("db/wal-0.log")
		if synced := fs.syncedLen("db/wal-0.log"); synced != len(data) {
			t.Fatalf("after commit %d: synced %d of %d bytes", i, synced, len(data))
		}
	}
}

func TestCheckpointRetiresLog(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, -1)
	db.MustExec("CREATE TABLE t (a INTEGER, b TEXT)")
	for i := 0; i < 10; i++ {
		db.MustExec("INSERT INTO t VALUES (?, 'x')", i)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if n := db.Stats().Checkpoints; n != 1 {
		t.Errorf("Checkpoints = %d, want 1", n)
	}
	names, _ := fs.ReadDir("db")
	var got []string
	got = append(got, names...)
	if len(got) != 2 || got[0] != "snap-1.sql" || got[1] != "wal-1.log" {
		t.Fatalf("files after checkpoint = %v, want [snap-1.sql wal-1.log]", got)
	}
	if data, _ := fs.ReadFile("db/wal-1.log"); len(data) != len(walMagic) {
		t.Errorf("new log is %d bytes, want bare %d-byte header", len(data), len(walMagic))
	}
	// Commits after the checkpoint land in the new generation; recovery
	// stitches snapshot + new log together.
	db.MustExec("INSERT INTO t VALUES (100, 'post-checkpoint')")
	want := dumpString(t, db)
	closeDB(t, db)

	db2 := openWalDB(t, fs, 0)
	defer closeDB(t, db2)
	if got := dumpString(t, db2); got != want {
		t.Errorf("post-checkpoint recovery differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	fs := newMemFS()
	// Threshold of one byte: every commit qualifies; the background
	// checkpoint is single-flight so some commits coalesce.
	db := openWalDB(t, fs, 1)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	for i := 0; i < 50; i++ {
		db.MustExec("INSERT INTO t VALUES (?)", i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("automatic checkpoint never fired")
		}
		time.Sleep(time.Millisecond)
	}
	want := dumpString(t, db)
	closeDB(t, db)
	db2 := openWalDB(t, fs, 0)
	defer closeDB(t, db2)
	if got := dumpString(t, db2); got != want {
		t.Errorf("recovery after auto-checkpoint differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

func TestTornTailDropped(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, 0)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1)")
	want := dumpString(t, db)
	db.MustExec("INSERT INTO t VALUES (2)")
	closeDB(t, db)

	// Tear the final record: cut three bytes off the log's tail.
	fs.mu.Lock()
	f := fs.files["db/wal-0.log"]
	f.data = f.data[:len(f.data)-3]
	f.synced = len(f.data)
	fs.mu.Unlock()

	db2 := openWalDB(t, fs, 0)
	if got := dumpString(t, db2); got != want {
		t.Errorf("torn-tail recovery differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if n := db2.Stats().TornTailsDropped; n != 1 {
		t.Errorf("TornTailsDropped = %d, want 1", n)
	}
	// The torn bytes were truncated away, so appends resume on a record
	// boundary and a further reopen is clean.
	db2.MustExec("INSERT INTO t VALUES (3)")
	want2 := dumpString(t, db2)
	closeDB(t, db2)
	db3 := openWalDB(t, fs, 0)
	defer closeDB(t, db3)
	if got := dumpString(t, db3); got != want2 {
		t.Errorf("post-repair recovery differs:\n--- want ---\n%s--- got ---\n%s", want2, got)
	}
	if n := db3.Stats().TornTailsDropped; n != 0 {
		t.Errorf("TornTailsDropped after repair = %d, want 0", n)
	}
}

// TestCorruptHeaderRejected: a log whose header is not this format's magic
// — garbage, or the magic of the earlier frame format — is refused.
func TestCorruptHeaderRejected(t *testing.T) {
	for name, header := range map[string]string{"corrupt": "XAGWAL2\n", "TAGWAL1": "TAGWAL1\n"} {
		fs := newMemFS()
		db := openWalDB(t, fs, 0)
		db.MustExec("CREATE TABLE t (a INTEGER)")
		closeDB(t, db)
		fs.mu.Lock()
		copy(fs.files["db/wal-0.log"].data, header)
		fs.mu.Unlock()
		if _, err := Open("db", withWAL(fs, 0)); CodeOf(err) != ErrIO {
			t.Fatalf("%s header: err = %v, want ErrIO", name, err)
		}
	}
}

// TestCommitIsOneRecord: every committed unit — autocommit DDL, autocommit
// DML, and an explicit transaction mixing DDL and DML — grows the log by
// exactly one record holding all its ops, and replaying those records
// rebuilds the same database.
func TestCommitIsOneRecord(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, -1)
	units := []struct {
		ops  int
		exec func() error
	}{
		{1, func() error { _, err := db.Exec("CREATE TABLE t (a INTEGER, b TEXT)"); return err }},
		{2, func() error { _, err := db.Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y')"); return err }},
		{6, func() error {
			tx := db.Begin()
			if _, err := tx.Exec(`CREATE TABLE u (k INTEGER); INSERT INTO u VALUES (7), (8);
				CREATE INDEX idx_u_k ON u (k); UPDATE t SET b = 'z' WHERE a = 2; DROP TABLE u`); err != nil {
				return err
			}
			return tx.Commit()
		}},
	}
	for i, u := range units {
		before, _ := fs.ReadFile("db/wal-0.log")
		if err := u.exec(); err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		after, _ := fs.ReadFile("db/wal-0.log")
		rec := after[len(before):]
		if len(rec) < 8 || int(binary.LittleEndian.Uint32(rec)) != len(rec)-8 {
			t.Fatalf("unit %d appended %d bytes, not one record", i, len(rec))
		}
		if ops, err := decodeRecord(rec[8:]); err != nil || len(ops) != u.ops {
			t.Fatalf("unit %d: record holds %d ops (err %v), want %d", i, len(ops), err, u.ops)
		}
	}
	want := dumpString(t, db)
	closeDB(t, db)
	db2 := openWalDB(t, fs, -1)
	defer closeDB(t, db2)
	if got := dumpString(t, db2); got != want {
		t.Errorf("recovered dump differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if n := db2.Stats().RecoveredTxns; n != uint64(len(units)) {
		t.Errorf("RecoveredTxns = %d, want %d", n, len(units))
	}
}

// TestRecoveryBoundsOpCount: a record whose checksum holds but whose op
// count is more than its bytes could encode is refused as corrupt before
// anything is allocated for the count.
func TestRecoveryBoundsOpCount(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, 0)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	closeDB(t, db)
	fs.mu.Lock()
	f := fs.files["db/wal-0.log"]
	f.data = appendWalRecord(f.data, binary.LittleEndian.AppendUint32(nil, 1<<20))
	f.synced = len(f.data)
	fs.mu.Unlock()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Open("db", withWAL(fs, 0))
	runtime.ReadMemStats(&after)
	if CodeOf(err) != ErrIO {
		t.Fatalf("op count past the record's end: err = %v, want ErrIO", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("Open allocated %d bytes for a record of 4, want < 1 MiB", grew)
	}
}

// TestWriteAfterCloseRefused: once Close has run, every kind of write —
// autocommit DML and DDL, bulk load, a transaction's statement — fails
// with ErrMisuse and changes nothing, in memory or on disk; reads go on.
func TestWriteAfterCloseRefused(t *testing.T) {
	dir := t.TempDir() + "/db"
	durable, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*Database{"durable": durable, "memory": NewDatabase()} {
		db.MustExec("CREATE TABLE t (a INTEGER)")
		db.MustExec("INSERT INTO t VALUES (1)")
		closeDB(t, db)
		tx := db.Begin()
		writes := map[string]func() error{
			"insert":      func() error { _, err := db.Exec("INSERT INTO t VALUES (2)"); return err },
			"update":      func() error { _, err := db.Exec("UPDATE t SET a = 3"); return err },
			"create":      func() error { _, err := db.Exec("CREATE TABLE u (a INTEGER)"); return err },
			"drop":        func() error { _, err := db.Exec("DROP TABLE t"); return err },
			"insert rows": func() error { return db.InsertRows("t", [][]any{{4}}) },
			"txn insert":  func() error { _, err := tx.Exec("INSERT INTO t VALUES (5)"); return err },
		}
		for w, write := range writes {
			if err := write(); CodeOf(err) != ErrMisuse {
				t.Errorf("%s: %s after Close: err = %v, want ErrMisuse", name, w, err)
			}
		}
		_ = tx.Rollback()
		if got := queryStrings(t, db, "SELECT a FROM t"); len(got) != 1 || got[0][0] != "1" {
			t.Errorf("%s: rows after refused writes = %v, want [[1]]", name, got)
		}
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer closeDB(t, db)
	if got := queryStrings(t, db, "SELECT a FROM t"); len(got) != 1 || got[0][0] != "1" {
		t.Errorf("rows after reopen = %v, want [[1]]", got)
	}
}

// TestENOSPCAtCommit: a failed append returns typed ErrIO, the in-memory
// state stays consistent and queryable, later commits fail fast, and a
// reopen recovers exactly the durable prefix.
func TestENOSPCAtCommit(t *testing.T) {
	fs := newCrashFS(0, faultENOSPC)
	db := openWalDB(t, fs, 0)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	fs.failNext(1) // next mutating op is the INSERT's commit append
	_, err := db.Exec("INSERT INTO t VALUES (1)")
	if CodeOf(err) != ErrIO {
		t.Fatalf("commit under ENOSPC: err = %v, want ErrIO", err)
	}
	// The commit applied in memory; only durability was lost.
	if got := queryStrings(t, db, "SELECT a FROM t"); len(got) != 1 || got[0][0] != "1" {
		t.Fatalf("in-memory state after failed commit: %v", got)
	}
	// Poisoned: every later commit and checkpoint fails fast.
	if _, err := db.Exec("INSERT INTO t VALUES (2)"); CodeOf(err) != ErrIO {
		t.Fatalf("second commit after poison: err = %v, want ErrIO", err)
	}
	if err := db.Checkpoint(); CodeOf(err) != ErrIO {
		t.Fatalf("checkpoint after poison: err = %v, want ErrIO", err)
	}
	// Reads still work.
	if got := queryStrings(t, db, "SELECT COUNT(*) FROM t"); got[0][0] != "2" {
		t.Fatalf("reads after poison: %v", got)
	}
	_ = db.Close()

	db2 := openWalDB(t, fs.afterCrash(), 0)
	defer closeDB(t, db2)
	if got := queryStrings(t, db2, "SELECT COUNT(*) FROM t"); got[0][0] != "0" {
		t.Fatalf("reopen after ENOSPC: table has %v rows, want 0 (only DDL was durable)", got[0][0])
	}
}

func TestShortWriteAtCommit(t *testing.T) {
	fs := newCrashFS(0, faultShortWrite)
	db := openWalDB(t, fs, 0)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1)")
	want := dumpString(t, db)
	fs.failNext(1)
	if _, err := db.Exec("INSERT INTO t VALUES (2)"); CodeOf(err) != ErrIO {
		t.Fatalf("short write: err = %v, want ErrIO", err)
	}
	_ = db.Close()
	// The half-written record was truncated back to the last boundary, so
	// reopen recovers the pre-fault state without even seeing a torn tail.
	db2 := openWalDB(t, fs.afterCrash(), 0)
	defer closeDB(t, db2)
	if got := dumpString(t, db2); got != want {
		t.Errorf("short-write recovery differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if n := db2.Stats().TornTailsDropped; n != 0 {
		t.Errorf("TornTailsDropped = %d, want 0 (tail was repaired at write time)", n)
	}
}

func TestFsyncErrorAtCommit(t *testing.T) {
	fs := newCrashFS(0, faultENOSPC)
	db := openWalDB(t, fs, 0)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	fs.failNext(2) // write succeeds, the fsync after it fails
	if _, err := db.Exec("INSERT INTO t VALUES (1)"); CodeOf(err) != ErrIO {
		t.Fatalf("fsync failure: err = %v, want ErrIO", err)
	}
	if got := queryStrings(t, db, "SELECT COUNT(*) FROM t"); got[0][0] != "1" {
		t.Fatalf("in-memory state after fsync failure: %v", got)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (2)"); CodeOf(err) != ErrIO {
		t.Fatalf("commit after fsync poison: err = %v, want ErrIO", err)
	}
	_ = db.Close()
	// The record's bytes reached the file even though their durability was
	// unknown; in this deterministic model they survive, and recovery
	// accepts them (they are whole and checksummed).
	db2 := openWalDB(t, fs.afterCrash(), 0)
	defer closeDB(t, db2)
	if got := queryStrings(t, db2, "SELECT COUNT(*) FROM t"); got[0][0] != "1" {
		t.Fatalf("reopen after fsync failure: %v rows, want 1", got[0][0])
	}
}

func TestRecoveryHonorsContextCancel(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, 0)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1)")
	closeDB(t, db)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := OpenContext(ctx, "db", withWAL(fs, 0))
	if CodeOf(err) != ErrCanceled {
		t.Fatalf("canceled recovery: err = %v, want ErrCanceled", err)
	}
	// The same store still opens fine under a live context.
	db2, err := Open("db", withWAL(fs, 0))
	if err != nil {
		t.Fatalf("reopen after canceled recovery: %v", err)
	}
	closeDB(t, db2)
}

// TestOpenOSFS exercises the real-filesystem implementation end to end:
// create, commit, checkpoint, reopen from disk.
func TestOpenOSFS(t *testing.T) {
	dir := t.TempDir() + "/db"
	db, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db.MustExec("CREATE TABLE t (a INTEGER, b TEXT)")
	db.MustExec("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	db.MustExec("DELETE FROM t WHERE a = 1")
	want := dumpString(t, db)
	closeDB(t, db)

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer closeDB(t, db2)
	if got := dumpString(t, db2); got != want {
		t.Errorf("osFS recovery differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestLoadScriptAtomic pins the satellite: a script that fails mid-way
// leaves the database bit-identical to before, including DDL.
func TestLoadScriptAtomic(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (a INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1)")
	before := dumpString(t, db)

	err := db.LoadScript(`
		INSERT INTO t VALUES (2);
		CREATE TABLE half (x INTEGER);
		INSERT INTO half VALUES (1);
		INSERT INTO nosuch VALUES (1);
	`)
	if CodeOf(err) != ErrNoTable {
		t.Fatalf("LoadScript error = %v, want ErrNoTable", err)
	}
	if after := dumpString(t, db); after != before {
		t.Errorf("failed LoadScript mutated the database:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	if _, err := db.Query("SELECT * FROM half"); CodeOf(err) != ErrNoTable {
		t.Errorf("table from failed script survives: err=%v", err)
	}

	// And a script that succeeds applies everything.
	if err := db.LoadScript("CREATE TABLE ok (x INTEGER); INSERT INTO ok VALUES (1);"); err != nil {
		t.Fatalf("LoadScript: %v", err)
	}
	if got := queryStrings(t, db, "SELECT x FROM ok"); len(got) != 1 {
		t.Errorf("successful script rows: %v", got)
	}
}

// TestDDLRollback pins the transactional-DDL semantics the WAL relies on:
// CREATE TABLE / CREATE INDEX / DROP TABLE inside a transaction are
// undone by rollback.
func TestDDLRollback(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE keep (a INTEGER)")
	db.MustExec("INSERT INTO keep VALUES (1)")
	before := dumpString(t, db)

	tx := db.Begin()
	if _, err := tx.Exec("CREATE TABLE temp (x INTEGER); INSERT INTO temp VALUES (1); CREATE INDEX idx_keep_a ON keep (a); DROP TABLE keep"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if after := dumpString(t, db); after != before {
		t.Errorf("DDL rollback not clean:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	if got := queryStrings(t, db, "SELECT a FROM keep"); len(got) != 1 {
		t.Errorf("dropped-then-rolled-back table content: %v", got)
	}
}
