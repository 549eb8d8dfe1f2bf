package sqldb

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// Tests for the durability layer's happy paths and typed-error edges:
// encoding round-trips, reopen recovery, fsync per commit (observed
// through memFS's durable-prefix model), checkpointing, which generation
// recovery reads, torn-tail dropping, LoadScript atomicity, and the ErrIO
// surface under injected ENOSPC / short-write / fsync failures. The
// exhaustive crash-point matrix lives in wal_crash_test.go.

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
	// Each row op's id is written as its distance from one past the
	// previous row op's (from 0 for the first): the deltas run forward,
	// backward and to both ends of the id range.
	ops := []walOp{
		{kind: 'S', sql: "CREATE TABLE t (a INTEGER)"},
		{kind: 'I', table: "t", id: 0, row: Row{Int(-7), Float(1.5), Text("héllo"), Bool(true), Null}},  // delta 0
		{kind: 'I', table: "t", id: 1 << 20, row: Row{Text(""), Int(1 << 62), Bool(false)}},             // delta 2²⁰−1
		{kind: 'D', table: "t", id: 127},                                                                // delta −2²⁰+126
		{kind: 'U', table: "películas", id: math.MaxUint32 - 1, row: Row{Int(1), Text("new\x00bytes")}}, // delta 2³²−130
		{kind: 'D', table: "t", id: math.MaxUint32},                                                     // delta 0
		{kind: 'S', sql: "DROP TABLE t"},                                                                // no id
		{kind: 'U', table: "t", id: 0, row: Row{Null}},                                                  // delta −2³²
	}
	var buf []byte
	next := 0
	for _, op := range ops {
		buf = appendWalOp(buf, op, &next)
	}
	d := &walDecoder{b: buf}
	for i, want := range ops {
		got := d.op()
		if d.err != nil {
			t.Fatalf("op %d: decode error: %v", i, d.err)
		}
		if !sameOp(got, want) {
			t.Fatalf("op %d: got %+v want %+v", i, got, want)
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
	for i, payload := range outOfRangeIDs() {
		if _, err := decodeRecord(payload); CodeOf(err) != ErrIO {
			t.Errorf("out-of-range id %d: decode error %v, want ErrIO", i, err)
		}
	}
	// Consecutive ids, as a bulk insert and a checkpoint's state records
	// log them, cost one byte each: a row op is its kind, its table name,
	// one id byte and its row.
	next = 0
	for id := range 300 {
		op := walOp{kind: 'I', table: "t", id: id, row: Row{Int(int64(id))}}
		if got, want := len(appendWalOp(nil, op, &next)), 1+4+len("t")+1+len(appendWalRow(nil, op.row)); got != want {
			t.Fatalf("consecutive id %d encodes in %d bytes, want %d", id, got, want)
		}
	}
}

// sameOp reports whether two ops are the same change, their rows value by
// value Identical.
func sameOp(a, b walOp) bool {
	return a.kind == b.kind && a.table == b.table && a.sql == b.sql && a.id == b.id && identical(a.row, b.row)
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

// TestWriteStatementAllocs: every write keeps undo, and a one-row
// autocommit statement pays no allocation for it — its undo record lands in
// the Txn's own first slot and its target list on mutate's stack — so a
// point UPDATE, an INSERT and a point DELETE allocate at most 14, 11 and 7
// objects in memory and one more each on a durable database. The query
// context stays in its 256-byte size class.
func TestWriteStatementAllocs(t *testing.T) {
	if size := unsafe.Sizeof(queryCtx{}); size > 256 {
		t.Errorf("queryCtx is %d bytes, want at most 256", size)
	}
	if raceDetector {
		t.Skip("the race runtime allocates on its own account")
	}
	for _, durable := range []bool{false, true} {
		db := NewDatabase()
		if durable {
			db = openWalDB(t, newMemFS(), -1)
		}
		db.MustExec("CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, bal INTEGER)")
		rows := make([][]any, 2000)
		for i := range rows {
			rows[i] = []any{i, fmt.Sprint("owner-", i), 1000}
		}
		if err := db.InsertRows("acct", rows); err != nil {
			t.Fatal(err)
		}
		next, gone := 1<<20, 0
		for _, c := range []struct {
			sql    string
			params func() []any
			max    float64
		}{
			{"UPDATE acct SET bal = bal + ? WHERE id = ?", func() []any { return []any{1, 7} }, 14},
			{"INSERT INTO acct VALUES (?, ?, ?)", func() []any { next++; return []any{next, "o", 5} }, 11},
			{"DELETE FROM acct WHERE id = ?", func() []any { gone++; return []any{gone} }, 7},
		} {
			for i := 0; i < 100; i++ { // past the first writes' one-time set-up
				db.MustExec(c.sql, c.params()...)
			}
			got := testing.AllocsPerRun(200, func() { db.MustExec(c.sql, c.params()...) })
			if durable {
				c.max++
			}
			if got > c.max {
				t.Errorf("durable=%v: %s allocates %.0f objects, want at most %.0f", durable, c.sql, got, c.max)
			}
		}
		closeDB(t, db)
	}
}

// TestReplayInstallsLoggedRowsVerbatim: an INSERT in the log is the row
// coercion produced under the rule of the binary that wrote it, so replay
// must not coerce it a second time under today's rule. The log here is
// hand-built the way a binary from before `coerce` accepted every spelling
// of zero wrote it: TEXT '0.0' and '+0' sitting in a UNIQUE INTEGER column
// next to 0, one of them then deleted and one updated by slot id.
func TestReplayInstallsLoggedRowsVerbatim(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, 0)
	db.MustExec("CREATE TABLE t (a INTEGER UNIQUE, s TEXT)")
	if _, _, err := db.wal.appendCommit([]walOp{
		{kind: 'I', table: "t", id: 0, row: Row{Int(0), Text("zero")}},
		{kind: 'I', table: "t", id: 1, row: Row{Text("0.0"), Text("gone")}},
		{kind: 'I', table: "t", id: 2, row: Row{Text("+0"), Text("old")}},
		{kind: 'D', table: "t", id: 1},
		{kind: 'U', table: "t", id: 2, row: Row{Text("+0"), Text("new")}},
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
	if got, _ := fs.ReadDir("db"); !reflect.DeepEqual(got, []string{"wal-1.log"}) {
		t.Fatalf("files after checkpoint = %v, want [wal-1.log]", got)
	}
	if data, _ := fs.ReadFile("db/wal-1.log"); wholeRecords(t, data) == 0 {
		t.Errorf("new log holds no records, want the table and its rows")
	}
	// Commits after the checkpoint land in the new generation, after the
	// state records recovery replays first.
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
	// Reopen started a generation of whole records in place of the torn
	// one, so appends resume on a record boundary and a further reopen is
	// clean.
	if names, _ := fs.ReadDir("db"); !reflect.DeepEqual(names, []string{"wal-1.log"}) {
		t.Fatalf("files after reopen = %v, want [wal-1.log]", names)
	}
	data, _ := fs.ReadFile("db/wal-1.log")
	wholeRecords(t, data)
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
// — garbage, or the magic of an earlier format — is refused.
func TestCorruptHeaderRejected(t *testing.T) {
	for name, header := range map[string]string{"corrupt": "XAGWAL5\n", "TAGWAL1": "TAGWAL1\n", "TAGWAL2": "TAGWAL2\n", "TAGWAL3": "TAGWAL3\n", "TAGWAL4": "TAGWAL4\n"} {
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

// wholeRecords fails the test unless data is a log of whole records, and
// returns how many it holds.
func wholeRecords(t *testing.T, data []byte) int {
	t.Helper()
	if !bytes.HasPrefix(data, walMagic) {
		t.Fatalf("log starts %q, want the magic", data[:min(len(data), len(walMagic))])
	}
	n := 0
	for rest := data[len(walMagic):]; len(rest) > 0; n++ {
		if len(rest) < 8 || int(binary.LittleEndian.Uint32(rest)) > len(rest)-8 {
			t.Fatalf("record %d is torn: %d bytes left", n, len(rest))
		}
		plen := int(binary.LittleEndian.Uint32(rest))
		if crc32.ChecksumIEEE(rest[8:8+plen]) != binary.LittleEndian.Uint32(rest[4:]) {
			t.Fatalf("record %d fails its checksum", n)
		}
		rest = rest[8+plen:]
	}
	return n
}

// TestOpenReadsNewestGenerationOnly: beside the newest generation, an
// older one — even one with a garbage body — and a checkpoint's leftover
// .tmp file are not read, and the reopen removes them.
func TestOpenReadsNewestGenerationOnly(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, -1)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1)")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO t VALUES (2)")
	want := dumpString(t, db)
	closeDB(t, db)
	fs.mu.Lock()
	fs.files["db/wal-0.log"] = &memFile{data: append(slices.Clone(walMagic), "garbage, not a record"...)}
	fs.files["db/wal-2.log.tmp"] = &memFile{data: []byte("TAGW")}
	fs.mu.Unlock()

	db2 := openWalDB(t, fs, -1)
	defer closeDB(t, db2)
	if got := dumpString(t, db2); got != want {
		t.Errorf("recovered dump differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if names, _ := fs.ReadDir("db"); !reflect.DeepEqual(names, []string{"wal-2.log"}) {
		t.Errorf("files after reopen = %v, want [wal-2.log]", names)
	}
}

// TestCheckpointKeepsEdgeValues: values whose SQL text does not read back
// as themselves — ±Inf, −2⁶³ — in a column of every type survive a
// checkpoint and a reopen Identical.
func TestCheckpointKeepsEdgeValues(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, -1)
	loadEdgeValues(db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeDB(t, db)
	db2 := openWalDB(t, fs, -1)
	defer closeDB(t, db2)
	want := NewDatabase()
	loadEdgeValues(want)
	sameEdgeRows(t, want, db2)
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

	// A statement runs before the next is parsed: an error running one is
	// the script's error even when a later statement would not parse, and
	// a syntax error stops the script before the statements after it run.
	for script, want := range map[string]ErrorCode{
		"INSERT INTO ok VALUES (2); INSERT INTO nosuch VALUES (1); SELEC oops;": ErrNoTable,
		"INSERT INTO ok VALUES (2); SELEC oops; INSERT INTO nosuch VALUES (1);": ErrParse,
	} {
		if err := db.LoadScript(script); CodeOf(err) != want {
			t.Errorf("LoadScript(%q) error = %v, want %v", script, err, want)
		}
	}
	if got := queryStrings(t, db, "SELECT x FROM ok"); len(got) != 1 {
		t.Errorf("failed scripts left rows %v, want [[1]]", got)
	}

	// A script cannot begin or end the transaction it runs in: a BEGIN,
	// COMMIT or ROLLBACK anywhere in it refuses the whole script, in memory
	// and durably, where a reopen recovers the state from before it.
	for _, durable := range []bool{false, true} {
		for _, mid := range []string{"BEGIN", "COMMIT", "ROLLBACK"} {
			fs := newMemFS()
			db := NewDatabase()
			if durable {
				db = openWalDB(t, fs, -1)
			}
			db.MustExec("CREATE TABLE t (a INTEGER)")
			db.MustExec("INSERT INTO t VALUES (1)")
			before := dumpString(t, db)
			script := "INSERT INTO t VALUES (2); CREATE TABLE s (a INTEGER); " + mid + "; INSERT INTO s VALUES (1);"
			if err := db.LoadScript(script); CodeOf(err) != ErrMisuse {
				t.Errorf("durable=%v: LoadScript(%q) error = %v, want ErrMisuse", durable, script, err)
			}
			if after := dumpString(t, db); after != before {
				t.Errorf("durable=%v: a script with %s applied part of itself:\n%s", durable, mid, after)
			}
			if _, err := db.Query("SELECT * FROM s"); CodeOf(err) != ErrNoTable {
				t.Errorf("durable=%v: the table of a script with %s exists (err %v)", durable, mid, err)
			}
			if !durable {
				continue
			}
			closeDB(t, db)
			db = openWalDB(t, fs, -1)
			if after := dumpString(t, db); after != before {
				t.Errorf("a reopen after a script with %s recovered:\n%s\nwant\n%s", mid, after, before)
			}
			closeDB(t, db)
		}
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

// slotRows lists table name's live rows as "id: row" lines, by slot id.
func slotRows(t *testing.T, db *Database, name string) []string {
	t.Helper()
	tbl, err := db.lookupTable(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for id := range int(tbl.n.Load()) {
		if r := latestRowOf(tbl, id); r != nil {
			out = append(out, fmt.Sprintf("%d: %v", id, r))
		}
	}
	return out
}

// TestReopenKeepsSlots: a reopened heap is the heap that closed. Around a
// vacuumed delete, a rolled-back insert, an update and three identical
// rows, every live row comes back at the slot id it had, replayed from
// commit records or from a checkpoint's state records, and a scan without
// ORDER BY returns the same rows in the same order.
func TestReopenKeepsSlots(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		t.Run(map[bool]string{false: "commit records", true: "state records"}[checkpoint], func(t *testing.T) {
			fs := newMemFS()
			db := openWalDB(t, fs, -1)
			db.MustExec("CREATE TABLE t (a INTEGER, s TEXT)")
			db.MustExec("CREATE INDEX idx_t_a ON t (a)")
			db.MustExec("INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
			db.MustExec("DELETE FROM t WHERE a = 2")
			if db.Vacuum() == 0 {
				t.Fatal("the vacuum reclaimed nothing")
			}
			tx := db.Begin()
			if _, err := tx.Exec("INSERT INTO t VALUES (9, 'ghost')"); err != nil {
				t.Fatal(err)
			}
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
			db.MustExec("INSERT INTO t VALUES (7, 'same'), (7, 'same'), (7, 'same')")
			db.MustExec("UPDATE t SET s = 'THREE' WHERE a = 3")
			db.MustExec("DELETE FROM t WHERE a = 1")
			if checkpoint {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			slots, scan := slotRows(t, db, "t"), queryStrings(t, db, "SELECT a, s FROM t")
			if want := []string{"2: [3 'THREE']", "4: [7 'same']", "5: [7 'same']", "6: [7 'same']"}; !reflect.DeepEqual(slots, want) {
				t.Fatalf("slots before Close = %q, want %q", slots, want)
			}
			closeDB(t, db)

			db2 := openWalDB(t, fs, -1)
			defer closeDB(t, db2)
			if got := slotRows(t, db2, "t"); !reflect.DeepEqual(got, slots) {
				t.Errorf("slots after reopen = %q, want %q", got, slots)
			}
			if got := queryStrings(t, db2, "SELECT a, s FROM t"); !reflect.DeepEqual(got, scan) {
				t.Errorf("scan after reopen = %q, want %q", got, scan)
			}
			if got := queryStrings(t, db2, "SELECT s FROM t WHERE a = 7"); len(got) != 3 {
				t.Errorf("index probe after reopen = %q, want the three identical rows", got)
			}
		})
	}
}

// TestReplayRejectsBadSlots: a row op whose slot id the heap it replays
// into could not have logged — a DELETE or UPDATE past the slots or of a
// slot with no live row, an INSERT below the slot count or at the row-id
// limit — is refused with ErrIO, never a panic. The log holds slots 0-4:
// 1 deleted, 3 an empty slot left by a rolled-back insert.
func TestReplayRejectsBadSlots(t *testing.T) {
	cases := []struct {
		name string
		op   walOp
	}{
		{"delete past the slots", walOp{kind: 'D', id: 5}},
		{"delete of a deleted row", walOp{kind: 'D', id: 1}},
		{"delete of an empty slot", walOp{kind: 'D', id: 3}},
		{"delete past every id", walOp{kind: 'D', id: math.MaxUint32}},
		{"update past the slots", walOp{kind: 'U', id: 1 << 20, row: Row{Int(0)}}},
		{"update of a deleted row", walOp{kind: 'U', id: 1, row: Row{Int(0)}}},
		{"update of an empty slot", walOp{kind: 'U', id: 3, row: Row{Int(0)}}},
		{"update with too few values", walOp{kind: 'U', id: 0, row: Row{}}},
		{"insert into a live slot", walOp{kind: 'I', id: 4, row: Row{Int(0)}}},
		{"insert into an empty slot", walOp{kind: 'I', id: 3, row: Row{Int(0)}}},
		{"insert at the row-id limit", walOp{kind: 'I', id: math.MaxUint32, row: Row{Int(0)}}},
	}
	setup := func(t *testing.T, op walOp) *memFS {
		fs := newMemFS()
		db := openWalDB(t, fs, -1)
		db.MustExec("CREATE TABLE t (a INTEGER)")
		db.MustExec("INSERT INTO t VALUES (1), (2), (3)")
		db.MustExec("DELETE FROM t WHERE a = 2")
		tx := db.Begin()
		if _, err := tx.Exec("INSERT INTO t VALUES (9)"); err != nil {
			t.Fatal(err)
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		db.MustExec("INSERT INTO t VALUES (5)")
		op.table = "t"
		if _, _, err := db.wal.appendCommit([]walOp{op}); err != nil {
			t.Fatal(err)
		}
		closeDB(t, db)
		return fs
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Open("db", withWAL(setup(t, c.op), -1)); CodeOf(err) != ErrIO {
				t.Errorf("Open = %v, want ErrIO", err)
			}
		})
	}
	// The same log with a well-formed op past the end recovers, padded.
	db := openWalDB(t, setup(t, walOp{kind: 'I', id: 9, row: Row{Int(10)}}), -1)
	defer closeDB(t, db)
	if got, want := slotRows(t, db, "t"), []string{"0: [1]", "2: [3]", "4: [5]", "9: [10]"}; !reflect.DeepEqual(got, want) {
		t.Errorf("slots = %q, want %q", got, want)
	}
}

// TestCheckpointAfterCloseRefused: Checkpoint on a closed database is
// refused with ErrMisuse and writes no generation.
func TestCheckpointAfterCloseRefused(t *testing.T) {
	fs := newMemFS()
	db := openWalDB(t, fs, -1)
	db.MustExec("CREATE TABLE t (a INTEGER)")
	closeDB(t, db)
	before, err := fs.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); CodeOf(err) != ErrMisuse {
		t.Fatalf("Checkpoint after Close = %v, want ErrMisuse", err)
	}
	if after, _ := fs.ReadDir("db"); !reflect.DeepEqual(after, before) {
		t.Errorf("files after a refused Checkpoint = %v, want %v", after, before)
	}
}

// TestDecodeSharesTableName: a record of row ops of one table copies the
// table's name once, so decoding it allocates a row per op and a constant.
func TestDecodeSharesTableName(t *testing.T) {
	const n = 1000
	payload, next := binary.LittleEndian.AppendUint32(nil, n), 0
	for i := range n {
		payload = appendWalOp(payload, walOp{kind: 'I', table: "films", id: i, row: Row{Int(int64(i))}}, &next)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if ops, err := decodeRecord(payload); err != nil || len(ops) != n {
			t.Fatalf("decoded %d ops, err %v", len(ops), err)
		}
	})
	if allocs > n+3 {
		t.Errorf("decoding %d ops allocates %.0f times, want at most %d", n, allocs, n+3)
	}
}

// FuzzWALRecord: a record's payload comes from outside the program.
// decodeRecord never panics on one and returns its ops or ErrIO, and the
// ops it returns re-encode to a payload that decodes to the same ops.
func FuzzWALRecord(f *testing.F) {
	for _, ops := range [][]walOp{
		{{kind: 'S', sql: "CREATE TABLE t (a INTEGER, b TEXT)"}},
		{{kind: 'I', table: "t", id: 3, row: Row{Int(-1), Text("x"), Float(2.5), Bool(true), Null}}},
		{{kind: 'D', table: "t", id: 300}},
		{{kind: 'U', table: "t", id: 1 << 31, row: Row{Int(7), Text("")}}},
		{{kind: 'I', table: "t", id: 0, row: Row{Int(1)}}, {kind: 'I', table: "t", id: 1, row: Row{Int(2)}},
			{kind: 'U', table: "u", id: 0, row: Row{Null}}, {kind: 'D', table: "t", id: 0}},
	} {
		f.Add(encodeRecordPayload(ops))
	}
	for _, payload := range outOfRangeIDs() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		ops, err := decodeRecord(payload)
		if err != nil {
			if CodeOf(err) != ErrIO {
				t.Fatalf("decode error %v, want ErrIO", err)
			}
			return
		}
		again, err := decodeRecord(encodeRecordPayload(ops))
		if err != nil || len(again) != len(ops) {
			t.Fatalf("re-encoded %d ops decode to %d, err %v", len(ops), len(again), err)
		}
		for i := range ops {
			if !sameOp(again[i], ops[i]) {
				t.Fatalf("op %d: %+v re-decodes as %+v", i, ops[i], again[i])
			}
		}
	})
}

// outOfRangeIDs returns record payloads whose last row op's id falls
// outside [0, 2³²): a delta before id 0, past the top, past int64's range
// (an 11-byte varint), and one past an op at the top id.
func outOfRangeIDs() [][]byte {
	del := []byte{'D', 1, 0, 0, 0, 't'} // a DELETE from t, less its id
	var out [][]byte
	for _, delta := range [][]byte{
		binary.AppendVarint(nil, -1),
		binary.AppendVarint(nil, 1<<32),
		append(bytes.Repeat([]byte{0xff}, 10), 0x01),
	} {
		out = append(out, append(binary.LittleEndian.AppendUint32(nil, 1), append(del, delta...)...))
	}
	top := encodeRecordPayload([]walOp{{kind: 'D', table: "t", id: math.MaxUint32}})
	binary.LittleEndian.PutUint32(top, 2)
	return append(out, append(append(top, del...), 0))
}

// encodeRecordPayload encodes ops as a record's payload: the count, then
// the ops.
func encodeRecordPayload(ops []walOp) []byte {
	b, next := binary.LittleEndian.AppendUint32(nil, uint32(len(ops))), 0
	for _, op := range ops {
		b = appendWalOp(b, op, &next)
	}
	return b
}
