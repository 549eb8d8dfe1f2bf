package sqldb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The deterministic fault-injection harness: a fixed workload of commit
// units runs against a crashFS that fails (ENOSPC, short write) or
// "kills the process" (tear, lose) at the Nth filesystem operation, for
// every N the fault-free run needs. After each injected fault the durable
// state is reopened and must recover to a committed prefix of the
// workload: the dump must be bit-identical to the reference state either
// just before or just including the interrupted unit, and never expose a
// partial transaction.
//
// The harness is only trusted because TestCrashMatrixDetects* prove it
// fails when recovery is deliberately broken (the faultWAL* values of debugFault).
//
// Determinism: the workload runs with automatic checkpoints disabled and explicit Checkpoint units, so every filesystem
// operation is issued synchronously by the workload goroutine at a commit
// point — the Nth operation is the same operation on every run.

const (
	unitSQL        = iota // one autocommit statement
	unitTxn               // explicit transaction, committed
	unitRollback          // explicit transaction, rolled back (no fs ops)
	unitCheckpoint        // explicit Checkpoint() call
	unitSeal              // Vacuum then Seal: no fs ops, no logical effect
)

type crashUnit struct {
	kind int
	sqls []string
}

// crashWorkload exercises every kind of unit and every recovery path:
// autocommit DDL, autocommit batches, multi-op transactions (one mixing
// DDL and DML), a rolled-back transaction (with DDL), a failed statement
// (a constraint violation mid-INSERT, which applies and logs nothing),
// duplicate rows (a DELETE or UPDATE of one of them replays at the slot id
// it names), NULLs and floats, and a checkpoint in the middle so later
// units replay on the slots its state records put back.
func crashWorkload() []crashUnit {
	return []crashUnit{
		{unitSQL, []string{"CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, s TEXT, f REAL)"}},
		{unitSQL, []string{"CREATE INDEX idx_t_k ON t (k)"}},
		{unitSQL, []string{"INSERT INTO t VALUES (1, 1, 'one', 1.5), (2, 2, 'two', NULL), (3, 1, 'three', 3.5)"}},
		{unitSQL, []string{"CREATE TABLE dup (v INTEGER, w TEXT)"}},
		{unitSQL, []string{"INSERT INTO dup VALUES (7, 'same'), (7, 'same'), (7, 'same')"}},
		{unitTxn, []string{
			"UPDATE t SET s = 'ONE' WHERE k = 1",
			"DELETE FROM dup WHERE v = 7",
			"INSERT INTO t VALUES (4, 4, 'four', NULL)",
		}},
		{unitRollback, []string{
			"INSERT INTO t VALUES (99, 9, 'ghost', 0.0)",
			"CREATE TABLE ghost (x INTEGER)",
			"DROP TABLE dup",
		}},
		// Second VALUES row violates the primary key: nothing of it is
		// applied or logged.
		{unitSQL, []string{"INSERT INTO t VALUES (5, 5, 'five', 5.0), (1, 1, 'dup-pk', 0.0)"}},
		{unitCheckpoint, nil},
		{unitSQL, []string{"UPDATE t SET k = k + 10 WHERE k <= 2"}},
		{unitSQL, []string{"INSERT INTO dup VALUES (8, 'twin'), (8, 'twin')"}},
		{unitSQL, []string{"DELETE FROM t WHERE id = 2"}},
		{unitTxn, []string{
			"CREATE TABLE mix (a INTEGER, b TEXT)",
			"INSERT INTO mix VALUES (1, 'x'), (2, 'y'), (1, 'z')",
			"CREATE INDEX idx_mix_a ON mix (a)",
		}},
		{unitTxn, []string{
			"INSERT INTO dup VALUES (9, 'z')",
			"UPDATE dup SET w = 'Z' WHERE v = 9",
			"DELETE FROM dup WHERE v = 8",
		}},
		{unitSQL, []string{"DROP TABLE dup"}},
		{unitSQL, []string{"INSERT INTO t VALUES (6, 6, 'six', 6.0)"}},
	}
}

func mustDump(db *Database) string {
	var b strings.Builder
	if err := db.Dump(&b); err != nil {
		panic(err)
	}
	return b.String()
}

// isInjectedErr reports whether err originates from the fault injector
// (directly or wrapped as the typed ErrIO every durability failure
// surfaces as).
func isInjectedErr(err error) bool {
	return CodeOf(err) == ErrIO || errors.Is(err, errSimCrash) || errors.Is(err, errNoSpace)
}

// applyRefUnit replays one unit on the in-memory reference database,
// mirroring runCrashUnits exactly: engine errors are deterministic and
// leave the same state on both sides.
func applyRefUnit(db *Database, u crashUnit) {
	switch u.kind {
	case unitSQL:
		_, _ = db.Exec(u.sqls[0])
	case unitTxn:
		tx := db.Begin()
		for _, s := range u.sqls {
			_, _ = tx.Exec(s)
		}
		_ = tx.Commit()
	case unitRollback:
		tx := db.Begin()
		for _, s := range u.sqls {
			_, _ = tx.Exec(s)
		}
		_ = tx.Rollback()
	case unitCheckpoint:
		// No logical effect.
	case unitSeal:
		db.Vacuum()
		db.Seal()
	}
}

// referenceDumps returns refs[k] = the dump of the state after the first
// k units, computed on a plain in-memory database.
func referenceDumps(units []crashUnit) []string {
	db := NewDatabase()
	refs := []string{mustDump(db)}
	for _, u := range units {
		applyRefUnit(db, u)
		refs = append(refs, mustDump(db))
	}
	return refs
}

// runCrashUnits executes units in order until the first injected I/O
// failure, returning how many units completed before it (and the error).
// Deterministic engine errors do not stop the run. unitSQL units hold a
// single statement, so every unit is all-or-nothing in the log.
func runCrashUnits(db *Database, units []crashUnit) (int, error) {
	for i, u := range units {
		var err error
		switch u.kind {
		case unitSQL:
			_, err = db.Exec(u.sqls[0])
		case unitTxn:
			tx := db.Begin()
			for _, s := range u.sqls {
				_, _ = tx.Exec(s)
			}
			err = tx.Commit()
		case unitRollback:
			tx := db.Begin()
			for _, s := range u.sqls {
				_, _ = tx.Exec(s)
			}
			err = tx.Rollback()
		case unitCheckpoint:
			err = db.Checkpoint()
		case unitSeal:
			db.Vacuum()
			db.Seal()
		}
		if err != nil && isInjectedErr(err) {
			return i, err
		}
	}
	return len(units), nil
}

func crashModeName(mode int) string {
	switch mode {
	case faultENOSPC:
		return "enospc"
	case faultShortWrite:
		return "shortwrite"
	case faultCrashTear:
		return "tear"
	case faultCrashLose:
		return "lose"
	}
	return "?"
}

func openOnFS(fs walFS) (*Database, error) {
	return Open("db", withWAL(fs, -1))
}

// sealedCrashWorkload is the matrix's workload over a table of two sealed
// blocks: DML rehydrates one block in an autocommit statement and the other
// in a transaction (with a deleted row, which seals again as a hole),
// a checkpoint is taken half sealed, both blocks seal again, a rolled-back
// update rehydrates one, a second checkpoint follows, and full-scan and
// range DML run over sealed and rehydrated blocks alike.
func sealedCrashWorkload() []crashUnit {
	var load strings.Builder
	load.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < 2*segBlockSlots; i++ {
		if i > 0 {
			load.WriteString(", ")
		}
		fmt.Fprintf(&load, "(%d, %d, 'w%d', %d.5)", i, i%7, i%13, i)
	}
	return []crashUnit{
		{unitSQL, []string{"CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER, s TEXT, f REAL)"}},
		{unitSQL, []string{load.String()}},
		{unitSeal, nil},
		{unitSQL, []string{"UPDATE big SET k = k + 100 WHERE id = 5"}},
		{unitTxn, []string{"DELETE FROM big WHERE id = 1500", "UPDATE big SET s = 'x' WHERE id = 1501"}},
		{unitCheckpoint, nil},
		{unitSeal, nil},
		{unitRollback, []string{"UPDATE big SET k = -1 WHERE id = 10"}},
		{unitSeal, nil},
		{unitCheckpoint, nil},
		{unitSQL, []string{"UPDATE big SET f = f * 2 WHERE k = 3"}},
		{unitSQL, []string{"DELETE FROM big WHERE id BETWEEN 1100 AND 1120"}},
		{unitSQL, []string{"INSERT INTO big VALUES (5000, 1, 'new', 0.5)"}},
	}
}

// crashMatrix runs the workload once per injection point and checks the
// recovery contract at each, returning an error describing the first
// violation (nil when every crash point recovers to an acceptable
// committed prefix). It is a function, not a test, so the Detects* tests
// can assert that breaking recovery makes it fail.
func crashMatrix(mode int) error { return crashMatrixOf(crashWorkload(), mode) }

// crashMatrixOf is crashMatrix over any workload. A recovered database must
// also dump the same once its cold blocks are sealed.
func crashMatrixOf(units []crashUnit, mode int) error {
	refs := referenceDumps(units)

	// Fault-free run: sizes the matrix and validates the reference model
	// (statement replay and row-image recovery must agree bit for bit).
	free := newCrashFS(0, mode)
	db, err := openOnFS(free)
	if err != nil {
		return fmt.Errorf("fault-free open: %w", err)
	}
	if i, err := runCrashUnits(db, units); err != nil {
		return fmt.Errorf("fault-free run failed at unit %d: %w", i, err)
	}
	final := mustDump(db)
	if err := db.Close(); err != nil {
		return fmt.Errorf("fault-free close: %w", err)
	}
	if final != refs[len(units)] {
		return fmt.Errorf("reference model diverges from live state:\n--- live ---\n%s--- ref ---\n%s", final, refs[len(units)])
	}
	db, err = openOnFS(free.afterCrash())
	if err != nil {
		return fmt.Errorf("fault-free reopen: %w", err)
	}
	recovered := mustDump(db)
	_ = db.Close()
	if recovered != final {
		return fmt.Errorf("fault-free recovery diverges:\n--- recovered ---\n%s--- live ---\n%s", recovered, final)
	}
	total := free.ops()

	for fail := 1; fail <= total; fail++ {
		fs := newCrashFS(fail, mode)
		completed := 0
		db, err := openOnFS(fs)
		if err == nil {
			completed, err = runCrashUnits(db, units)
			_ = db.Close() // may fail on a crashed/poisoned store
		} else if !isInjectedErr(err) {
			return fmt.Errorf("crash point %d/%s: open failed with non-injected error: %w", fail, crashModeName(mode), err)
		}
		if err != nil && !isInjectedErr(err) {
			return fmt.Errorf("crash point %d/%s: non-injected error: %w", fail, crashModeName(mode), err)
		}

		rdb, rerr := openOnFS(fs.afterCrash())
		if rerr != nil {
			return fmt.Errorf("crash point %d/%s: recovery failed: %w", fail, crashModeName(mode), rerr)
		}
		got := mustDump(rdb)
		rdb.Seal()
		if sealed := mustDump(rdb); sealed != got {
			return fmt.Errorf("crash point %d/%s: sealing the recovered database changed its dump:\n--- before ---\n%s--- after ---\n%s",
				fail, crashModeName(mode), got, sealed)
		}
		if cerr := rdb.Close(); cerr != nil {
			return fmt.Errorf("crash point %d/%s: close after recovery: %w", fail, crashModeName(mode), cerr)
		}
		// Acceptable states: the prefix before the interrupted unit, or
		// including it (a fault after the bytes landed — e.g. at fsync —
		// legitimately leaves the unit durable). Never anything else, and
		// never a torn mixture.
		lo := refs[completed]
		hi := refs[min(completed+1, len(units))]
		if got != lo && got != hi {
			return fmt.Errorf("crash point %d/%s (unit %d interrupted): recovered state matches neither acceptable prefix\n--- recovered ---\n%s--- without unit %d ---\n%s--- with unit %d ---\n%s",
				fail, crashModeName(mode), completed, got, completed, lo, completed, hi)
		}
	}
	return nil
}

func TestCrashMatrixTear(t *testing.T) {
	if err := crashMatrix(faultCrashTear); err != nil {
		t.Fatal(err)
	}
}

func TestCrashMatrixLose(t *testing.T) {
	if err := crashMatrix(faultCrashLose); err != nil {
		t.Fatal(err)
	}
}

func TestCrashMatrixENOSPC(t *testing.T) {
	if err := crashMatrix(faultENOSPC); err != nil {
		t.Fatal(err)
	}
}

func TestCrashMatrixShortWrite(t *testing.T) {
	if err := crashMatrix(faultShortWrite); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMatrixSealed runs the matrix, in every fault mode, over a table
// whose blocks are sealed — the only copy of their rows — rehydrated by
// DML, checkpointed and sealed again: what recovery reads back was written
// from sealed blocks and from rows rehydrated out of them.
func TestCrashMatrixSealed(t *testing.T) {
	units := sealedCrashWorkload()
	db := NewDatabase()
	for _, u := range units {
		applyRefUnit(db, u)
	}
	if db.Stats().SegmentsSealed < 4 || rehydrations(db) < 3 {
		t.Fatalf("the workload sealed %d blocks and rehydrated %d, want both blocks sealed twice and rehydrated",
			db.Stats().SegmentsSealed, rehydrations(db))
	}
	for _, mode := range []int{faultCrashTear, faultCrashLose, faultENOSPC, faultShortWrite} {
		if err := crashMatrixOf(units, mode); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashMatrixDetectsTornApplyBug proves the harness catches a recovery
// that applies a torn record: with the debug switch set, the ops a crash
// left half written are applied, a partial unit surfaces after reopen, and
// the matrix must notice.
func TestCrashMatrixDetectsTornApplyBug(t *testing.T) {
	debugFault = faultWALApplyTorn
	defer func() { debugFault = noFault }()
	if err := crashMatrix(faultCrashTear); err == nil {
		t.Fatal("crash matrix passed while recovery applies torn records; the harness cannot detect broken recovery")
	} else {
		t.Logf("harness correctly detected the planted bug: %v", err)
	}
}

// TestCrashMatrixDetectsSkipSyncBug proves the harness catches a broken
// fsync-per-commit contract: with fsync silently skipped, a power loss drops
// commits that were acknowledged as durable.
func TestCrashMatrixDetectsSkipSyncBug(t *testing.T) {
	debugFault = faultWALSkipSync
	defer func() { debugFault = noFault }()
	if err := crashMatrix(faultCrashLose); err == nil {
		t.Fatal("crash matrix passed while fsync is skipped; the harness cannot detect lost durability")
	} else {
		t.Logf("harness correctly detected the planted bug: %v", err)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	fs := newMemFS()
	db := openWalDB(b, fs, -1)
	db.MustExec("CREATE TABLE t (a INTEGER, b TEXT)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustExec("INSERT INTO t VALUES (?, 'payload')", i)
	}
	b.StopTimer()
	closeDB(b, db)
}

func BenchmarkWALRecovery(b *testing.B) {
	fs := newMemFS()
	db := openWalDB(b, fs, -1)
	db.MustExec("CREATE TABLE t (a INTEGER, b TEXT)")
	for i := 0; i < 1000; i++ {
		db.MustExec("INSERT INTO t VALUES (?, 'payload')", i)
	}
	closeDB(b, db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open("db", withWAL(fs, -1))
		if err != nil {
			b.Fatal(err)
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
