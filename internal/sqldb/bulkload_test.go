package sqldb

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestCommitAfterCloseRefused: a transaction that wrote before Close is
// refused at Commit — rolled back, its latch released, nothing published —
// on a directory database, a durable one on the in-memory filesystem, and a
// plain in-memory one; a reopen finds no row either.
func TestCommitAfterCloseRefused(t *testing.T) {
	dir, fs := filepath.Join(t.TempDir(), "db"), newMemFS()
	for _, tc := range []struct {
		name string
		open func() (*Database, error) // nil: nothing to reopen
	}{
		{"dir", func() (*Database, error) { return Open(dir) }},
		{"memfs", func() (*Database, error) { return Open("db", withWAL(fs, 0)) }},
		{"memory", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := NewDatabase()
			if tc.open != nil {
				var err error
				if db, err = tc.open(); err != nil {
					t.Fatal(err)
				}
			}
			db.MustExec("CREATE TABLE t (a INTEGER)")
			tx := db.Begin()
			if _, err := tx.Exec("INSERT INTO t VALUES (1)"); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); CodeOf(err) != ErrMisuse {
				t.Fatalf("Commit after Close: err = %v, want ErrMisuse", err)
			}
			if err := tx.Rollback(); CodeOf(err) != ErrMisuse {
				t.Errorf("Rollback after a refused Commit: err = %v, want ErrMisuse", err)
			}
			count := func(db *Database) int64 {
				res, err := db.Query("SELECT COUNT(*) FROM t")
				if err != nil {
					t.Fatal(err)
				}
				return res.Rows[0][0].AsInt()
			}
			if n := count(db); n != 0 {
				t.Errorf("COUNT(*) on the closed handle = %d, want 0", n)
			}
			if len(db.writeMu) != 0 {
				t.Fatal("the refused transaction still holds the writer latch")
			}
			if tc.open == nil {
				return
			}
			re, err := tc.open()
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if n := count(re); n != 0 {
				t.Errorf("COUNT(*) after reopen = %d, want 0", n)
			}
		})
	}
}

// TestUniqueViolationNamesFirstColumn: a row that breaks several UNIQUE
// columns is reported under the first of them in column order, by every
// statement that checks — on fresh databases, whose index sets are built
// anew each time.
func TestUniqueViolationNamesFirstColumn(t *testing.T) {
	cases := []struct {
		name string
		run  func(db *Database) error
		want string
	}{
		{"insert", func(db *Database) error {
			_, err := db.Exec("INSERT INTO u VALUES (9, 10, 20, 30)")
			return err
		}, "u.a ="},
		{"insert-later-columns", func(db *Database) error {
			_, err := db.Exec("INSERT INTO u VALUES (9, 99, 21, 31)")
			return err
		}, "u.b ="},
		{"update-one", func(db *Database) error {
			_, err := db.Exec("UPDATE u SET a = 10, b = 20, c = 30 WHERE id = 2")
			return err
		}, "u.a ="},
		{"update-many", func(db *Database) error {
			_, err := db.Exec("UPDATE u SET a = a - 1, b = b - 1, c = c - 1 WHERE id > 1")
			return err
		}, "u.a ="},
		{"update-many-at-end", func(db *Database) error {
			_, err := db.Exec("UPDATE u SET a = 10, b = 20, c = 30 WHERE id IN (SELECT id FROM u WHERE id > 1)")
			return err
		}, "u.a ="},
		{"insert-rows", func(db *Database) error {
			return db.InsertRows("u", [][]any{{9, 10, 20, 30}})
		}, "u.a ="},
	}
	for run := 0; run < 20; run++ {
		for _, tc := range cases {
			db := NewDatabase()
			db.MustExec("CREATE TABLE u (id INTEGER PRIMARY KEY, a INTEGER UNIQUE, b INTEGER UNIQUE, c INTEGER UNIQUE)")
			db.MustExec("INSERT INTO u VALUES (1, 10, 20, 30), (2, 11, 21, 31), (3, 12, 22, 32)")
			err := tc.run(db)
			if CodeOf(err) != ErrConstraint || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run %d, %s: err = %v, want a UNIQUE violation naming %q", run, tc.name, err, tc.want)
			}
		}
	}
}

// sealWorkerRows are ≥ 8 blocks of rows whose columns take every encoding:
// ints, decimal and raw floats, dictionary and all-distinct text, bools,
// mixed kinds, and NULLs in each.
func sealWorkerRows() [][]any {
	rows := make([][]any, 8*segBlockSlots+37)
	for i := range rows {
		var k, dec, raw, dict, uniq, flag, mixed any = i % 13, float64(i%1000) / 100, math.Sqrt(float64(i)),
			fmt.Sprint("d", i%7), fmt.Sprint("u", i), i%3 == 0, any(i)
		if i%2 == 0 {
			mixed = fmt.Sprint("m", i%5)
		}
		switch i % 11 {
		case 1:
			k, dec = nil, nil
		case 5:
			raw, dict, flag = nil, nil, nil
		case 7:
			uniq, mixed = nil, nil
		}
		rows[i] = []any{i, k, dec, raw, dict, uniq, flag, mixed}
	}
	return rows
}

// TestSealWorkerCountIndependent: sealing on one worker and on four yields
// the same blocks, bit for bit, and the same dump, and no worker outlives
// Seal.
func TestSealWorkerCountIndependent(t *testing.T) {
	rows := sealWorkerRows()
	var blocks [][]*segBlock
	var dumps []string
	for _, workers := range []int{1, 4} {
		db := NewDatabase(WithMaxWorkers(workers))
		db.sealing.Store(true) // the background sealer stays out: Seal does every block
		db.MustExec("CREATE TABLE s (id INTEGER PRIMARY KEY, k INTEGER, dec REAL, raw REAL, dict TEXT, uniq TEXT, flag BOOL, mixed TEXT)")
		if err := db.InsertRows("s", rows); err != nil {
			t.Fatal(err)
		}
		if n := db.Seal(); n != 8*segBlockSlots {
			t.Fatalf("workers=%d: Seal() sealed %d rows, want %d", workers, n, 8*segBlockSlots)
		}
		if n := LiveParallelWorkers(); n != 0 {
			t.Fatalf("workers=%d: LiveParallelWorkers() = %d after Seal, want 0", workers, n)
		}
		tbl, err := db.Table("s")
		if err != nil {
			t.Fatal(err)
		}
		blocks, dumps = append(blocks, tbl.blocks()), append(dumps, mustDump(db))
	}
	if !reflect.DeepEqual(blocks[0], blocks[1]) {
		t.Error("the blocks sealed on 4 workers differ from those sealed on 1")
	}
	if dumps[0] != dumps[1] {
		t.Error("the dump after sealing on 4 workers differs from the one on 1")
	}
}

// TestInsertRowsAllocsPerRow: a bulk load builds its rows in slabs, so
// InsertRows of 8,192 rows into an empty table with a primary key allocates
// a few objects a block, not one a row.
func TestInsertRowsAllocsPerRow(t *testing.T) {
	if raceDetector {
		t.Skip("the race runtime allocates on its own account")
	}
	const n = 8 * segBlockSlots
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i, i % 17, fmt.Sprint("s", i), float64(i) / 4, i%2 == 0}
	}
	best := math.Inf(1)
	for try := 0; try < 3; try++ {
		db := NewDatabase()
		db.sealing.Store(true) // no background sealer allocates meanwhile
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, s TEXT, f REAL, b BOOL)")
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := db.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.Mallocs-before.Mallocs)/n)
	}
	if best > 0.05 {
		t.Errorf("InsertRows allocates %.3f objects a row, want at most 0.05", best)
	}
}

// TestInsertRunIsOneUndoRecord: the slots one statement inserts into one
// table in a run are one undo record, so a bulk load's undo is a constant.
// A 100,000-row InsertRows leaves one; the same rows inserted one statement
// at a time inside one transaction leave one a statement, since a run never
// merges across the start a failed statement is undone to.
func TestInsertRunIsOneUndoRecord(t *testing.T) {
	const n = 100_000
	create := func() (*Database, *Table) {
		db := NewDatabase()
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
		tbl, err := db.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		return db, tbl
	}
	// InsertRows' steps, keeping hold of its transaction.
	db, tbl := create()
	qc := new(queryCtx).init(context.Background(), db)
	tx, err := db.beginWrite(qc, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = tbl.insertRows(n, func(i int, r Row) error {
		r[0], r[1] = Int(int64(i)), Int(int64(i))
		return nil
	}, qc, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tx.undo) != 1 || tx.undo[0].n != n {
		t.Errorf("a %d-row bulk insert keeps %d undo records, want one of %d slots", n, len(tx.undo), n)
	}
	if err := db.endWrite(qc, tx, nil); err != nil {
		t.Fatal(err)
	}
	qc.flush()

	db, tbl = create()
	tx = db.Begin()
	for i := range n {
		if _, err := tx.Exec("INSERT INTO t VALUES (?, ?)", i, i); err != nil {
			t.Fatal(err)
		}
	}
	if len(tx.undo) != n {
		t.Errorf("%d one-row INSERTs in a transaction keep %d undo records, want one each", n, len(tx.undo))
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tbl.liveCount(); got != n {
		t.Errorf("%d rows live after Commit, want %d", got, n)
	}
}
