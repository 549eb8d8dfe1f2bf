package sqldb

import (
	"context"
	"testing"
)

// TestStatementAtomic: a statement is all or nothing. Each case fails part
// way — a duplicate key at the third VALUES row, a function error at row 5
// of 10, a cancellation at row 2,000 of 5,000, a duplicate in a bulk load —
// and returns its error code with no affected row. The table is then as it
// was: the same Dump, index lookups that serve the pre-statement keys and
// no other, and no snapshot left registered. Every case runs autocommit and
// inside a transaction (where the statement before it stands and commits),
// in memory and on a durable memFS (where an autocommit failure appends no
// record, and a reopen recovers the same state), and once over a sealed
// table.
func TestStatementAtomic(t *testing.T) {
	const rows = 5000
	var cancel context.CancelFunc // the running case's
	load := func(db *Database, seal bool) {
		db.SetFuncs(funcMap{
			"BOOM_AT": {MaxArgs: -1, Scalar: func(args []Value) (Value, error) {
				if args[0].AsInt() == args[1].AsInt() {
					return Null, errf(ErrMisuse, "boom")
				}
				return Bool(true), nil
			}},
			"CANCEL_AT": {MaxArgs: -1, Scalar: func(args []Value) (Value, error) {
				if args[0].AsInt() == args[1].AsInt() {
					cancel()
				}
				return Bool(true), nil
			}},
		})
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
		data := make([][]any, rows)
		for i := range data {
			data[i] = []any{i, i}
		}
		if err := db.InsertRows("t", data); err != nil {
			t.Fatal(err)
		}
		if seal {
			db.Seal()
		}
	}
	cases := []struct {
		name string
		code ErrorCode
		run  func(ctx context.Context, db *Database, tx *Txn) (int, error)
	}{
		{"INSERT duplicate at row 3", ErrConstraint, execIn("INSERT INTO t VALUES (5000, 0), (5001, 0), (1, 0), (5002, 0)")},
		{"UPDATE error at row 5 of 10", ErrMisuse, execIn("UPDATE t SET id = id + 100000 WHERE id < 10 AND BOOM_AT(v, 5)")},
		{"DELETE cancelled at row 2000 of 5000", ErrCanceled, execIn("DELETE FROM t WHERE CANCEL_AT(v, 2000)")},
		{"InsertRows duplicate", ErrConstraint, func(_ context.Context, db *Database, tx *Txn) (int, error) {
			return 0, db.InsertRows("t", [][]any{{5000, 0}, {5001, 0}, {rows - 1, 0}})
		}},
	}
	// The keys a lookup must find (those below rows) or not.
	var probes []int
	for _, r := range [][2]int{{0, 11}, {1990, 2011}, {4998, 5003}, {100000, 100010}} {
		for id := r[0]; id < r[1]; id++ {
			probes = append(probes, id)
		}
	}
	configs := []struct {
		name           string
		durable, inTxn bool
		seal           bool
	}{
		{"memory/autocommit", false, false, false},
		{"memory/txn", false, true, false},
		{"durable/autocommit", true, false, false},
		{"durable/txn", true, true, false},
		{"sealed/autocommit", false, false, true},
	}
	for _, cf := range configs {
		for _, c := range cases {
			if cf.inTxn && c.name == "InsertRows duplicate" {
				continue // a bulk load is autocommit only
			}
			t.Run(cf.name+"/"+c.name, func(t *testing.T) {
				fs := newMemFS()
				db := NewDatabase()
				if cf.durable {
					db = openWalDB(t, fs, -1)
				}
				load(db, cf.seal)
				if cf.seal && db.Stats().SegmentsSealed == 0 {
					t.Fatal("the table did not seal")
				}
				var tx *Txn
				if cf.inTxn {
					// The statement before the failing one stands.
					tx = db.Begin()
					if _, err := tx.Exec("INSERT INTO t VALUES (-1, -1)"); err != nil {
						t.Fatal(err)
					}
				}
				before, appends := dumpString(t, db), db.Stats().WALAppends
				ctx, stop := context.WithCancel(context.Background())
				defer stop()
				cancel = stop
				if n, err := c.run(ctx, db, tx); CodeOf(err) != c.code || n != 0 {
					t.Fatalf("(n, err) = (%d, %v), want (0, %s)", n, err, c.code)
				}
				want := before
				if tx != nil {
					if err := tx.Commit(); err != nil {
						t.Fatal(err)
					}
					ref := NewDatabase()
					load(ref, false)
					ref.MustExec("INSERT INTO t VALUES (-1, -1)")
					want = dumpString(t, ref)
				} else if got := db.Stats().WALAppends; got != appends {
					t.Errorf("the failed statement appended %d WAL records", got-appends)
				}
				if got := dumpString(t, db); got != want {
					t.Fatalf("Dump after the failed statement differs:\n--- want ---\n%.300s\n--- got ---\n%.300s", want, got)
				}
				for _, id := range probes {
					res, err := db.Query("SELECT v FROM t WHERE id = ?", id)
					if err != nil {
						t.Fatal(err)
					}
					if want := btoi(id < rows); len(res.Rows) != want {
						t.Errorf("index lookup id=%d found %d rows, want %d", id, len(res.Rows), want)
					}
				}
				if n := db.LiveSnapshots(); n != 0 {
					t.Errorf("LiveSnapshots() = %d after the failed statement, want 0", n)
				}
				if cf.durable {
					closeDB(t, db)
					db2 := openWalDB(t, fs, -1)
					defer closeDB(t, db2)
					if got := dumpString(t, db2); got != want {
						t.Errorf("reopen recovers a different state:\n--- want ---\n%.300s\n--- got ---\n%.300s", want, got)
					}
				}
			})
		}
	}
}

// execIn returns a case runner that executes sql in tx, or autocommit when
// tx is nil.
func execIn(sql string) func(ctx context.Context, db *Database, tx *Txn) (int, error) {
	return func(ctx context.Context, db *Database, tx *Txn) (int, error) {
		if tx != nil {
			return tx.ExecContext(ctx, sql)
		}
		return db.ExecContext(ctx, sql)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
