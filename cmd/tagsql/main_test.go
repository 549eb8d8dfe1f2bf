package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tag/internal/sqldb"
)

func newTestShell() (*shell, *sqldb.Database, *bytes.Buffer) {
	db := sqldb.NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER)")
	var out bytes.Buffer
	return &shell{db: db, sess: db.NewSession(), out: &out}, db, &out
}

// TestShellTransactions drives the shell's statement runner through
// BEGIN; INSERT; SELECT; <end>; SELECT. Each statement prints its command
// tag, as psql does. Inside the transaction the shell reads its own insert
// while a bare read does not; COMMIT publishes the row and ROLLBACK drops
// it, and nothing is left open either way.
func TestShellTransactions(t *testing.T) {
	for _, end := range []string{"ROLLBACK", "COMMIT"} {
		t.Run(end, func(t *testing.T) {
			sh, db, out := newTestShell()
			step := func(sql string) string {
				out.Reset()
				sh.run(sql + ";\n")
				return out.String()
			}

			if got := step("BEGIN"); got != "BEGIN\n" || sh.sess.Status() != 'T' {
				t.Fatalf("BEGIN printed %q, status %c", got, sh.sess.Status())
			}
			if got := step("INSERT INTO t VALUES (7)"); got != "INSERT 0 1\n" {
				t.Fatalf("INSERT printed %q", got)
			}
			if got := step("SELECT id FROM t"); !strings.Contains(got, "7") || !strings.HasSuffix(got, "(1 rows)\n") {
				t.Fatalf("SELECT inside the transaction printed %q, want its own row 7", got)
			}
			if res, err := db.Query("SELECT id FROM t"); err != nil || len(res.Rows) != 0 {
				t.Fatalf("a bare read saw %v (err %v) of the shell's open transaction", res, err)
			}
			if got := step(end); got != end+"\n" || sh.sess.Status() != 'I' {
				t.Fatalf("%s printed %q, status %c", end, got, sh.sess.Status())
			}
			want := "(0 rows)\n"
			if end == "COMMIT" {
				want = "(1 rows)\n"
			}
			if got := step("SELECT id FROM t"); !strings.HasSuffix(got, want) {
				t.Fatalf("SELECT after %s printed %q, want %q", end, got, want)
			}
			if n, active := db.LiveSnapshots(), db.Stats().ActiveTxns; n != 0 || active != 0 {
				t.Errorf("LiveSnapshots = %d, ActiveTxns = %d after %s, want 0/0", n, active, end)
			}
		})
	}
}

// TestShellTransactionMisuse: the shell keeps the wire's rules. A COMMIT or
// ROLLBACK with no transaction open is refused (25P01). A second BEGIN is
// refused (25001) and fails the transaction, which then refuses every
// statement (25P02) until COMMIT, which rolls back and prints ROLLBACK. One
// text may hold a whole transaction, and a parse error fails one too.
func TestShellTransactionMisuse(t *testing.T) {
	sh, db, out := newTestShell()
	printed := func(code sqldb.ErrorCode) string { return fmt.Sprintf("error [%s]", code) }
	step := func(sql, want string, status byte) {
		t.Helper()
		out.Reset()
		sh.run(sql)
		if !strings.HasPrefix(out.String(), want) || sh.sess.Status() != status {
			t.Errorf("%s printed %q with status %c, want %q and %c", sql, out.String(), sh.sess.Status(), want, status)
		}
	}

	step("COMMIT;", printed(sqldb.ErrNoTxn), 'I')
	step("ROLLBACK;", printed(sqldb.ErrNoTxn), 'I')
	step("BEGIN; INSERT INTO t VALUES (1);", "BEGIN\nINSERT 0 1\n", 'T')
	step("BEGIN;", printed(sqldb.ErrTxnActive), 'E')
	step("INSERT INTO t VALUES (2);", printed(sqldb.ErrTxnFailed), 'E')
	step("SELECT id FROM t;", printed(sqldb.ErrTxnFailed), 'E')
	step("COMMIT; SELECT id FROM t;", "ROLLBACK\n", 'I')
	if !strings.HasSuffix(out.String(), "(0 rows)\n") {
		t.Errorf("the failed transaction's COMMIT kept its rows: %q", out.String())
	}

	step("BEGIN; INSERT INTO t VALUES (3);", "BEGIN\n", 'T')
	step("SELEC 1;", printed(sqldb.ErrParse), 'E')
	step("ROLLBACK;", "ROLLBACK\n", 'I')
	for code, state := range map[sqldb.ErrorCode]string{sqldb.ErrTxnActive: "25001", sqldb.ErrNoTxn: "25P01", sqldb.ErrTxnFailed: "25P02"} {
		if code.SQLState() != state {
			t.Errorf("%s reports SQLSTATE %s, want %s", code, code.SQLState(), state)
		}
	}
	if n, active := db.LiveSnapshots(), db.Stats().ActiveTxns; n != 0 || active != 0 {
		t.Errorf("LiveSnapshots = %d, ActiveTxns = %d, want 0/0", n, active)
	}
}
