package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tag/internal/sqldb"
)

// TestShellTransactions drives the shell's statement runner through
// BEGIN; INSERT; SELECT; <end>; SELECT. Inside the transaction the shell
// reads its own insert while a bare read does not; COMMIT publishes the
// row and ROLLBACK drops it, and nothing is left open either way.
func TestShellTransactions(t *testing.T) {
	for _, end := range []string{"ROLLBACK", "COMMIT"} {
		t.Run(end, func(t *testing.T) {
			db := sqldb.NewDatabase()
			db.MustExec("CREATE TABLE t (id INTEGER)")
			var out bytes.Buffer
			sh := &shell{db: db, out: &out}
			step := func(sql string) string {
				out.Reset()
				sh.run(sql + ";\n")
				return out.String()
			}

			if got := step("BEGIN"); got != "BEGIN\n" || sh.tx == nil {
				t.Fatalf("BEGIN printed %q, transaction open %v", got, sh.tx != nil)
			}
			if got := step("INSERT INTO t VALUES (7)"); got != "ok (1 rows affected)\n" {
				t.Fatalf("INSERT printed %q", got)
			}
			if got := step("SELECT id FROM t"); !strings.Contains(got, "7") || !strings.HasSuffix(got, "(1 rows)\n") {
				t.Fatalf("SELECT inside the transaction printed %q, want its own row 7", got)
			}
			if res, err := db.Query("SELECT id FROM t"); err != nil || len(res.Rows) != 0 {
				t.Fatalf("a bare read saw %v (err %v) of the shell's open transaction", res, err)
			}
			if got := step(end); got != end+"\n" || sh.tx != nil {
				t.Fatalf("%s printed %q, transaction open %v", end, got, sh.tx != nil)
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

// TestShellTransactionMisuse: a second BEGIN, or a COMMIT or ROLLBACK with
// no transaction open, prints an error and leaves the shell as it was; one
// text may hold a whole transaction.
func TestShellTransactionMisuse(t *testing.T) {
	db := sqldb.NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER)")
	var out bytes.Buffer
	sh := &shell{db: db, out: &out}
	misuse := fmt.Sprintf("error [%s]", sqldb.ErrMisuse)

	for _, sql := range []string{"COMMIT;", "ROLLBACK;"} {
		out.Reset()
		sh.run(sql)
		if !strings.HasPrefix(out.String(), misuse) || sh.tx != nil {
			t.Errorf("%s with no transaction printed %q, want %s", sql, out.String(), misuse)
		}
	}
	sh.run("BEGIN; INSERT INTO t VALUES (1);")
	tx := sh.tx
	out.Reset()
	sh.run("BEGIN;")
	if !strings.HasPrefix(out.String(), "error:") || sh.tx != tx {
		t.Errorf("a second BEGIN printed %q and replaced the transaction: %v", out.String(), sh.tx != tx)
	}
	out.Reset()
	sh.run("INSERT INTO t VALUES (2); COMMIT; SELECT id FROM t;")
	if got := out.String(); !strings.HasSuffix(got, "(2 rows)\n") || sh.tx != nil {
		t.Errorf("the shell's transaction did not go on after the error: %q", got)
	}
}
