package sqldb

import (
	"context"
	"strconv"
	"testing"
)

// TestSessionRules runs statement sequences through one Session each. Every
// step gives the tag it returns or the ErrorCode it is refused with, and the
// Status after it; a step with no SQL hands Fail an error met outside the
// engine, as a front end does for a parse error. After Close the table holds
// the rows the sequence committed, and no snapshot or transaction is left.
func TestSessionRules(t *testing.T) {
	type step struct {
		sql    string
		tag    string
		code   ErrorCode
		status byte
	}
	for _, c := range []struct {
		name  string
		steps []step
		rows  int // rows of t after Close
	}{
		{"end with none open", []step{
			{"COMMIT", "", ErrNoTxn, 'I'},
			{"ROLLBACK", "", ErrNoTxn, 'I'},
		}, 1},
		{"commit", []step{
			{"BEGIN", "BEGIN", "", 'T'},
			{"INSERT INTO t VALUES (2), (3)", "INSERT 0 2", "", 'T'},
			{"UPDATE t SET id = id + 10 WHERE id > 1", "UPDATE 2", "", 'T'},
			{"SELECT id FROM t", "SELECT 3", "", 'T'},
			{"COMMIT", "COMMIT", "", 'I'},
		}, 3},
		{"rollback", []step{
			{"BEGIN", "BEGIN", "", 'T'},
			{"DELETE FROM t", "DELETE 1", "", 'T'},
			{"CREATE TABLE u (a INTEGER)", "CREATE TABLE", "", 'T'},
			{"CREATE INDEX u_a ON u (a)", "CREATE INDEX", "", 'T'},
			{"DROP TABLE u", "DROP TABLE", "", 'T'},
			{"ROLLBACK", "ROLLBACK", "", 'I'},
		}, 1},
		{"second BEGIN fails the transaction", []step{
			{"BEGIN", "BEGIN", "", 'T'},
			{"INSERT INTO t VALUES (2)", "INSERT 0 1", "", 'T'},
			{"BEGIN", "", ErrTxnActive, 'E'},
			{"INSERT INTO t VALUES (3)", "", ErrTxnFailed, 'E'},
			{"SELECT id FROM t", "", ErrTxnFailed, 'E'},
			{"BEGIN", "", ErrTxnFailed, 'E'},
			{"COMMIT", "ROLLBACK", "", 'I'},
			{"COMMIT", "", ErrNoTxn, 'I'},
		}, 1},
		{"engine error fails the transaction", []step{
			{"BEGIN", "BEGIN", "", 'T'},
			{"INSERT INTO t VALUES (2)", "INSERT 0 1", "", 'T'},
			{"SELECT nope FROM t", "", ErrNoColumn, 'E'},
			{"ROLLBACK", "ROLLBACK", "", 'I'},
			{"INSERT INTO t VALUES (4)", "INSERT 0 1", "", 'I'},
		}, 2},
		{"outside error fails the transaction", []step{
			{"BEGIN", "BEGIN", "", 'T'},
			{"", "", ErrParse, 'E'},
			{"COMMIT", "ROLLBACK", "", 'I'},
		}, 1},
		{"errors outside a transaction fail nothing", []step{
			{"", "", ErrParse, 'I'},
			{"INSERT INTO nope VALUES (1)", "", ErrNoTable, 'I'},
			{"BEGIN", "BEGIN", "", 'T'},
			{"COMMIT", "COMMIT", "", 'I'},
		}, 1},
		{"Close rolls back", []step{
			{"BEGIN", "BEGIN", "", 'T'},
			{"INSERT INTO t VALUES (2)", "INSERT 0 1", "", 'T'},
		}, 1},
		{"Close rolls back a failed transaction", []step{
			{"BEGIN", "BEGIN", "", 'T'},
			{"INSERT INTO nope VALUES (1)", "", ErrNoTable, 'E'},
		}, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := NewDatabase()
			db.MustExec("CREATE TABLE t (id INTEGER)")
			db.MustExec("INSERT INTO t VALUES (1)")
			s := db.NewSession()
			ctx := context.Background()
			for i, st := range c.steps {
				tag, err := "", error(nil)
				switch {
				case st.sql == "":
					err = s.Fail(&Error{Code: st.code})
				default:
					stmt, perr := Parse(st.sql)
					if perr != nil {
						t.Fatal(perr)
					}
					sel, isSel := stmt.(*SelectStmt)
					if !isSel {
						tag, err = s.Exec(ctx, stmt)
						break
					}
					var rows *Rows
					if rows, err = s.Query(ctx, sel); err == nil {
						n := 0
						for rows.Next() {
							n++
						}
						tag = "SELECT " + strconv.Itoa(n)
						err = s.Fail(rows.Err())
					}
				}
				code := ErrorCode("")
				if err != nil {
					code = CodeOf(err)
				}
				if tag != st.tag || code != st.code {
					t.Fatalf("step %d %q: tag %q, err %v; want tag %q, code %q", i, st.sql, tag, err, st.tag, st.code)
				}
				if got := s.Status(); got != st.status {
					t.Fatalf("step %d %q: status %c, want %c", i, st.sql, got, st.status)
				}
			}
			s.Close()
			if s.Status() != 'I' {
				t.Errorf("status %c after Close, want I", s.Status())
			}
			if got := queryStrings(t, db, "SELECT COUNT(*) FROM t"); got[0][0] != strconv.Itoa(c.rows) {
				t.Errorf("t holds %s rows after Close, want %d", got[0][0], c.rows)
			}
			if n, active := db.LiveSnapshots(), db.Stats().ActiveTxns; n != 0 || active != 0 {
				t.Errorf("LiveSnapshots = %d, ActiveTxns = %d after Close, want 0/0", n, active)
			}
		})
	}
}

// TestSessionAdmit: Admit, which the wire asks at Parse and Bind, refuses
// every statement but COMMIT and ROLLBACK in a failed transaction, the empty
// query (nil) included, admits everything anywhere else, and allocates
// nothing to admit.
func TestSessionAdmit(t *testing.T) {
	s := NewDatabase().NewSession()
	ctx := context.Background()
	stmts := map[string]Statement{"": nil}
	for _, q := range []string{"SELECT 1", "INSERT INTO t VALUES (1)", "BEGIN", "COMMIT", "ROLLBACK"} {
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		stmts[q] = stmt
	}
	check := func(state string, failed bool) {
		t.Helper()
		for q, stmt := range stmts {
			refuse := failed && q != "COMMIT" && q != "ROLLBACK"
			if err := s.Admit(stmt); (err != nil) != refuse || refuse && CodeOf(err) != ErrTxnFailed {
				t.Errorf("%s: Admit(%q) = %v, want refused: %t", state, q, err, refuse)
			}
		}
	}
	check("no transaction", false)
	if _, err := s.Exec(ctx, stmts["BEGIN"]); err != nil {
		t.Fatal(err)
	}
	check("open transaction", false)
	if n := testing.AllocsPerRun(100, func() { s.Admit(stmts["SELECT 1"]) }); n != 0 {
		t.Errorf("Admit allocates %.0f times, want 0", n)
	}
	s.Fail(&Error{Code: ErrParse})
	check("failed transaction", true)
	if tag, err := s.Exec(ctx, stmts["ROLLBACK"]); tag != "ROLLBACK" || err != nil {
		t.Fatalf("ROLLBACK: %q, %v", tag, err)
	}
	check("after ROLLBACK", false)
}
