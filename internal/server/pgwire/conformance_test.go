package pgwire

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"tag/internal/server/pgwire/pgwiretest"
	"tag/internal/sqldb"
)

// startServer boots a wire server on a loopback port over a fresh engine
// database and tears both down with the test. The cleanup asserts the
// leak-freedom contract on every test that uses it: once all sessions are
// gone, the engine must hold zero snapshots, cursors, transactions, and
// parallel workers.
func startServer(t *testing.T, opts Options, dbOpts ...sqldb.Option) (*Server, *sqldb.Database, string) {
	t.Helper()
	db := sqldb.NewDatabase(dbOpts...)
	srv := NewServer(db, opts)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
		assertNoLeaks(t, srv, db)
		db.Close()
	})
	return srv, db, lis.Addr().String()
}

// assertNoLeaks waits for every session to unwind, then checks the
// engine's resource counters.
func assertNoLeaks(t *testing.T, srv *Server, db *sqldb.Database) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveSessions() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions never drained: %d still active", srv.ActiveSessions())
		}
		time.Sleep(time.Millisecond)
	}
	if n := db.LiveSnapshots(); n != 0 {
		t.Errorf("leaked %d live snapshots", n)
	}
	st := db.Stats()
	if st.OpenCursors != 0 {
		t.Errorf("leaked %d open cursors", st.OpenCursors)
	}
	if st.ActiveTxns != 0 {
		t.Errorf("leaked %d active transactions", st.ActiveTxns)
	}
	if n := sqldb.LiveParallelWorkers(); n != 0 {
		t.Errorf("leaked %d parallel workers", n)
	}
}

func dial(t *testing.T, addr string) *pgwiretest.Conn {
	t.Helper()
	c, err := pgwiretest.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// mustQuery runs a simple query and fails the test on any server error.
func mustQuery(t *testing.T, c *pgwiretest.Conn, sql string) *pgwiretest.Result {
	t.Helper()
	res, err := c.Query(sql)
	if err != nil {
		t.Fatalf("query %q: transport error %v", sql, err)
	}
	if res.Err != nil {
		t.Fatalf("query %q: %v", sql, res.Err)
	}
	return res
}

// wireRows renders a wire result the same way the in-process harness
// renders engine rows: AsText with an explicit NULL marker, row by row.
func wireRows(res *pgwiretest.Result) []string {
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, cell := range row {
			if cell == nil {
				parts[i] = "\x00NULL"
			} else {
				parts[i] = *cell
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

// engineRows renders an in-process result identically.
func engineRows(t *testing.T, db *sqldb.Database, sql string, params ...any) []string {
	t.Helper()
	res, err := db.Query(sql, params...)
	if err != nil {
		t.Fatalf("engine query %q: %v", sql, err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			if v.IsNull() {
				parts[i] = "\x00NULL"
			} else {
				parts[i] = v.AsText()
			}
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func seedPlayers(t *testing.T, db *sqldb.Database) {
	t.Helper()
	db.MustExec(`CREATE TABLE players (id INTEGER, name TEXT, score REAL, active BOOLEAN)`)
	for i := 0; i < 25; i++ {
		name := any(fmt.Sprintf("p%02d", i))
		if i%7 == 3 {
			name = nil
		}
		db.MustExec(`INSERT INTO players VALUES (?, ?, ?, ?)`,
			i, name, float64(i%10)*1.5, i%2 == 0)
	}
}

// TestStartupHandshake covers the handshake: SSL and GSS probes declined,
// parameter statuses announced, key data issued, ready for query.
func TestStartupHandshake(t *testing.T) {
	_, _, addr := startServer(t, Options{})

	// Raw SSLRequest first, like libpq with sslmode=prefer.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	ssl := []byte{0, 0, 0, 8, 4, 210, 22, 47} // len=8, 80877103
	if _, err := nc.Write(ssl); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, 1)
	if _, err := nc.Read(resp); err != nil || resp[0] != 'N' {
		t.Fatalf("SSLRequest answer = %q, %v; want 'N'", resp[0], err)
	}
	nc.Close()

	c := dial(t, addr)
	if c.Params["server_encoding"] != "UTF8" {
		t.Errorf("server_encoding = %q", c.Params["server_encoding"])
	}
	if c.BackendPID() == 0 {
		t.Error("no BackendKeyData received")
	}
}

// TestSimpleQueryConformance runs a corpus of simple-protocol statements
// and demands results bit-identical to in-process execution of the same
// SQL on the same database.
func TestSimpleQueryConformance(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	seedPlayers(t, db)
	c := dial(t, addr)

	queries := []string{
		`SELECT id, name, score, active FROM players ORDER BY id`,
		`SELECT name FROM players WHERE score > 5 ORDER BY name DESC`,
		`SELECT count(*), sum(score), avg(score) FROM players`,
		`SELECT active, count(*) FROM players GROUP BY active ORDER BY active`,
		`SELECT DISTINCT score FROM players ORDER BY score LIMIT 5`,
		`SELECT a.id, b.id FROM players a JOIN players b ON a.id = b.id WHERE a.id < 4 ORDER BY a.id`,
		`SELECT id, CASE WHEN score > 7 THEN 'high' WHEN score > 3 THEN 'mid' ELSE 'low' END FROM players ORDER BY id`,
		`SELECT name FROM players WHERE name IS NULL`,
		`SELECT id FROM players WHERE id IN (SELECT id FROM players WHERE active) ORDER BY id`,
		`SELECT upper(name), length(name) FROM players WHERE name IS NOT NULL ORDER BY id LIMIT 7`,
	}
	for _, q := range queries {
		res := mustQuery(t, c, q)
		got := wireRows(res)
		want := engineRows(t, db, q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\nwire   = %q\nengine = %q", q, got, want)
		}
		wantTag := fmt.Sprintf("SELECT %d", len(want))
		if len(res.Tags) != 1 || res.Tags[0] != wantTag {
			t.Errorf("%s: tags = %v, want [%s]", q, res.Tags, wantTag)
		}
		if res.TxStatus != 'I' {
			t.Errorf("%s: tx status = %c, want I", q, res.TxStatus)
		}
	}
}

// TestSimpleQueryDML checks DML tags and effects through the wire.
func TestSimpleQueryDML(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	c := dial(t, addr)

	steps := []struct{ sql, tag string }{
		{`CREATE TABLE t (a INTEGER, b TEXT)`, "CREATE TABLE"},
		{`INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)`, "INSERT 0 3"},
		{`CREATE INDEX idx_a ON t (a)`, "CREATE INDEX"},
		{`UPDATE t SET b = 'z' WHERE a >= 2`, "UPDATE 2"},
		{`DELETE FROM t WHERE a = 1`, "DELETE 1"},
	}
	for _, s := range steps {
		res := mustQuery(t, c, s.sql)
		if len(res.Tags) != 1 || res.Tags[0] != s.tag {
			t.Fatalf("%s: tags = %v, want [%s]", s.sql, res.Tags, s.tag)
		}
	}
	got := engineRows(t, db, `SELECT a, b FROM t ORDER BY a`)
	want := []string{"2|z", "3|z"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("table state = %q, want %q", got, want)
	}
	res := mustQuery(t, c, `DROP TABLE t`)
	if res.Tags[0] != "DROP TABLE" {
		t.Fatalf("drop tag = %v", res.Tags)
	}
}

// TestMultiStatementSimpleQuery: one Query message carrying several
// statements produces one response per statement, one ReadyForQuery at
// the end, and stops at the first error.
func TestMultiStatementSimpleQuery(t *testing.T) {
	_, _, addr := startServer(t, Options{})
	c := dial(t, addr)

	res := mustQuery(t, c, `CREATE TABLE m (x INTEGER); INSERT INTO m VALUES (1); INSERT INTO m VALUES (2); SELECT x FROM m ORDER BY x`)
	wantTags := []string{"CREATE TABLE", "INSERT 0 1", "INSERT 0 1", "SELECT 2"}
	if !reflect.DeepEqual(res.Tags, wantTags) {
		t.Fatalf("tags = %v, want %v", res.Tags, wantTags)
	}

	// Error mid-batch: later statements do not run.
	res, err := c.Query(`INSERT INTO m VALUES (3); SELECT nope FROM m; INSERT INTO m VALUES (4)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || res.Err.Code != "42703" {
		t.Fatalf("batch error = %v, want 42703", res.Err)
	}
	rows := wireRows(mustQuery(t, c, `SELECT count(*) FROM m`))
	if !reflect.DeepEqual(rows, []string{"3"}) {
		t.Fatalf("count after aborted batch = %v, want [3]", rows)
	}
}

// TestEmptyQuery: whitespace and bare semicolons answer
// EmptyQueryResponse, not an error.
func TestEmptyQuery(t *testing.T) {
	_, _, addr := startServer(t, Options{})
	c := dial(t, addr)
	for _, q := range []string{"", "   ", ";", " ;; "} {
		res, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Empty || res.Err != nil {
			t.Errorf("query %q: empty=%v err=%v, want EmptyQueryResponse", q, res.Empty, res.Err)
		}
	}
}

// TestErrorSQLStates checks that engine error classes surface as their
// pinned SQLSTATEs through the wire.
func TestErrorSQLStates(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	db.MustExec(`CREATE TABLE e (a INTEGER)`)
	c := dial(t, addr)

	cases := []struct{ sql, state string }{
		{`SELEC 1`, "42601"},
		{`SELECT * FROM missing`, "42P01"},
		{`SELECT nope FROM e`, "42703"},
		{`SELECT nofunc(a) FROM e`, "42883"},
		// DML binds names before it looks at any row: e is empty.
		{`UPDATE e SET a = nope`, "42703"},
		{`DELETE FROM e WHERE nofunc(a) = 1`, "42883"},
		{`CREATE TABLE e (a INTEGER)`, "42P07"},
		{`INSERT INTO e VALUES (1, 2)`, "42000"},
	}
	for _, tc := range cases {
		res, err := c.Query(tc.sql)
		if err != nil {
			t.Fatalf("%s: transport error %v", tc.sql, err)
		}
		if res.Err == nil || res.Err.Code != tc.state {
			t.Errorf("%s: error = %v, want SQLSTATE %s", tc.sql, res.Err, tc.state)
		}
		if res.TxStatus != 'I' {
			t.Errorf("%s: tx status = %c, want I (autocommit errors leave idle)", tc.sql, res.TxStatus)
		}
	}
}

// TestExplicitTransactions drives BEGIN/COMMIT/ROLLBACK through the wire:
// status bytes, isolation from a second connection, rollback, and the
// failed-transaction discipline.
func TestExplicitTransactions(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	db.MustExec(`CREATE TABLE acct (id INTEGER, bal INTEGER)`)
	db.MustExec(`INSERT INTO acct VALUES (1, 100), (2, 50)`)
	c1 := dial(t, addr)
	c2 := dial(t, addr)

	res := mustQuery(t, c1, `BEGIN`)
	if res.Tags[0] != "BEGIN" || res.TxStatus != 'T' {
		t.Fatalf("BEGIN: tags=%v status=%c", res.Tags, res.TxStatus)
	}
	mustQuery(t, c1, `UPDATE acct SET bal = bal - 10 WHERE id = 1`)

	// Uncommitted writes are invisible to the other session.
	rows := wireRows(mustQuery(t, c2, `SELECT bal FROM acct WHERE id = 1`))
	if !reflect.DeepEqual(rows, []string{"100"}) {
		t.Fatalf("c2 sees uncommitted write: %v", rows)
	}
	// ...but visible inside the transaction.
	rows = wireRows(mustQuery(t, c1, `SELECT bal FROM acct WHERE id = 1`))
	if !reflect.DeepEqual(rows, []string{"90"}) {
		t.Fatalf("c1 does not see own write: %v", rows)
	}

	res = mustQuery(t, c1, `COMMIT`)
	if res.Tags[0] != "COMMIT" || res.TxStatus != 'I' {
		t.Fatalf("COMMIT: tags=%v status=%c", res.Tags, res.TxStatus)
	}
	rows = wireRows(mustQuery(t, c2, `SELECT bal FROM acct WHERE id = 1`))
	if !reflect.DeepEqual(rows, []string{"90"}) {
		t.Fatalf("c2 does not see committed write: %v", rows)
	}

	// Rollback undoes.
	mustQuery(t, c1, `BEGIN`)
	mustQuery(t, c1, `DELETE FROM acct`)
	res = mustQuery(t, c1, `ROLLBACK`)
	if res.Tags[0] != "ROLLBACK" || res.TxStatus != 'I' {
		t.Fatalf("ROLLBACK: tags=%v status=%c", res.Tags, res.TxStatus)
	}
	rows = wireRows(mustQuery(t, c1, `SELECT count(*) FROM acct`))
	if !reflect.DeepEqual(rows, []string{"2"}) {
		t.Fatalf("rollback did not undo: %v", rows)
	}

	// An embedded caller's transaction is not the wire's: an autocommit
	// statement from a socket neither joins it nor is undone by its
	// ROLLBACK, and a wire session's own BEGIN is a Txn of its own.
	etx := db.Begin()
	mustQuery(t, c1, `BEGIN`)
	mustQuery(t, c2, `INSERT INTO acct VALUES (3, 7)`)
	if err := etx.Rollback(); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, c1, `COMMIT`)
	rows = wireRows(mustQuery(t, c1, `SELECT bal FROM acct WHERE id = 3`))
	if !reflect.DeepEqual(rows, []string{"7"}) {
		t.Fatalf("autocommit INSERT beside an embedded BEGIN: %v, want it to survive the embedded ROLLBACK", rows)
	}
}

// TestFailedTransactionDiscipline: an error inside an explicit
// transaction moves it to 'E'; everything but COMMIT/ROLLBACK is refused
// with 25P02; COMMIT rolls back and reports ROLLBACK.
func TestFailedTransactionDiscipline(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	db.MustExec(`CREATE TABLE ft (a INTEGER)`)
	c := dial(t, addr)

	mustQuery(t, c, `BEGIN`)
	mustQuery(t, c, `INSERT INTO ft VALUES (1)`)
	res, _ := c.Query(`SELECT nope FROM ft`)
	if res.Err == nil || res.TxStatus != 'E' {
		t.Fatalf("error in txn: err=%v status=%c, want status E", res.Err, res.TxStatus)
	}
	res, _ = c.Query(`INSERT INTO ft VALUES (2)`)
	if res.Err == nil || res.Err.Code != "25P02" {
		t.Fatalf("statement in failed txn: %v, want 25P02", res.Err)
	}
	res = mustQuery(t, c, `COMMIT`)
	if res.Tags[0] != "ROLLBACK" || res.TxStatus != 'I' {
		t.Fatalf("COMMIT of failed txn: tags=%v status=%c, want ROLLBACK/I", res.Tags, res.TxStatus)
	}
	rows := wireRows(mustQuery(t, c, `SELECT count(*) FROM ft`))
	if !reflect.DeepEqual(rows, []string{"0"}) {
		t.Fatalf("failed txn committed rows: %v", rows)
	}

	// BEGIN inside a transaction and COMMIT/ROLLBACK outside are errors.
	mustQuery(t, c, `BEGIN`)
	res, _ = c.Query(`BEGIN`)
	if res.Err == nil || res.Err.Code != "25001" {
		t.Fatalf("nested BEGIN: %v, want 25001", res.Err)
	}
	mustQuery(t, c, `ROLLBACK`) // the nested-BEGIN error failed the txn; clear it
	res, _ = c.Query(`COMMIT`)
	if res.Err == nil || res.Err.Code != "25P01" {
		t.Fatalf("COMMIT outside txn: %v, want 25P01", res.Err)
	}
}

// TestDescribeInFailedTransaction: inside a failed transaction the session
// refuses Parse, Bind and Describe of anything but a transaction end with
// 25P02, as PostgreSQL does: Parse and Bind ask it first, and Describe of a
// SELECT, statement or portal, plans through it. After ROLLBACK the same
// Describe answers, and a ROLLBACK sent as Parse, Bind and Execute ends the
// failed transaction.
func TestDescribeInFailedTransaction(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	seedPlayers(t, db)
	c := dial(t, addr)
	fail := func() {
		t.Helper()
		if res, _ := c.Query(`SELECT nope FROM players`); res.Err == nil || res.TxStatus != 'E' {
			t.Fatalf("error in txn: err=%v status=%c, want status E", res.Err, res.TxStatus)
		}
	}
	refused := func(what string) {
		t.Helper()
		c.SendSync()
		res, err := c.Collect()
		if err != nil || res.Err == nil || res.Err.Code != "25P02" || res.Cols != nil || res.TxStatus != 'E' {
			t.Fatalf("%s in a failed txn: %v / %v, cols %v, status %c; want 25P02 and no RowDescription", what, err, res.Err, res.Cols, res.TxStatus)
		}
	}
	c.SendParse("s", `SELECT id FROM players WHERE id < ?`, nil)
	c.SendSync()
	if res, err := c.Collect(); err != nil || res.Err != nil || !bytes.Equal(res.Seq, []byte("1Z")) {
		t.Fatalf("Parse: %v / %v, seq %q", err, res.Err, res.Seq)
	}
	mustQuery(t, c, `BEGIN`)
	fail()
	c.SendParse("s2", `SELECT id FROM players`, nil)
	refused("Parse")
	c.SendBind("p", "s", []*string{pgwiretest.Str("3")})
	refused("Bind")
	c.SendDescribe('S', "s")
	refused("Describe S")
	mustQuery(t, c, `ROLLBACK`)
	c.SendDescribe('S', "s")
	c.SendSync()
	if res, err := c.Collect(); err != nil || res.Err != nil || !reflect.DeepEqual(res.Cols, []string{"id"}) {
		t.Fatalf("Describe after ROLLBACK: %v / %v, cols %v", err, res.Err, res.Cols)
	}

	// A portal bound before the error is refused at Describe too.
	mustQuery(t, c, `BEGIN`)
	c.SendBind("q", "s", []*string{pgwiretest.Str("3")})
	c.SendFlush()
	waitFor(t, c, '2')
	fail()
	c.SendDescribe('P', "q")
	refused("Describe P")
	mustQuery(t, c, `ROLLBACK`)

	// A portal suspended before the error is refused too: the error closed
	// its cursor, and running it asks the session again.
	mustQuery(t, c, `BEGIN`)
	c.SendBind("p", "s", []*string{pgwiretest.Str("3")})
	c.SendExecute("p", 1)
	c.SendFlush()
	waitFor(t, c, 's')
	fail()
	if n := db.Stats().OpenCursors; n != 0 {
		t.Errorf("%d cursors open after the error failed the txn, want 0", n)
	}
	c.SendExecute("p", 0)
	c.SendSync()
	if res, _ := c.Collect(); res.Err == nil || res.Err.Code != "25P02" || len(res.Rows) != 0 {
		t.Fatalf("Execute of a suspended portal in a failed txn: %v, %d rows; want 25P02", res.Err, len(res.Rows))
	}

	// A transaction end is admitted at every step of the extended protocol.
	c.SendParse("r", `ROLLBACK`, nil)
	c.SendBind("", "r", nil)
	c.SendExecute("", 0)
	c.SendSync()
	if res, err := c.Collect(); err != nil || res.Err != nil || !bytes.Equal(res.Seq, []byte("12CZ")) || res.TxStatus != 'I' {
		t.Fatalf("extended ROLLBACK in a failed txn: %v / %v, seq %q, status %c; want 12CZ and status I", err, res.Err, res.Seq, res.TxStatus)
	}
}

// TestCloseMessage: Close 'P' drops a portal and closes its open cursor at
// once, and Close 'S' drops a prepared statement; closing either when it is
// missing is no error. Any other kind is a protocol violation, which ends
// the connection.
func TestCloseMessage(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	seedPlayers(t, db)
	c := dial(t, addr)
	c.SendParse("s", `SELECT id FROM players`, nil)
	c.SendBind("p", "s", nil)
	c.SendExecute("p", 1)
	c.SendFlush()
	waitFor(t, c, 's') // suspended: the portal's cursor is open
	if n := db.Stats().OpenCursors; n != 1 {
		t.Fatalf("%d open cursors behind a suspended portal, want 1", n)
	}
	c.SendClose('P', "p")
	c.SendClose('P', "p")
	c.SendClose('S', "s")
	c.SendClose('S', "s")
	c.SendFlush()
	for i := 0; i < 4; i++ {
		waitFor(t, c, '3')
	}
	if n := db.Stats().OpenCursors; n != 0 {
		t.Errorf("%d open cursors after Close 'P', want 0", n)
	}
	c.SendExecute("p", 0)
	c.SendSync()
	if res, _ := c.Collect(); res.Err == nil || res.Err.Code != "34000" {
		t.Fatalf("Execute of a closed portal: %v, want 34000", res.Err)
	}
	c.SendBind("p", "s", nil)
	c.SendSync()
	if res, _ := c.Collect(); res.Err == nil || res.Err.Code != "26000" {
		t.Fatalf("Bind to a closed statement: %v, want 26000", res.Err)
	}
	if err := c.RawWrite(frameMsg('C', appendC([]byte{'X'}, "s"))); err != nil {
		t.Fatal(err)
	}
	if res, _ := c.Collect(); res.Err == nil || res.Err.Severity != "FATAL" || res.Err.Code != "08P01" {
		t.Fatalf("Close of kind X: %v, want FATAL 08P01", res.Err)
	}
}

// TestExtendedProtocol drives Parse/Bind/Describe/Execute/Sync with
// named statements, parameters, NULLs, and portal suspension.
func TestExtendedProtocol(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	seedPlayers(t, db)
	c := dial(t, addr)

	// Unnamed round trip with typed parameters, results bit-identical to
	// the engine binding the same values.
	res, err := c.ExtQuery(`SELECT id, name FROM players WHERE id < ? AND score >= ? ORDER BY id`,
		pgwiretest.Str("10"), pgwiretest.Str("1.5"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	want := engineRows(t, db, `SELECT id, name FROM players WHERE id < ? AND score >= ? ORDER BY id`, "10", "1.5")
	if got := wireRows(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("extended result:\nwire   = %q\nengine = %q", got, want)
	}
	if !reflect.DeepEqual(res.Cols, []string{"id", "name"}) {
		t.Fatalf("described cols = %v", res.Cols)
	}

	// Named statement with declared OIDs: int params decode to integers.
	if err := c.SendParse("byid", `SELECT score FROM players WHERE id = ?`, []int32{23}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendDescribe('S', "byid"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendSync(); err != nil {
		t.Fatal(err)
	}
	res, err = c.Collect()
	if err != nil || res.Err != nil {
		t.Fatalf("parse/describe: %v / %v", err, res.Err)
	}
	if !reflect.DeepEqual(res.ParamOIDs, []int32{23}) {
		t.Fatalf("param OIDs = %v, want [23]", res.ParamOIDs)
	}
	if !reflect.DeepEqual(res.Cols, []string{"score"}) {
		t.Fatalf("statement describe cols = %v", res.Cols)
	}

	// Execute the named statement twice with different parameters. The
	// declared int4 OID makes the server bind an integer, so the engine
	// comparison binds an integer too.
	for _, id := range []int{4, 9} {
		c.SendBind("", "byid", []*string{pgwiretest.Str(fmt.Sprint(id))})
		c.SendExecute("", 0)
		c.SendSync()
		res, err = c.Collect()
		if err != nil || res.Err != nil {
			t.Fatalf("execute byid(%d): %v / %v", id, err, res.Err)
		}
		want := engineRows(t, db, `SELECT score FROM players WHERE id = ?`, id)
		if got := wireRows(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("byid(%d): wire %q engine %q", id, got, want)
		}
	}

	// NULL parameter binds NULL.
	res, err = c.ExtQuery(`SELECT count(*) FROM players WHERE name = ?`, nil)
	if err != nil || res.Err != nil {
		t.Fatalf("null param: %v / %v", err, res.Err)
	}
	if got := wireRows(res); !reflect.DeepEqual(got, []string{"0"}) {
		t.Fatalf("name = NULL matched rows: %v", got)
	}

	// Portal suspension: Execute with a row limit, resume, then finish.
	c.SendParse("", `SELECT id FROM players ORDER BY id`, nil)
	c.SendBind("cur", "", nil)
	c.SendExecute("cur", 10)
	c.SendFlush()
	// Collect won't see ReadyForQuery yet; read message-level instead.
	var seen []byte
	rows := 0
	for {
		m, err := c.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, m.Type)
		if m.Type == 'D' {
			rows++
		}
		if m.Type == 's' {
			break
		}
		if m.Type == 'E' {
			t.Fatalf("suspend leg error; seq %q", seen)
		}
	}
	if rows != 10 {
		t.Fatalf("suspended after %d rows, want 10", rows)
	}
	c.SendExecute("cur", 0)
	c.SendSync()
	res, err = c.Collect()
	if err != nil || res.Err != nil {
		t.Fatalf("resume: %v / %v", err, res.Err)
	}
	if len(res.Rows) != 15 {
		t.Fatalf("resume streamed %d rows, want 15", len(res.Rows))
	}
	if len(res.Tags) != 1 || res.Tags[0] != "SELECT 25" {
		t.Fatalf("final tag = %v, want [SELECT 25]", res.Tags)
	}

	// DML through the extended protocol, with declared parameter types
	// (float8, int4) so the engine compares id as an integer.
	c.SendParse("", `UPDATE players SET score = ? WHERE id = ?`, []int32{701, 23})
	c.SendBind("", "", []*string{pgwiretest.Str("99.5"), pgwiretest.Str("3")})
	c.SendDescribe('P', "")
	c.SendExecute("", 0)
	c.SendSync()
	res, err = c.Collect()
	if err != nil || res.Err != nil {
		t.Fatalf("extended update: %v / %v", err, res.Err)
	}
	if len(res.Tags) != 1 || res.Tags[0] != "UPDATE 1" {
		t.Fatalf("update tag = %v", res.Tags)
	}
	if !res.NoData {
		t.Fatalf("describe of UPDATE did not report NoData (seq %q)", res.Seq)
	}
}

// TestDescribeOpensThePortalCursor: Describe of a bound portal opens the
// cursor Execute then streams, so a Parse/Bind/Describe/Execute/Sync cycle
// plans and runs one query, not a probe beside it.
func TestDescribeOpensThePortalCursor(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	seedPlayers(t, db)
	c := dial(t, addr)
	const sql, cycles = `SELECT id, name FROM players WHERE score >= ?`, 5
	want := engineRows(t, db, sql, "4.5")
	before := db.Stats().Queries
	for i := 0; i < cycles; i++ {
		res, err := c.ExtQuery(sql, pgwiretest.Str("4.5"))
		if err != nil || res.Err != nil {
			t.Fatalf("cycle %d: %v / %v", i, err, res.Err)
		}
		if got := wireRows(res); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(res.Cols, []string{"id", "name"}) {
			t.Fatalf("cycle %d: cols %v rows %q, want %q", i, res.Cols, got, want)
		}
	}
	if n := db.Stats().Queries - before; n != cycles {
		t.Errorf("%d ext cycles ran %d queries, want one each", cycles, n)
	}
}

// TestSuspendedPortalStreamsLentRows: a portal's cursor builds each row in
// one reused buffer, which the session encodes before it pulls the next.
// Fetched a row an Execute, over a sealed table above the pool's size gate,
// every shape a lent cursor builds that way returns the in-process rows,
// each distinct.
func TestSuspendedPortalStreamsLentRows(t *testing.T) {
	_, db, addr := startServer(t, Options{}, sqldb.WithMaxWorkers(4))
	db.MustExec("CREATE TABLE items (id INTEGER PRIMARY KEY, cat INTEGER, name TEXT, qty INTEGER)")
	db.MustExec("CREATE TABLE tags (cat INTEGER, tag TEXT)")
	items := make([][]any, 6000)
	for i := range items {
		items[i] = []any{i, i % 97, fmt.Sprint("item-", i), i * 7919 % 50}
	}
	if err := db.InsertRows("items", items); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		db.MustExec("INSERT INTO tags VALUES (?, ?)", i*7%97, fmt.Sprint("tag-", i))
	}
	db.Seal()
	c := dial(t, addr)
	for _, sql := range []string{
		"SELECT id, name, qty * 2 FROM items WHERE id BETWEEN 1000 AND 1299",
		"SELECT items.id, tags.tag FROM items JOIN tags ON items.cat = tags.cat WHERE items.qty < 3",
		"SELECT cat, COUNT(*), SUM(qty), MIN(name) FROM items GROUP BY cat",
		"SELECT DISTINCT cat, qty % 3 FROM items WHERE qty > 45",
		"SELECT id, name FROM items WHERE qty <> 7 LIMIT 80 OFFSET 5",
	} {
		want := engineRows(t, db, sql)
		c.SendParse("", sql, nil)
		c.SendBind("cur", "", nil)
		for i := 0; i <= len(want); i++ { // the last finds the portal drained
			c.SendExecute("cur", 1)
		}
		c.SendSync()
		res, err := c.Collect()
		if err != nil || res.Err != nil {
			t.Fatalf("%s: %v / %v", sql, err, res.Err)
		}
		got := wireRows(res)
		seen := make(map[string]bool, len(got))
		for _, r := range got {
			if seen[r] {
				t.Errorf("%s: row %q arrived twice", sql, r)
			}
			seen[r] = true
		}
		if len(want) < 20 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d rows a row at a time, %d in process; wire %q", sql, len(got), len(want), got)
		}
		if tag := fmt.Sprint("SELECT ", len(want)); len(res.Tags) != 1 || res.Tags[0] != tag {
			t.Errorf("%s: tags %v, want [%s]", sql, res.Tags, tag)
		}
	}
}

// TestExtendedProtocolErrors covers the extended-specific error states
// and the skip-to-Sync discipline.
func TestExtendedProtocolErrors(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	db.MustExec(`CREATE TABLE ee (a INTEGER)`)
	c := dial(t, addr)

	// Bind to a missing statement → 26000; following messages are
	// discarded until Sync.
	c.SendBind("", "ghost", nil)
	c.SendExecute("", 0)
	c.SendSync()
	res, err := c.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || res.Err.Code != "26000" {
		t.Fatalf("bind missing stmt: %v, want 26000", res.Err)
	}
	// The Execute after the error must have been skipped: no tags.
	if len(res.Tags) != 0 {
		t.Fatalf("skipped Execute still produced tags %v", res.Tags)
	}

	// Execute a missing portal → 34000.
	c.SendExecute("ghost", 0)
	c.SendSync()
	res, _ = c.Collect()
	if res.Err == nil || res.Err.Code != "34000" {
		t.Fatalf("execute missing portal: %v, want 34000", res.Err)
	}

	// Parameter count mismatch → 08P01.
	c.SendParse("", `SELECT a FROM ee WHERE a = ?`, nil)
	c.SendBind("", "", nil)
	c.SendSync()
	res, _ = c.Collect()
	if res.Err == nil || res.Err.Code != "08P01" {
		t.Fatalf("param count mismatch: %v, want 08P01", res.Err)
	}

	// Undecodable int parameter → 22P02.
	c.SendParse("", `SELECT a FROM ee WHERE a = ?`, []int32{23})
	c.SendBind("", "", []*string{pgwiretest.Str("notanint")})
	c.SendSync()
	res, _ = c.Collect()
	if res.Err == nil || res.Err.Code != "22P02" {
		t.Fatalf("bad int literal: %v, want 22P02", res.Err)
	}

	// Duplicate named statement → 42P05; duplicate named portal → 42P03.
	c.SendParse("dup", `SELECT a FROM ee`, nil)
	c.SendParse("dup", `SELECT a FROM ee`, nil)
	c.SendSync()
	res, _ = c.Collect()
	if res.Err == nil || res.Err.Code != "42P05" {
		t.Fatalf("duplicate prepared: %v, want 42P05", res.Err)
	}
	c.SendBind("p1", "dup", nil)
	c.SendBind("p1", "dup", nil)
	c.SendSync()
	res, _ = c.Collect()
	if res.Err == nil || res.Err.Code != "42P03" {
		t.Fatalf("duplicate portal: %v, want 42P03", res.Err)
	}

	// Multiple commands in one Parse → 42601.
	c.SendParse("", `SELECT a FROM ee; SELECT a FROM ee`, nil)
	c.SendSync()
	res, _ = c.Collect()
	if res.Err == nil || res.Err.Code != "42601" {
		t.Fatalf("multi-command parse: %v, want 42601", res.Err)
	}

	// Binary result format → 0A000.
	var b []byte
	b = appendC(b, "")
	b = appendC(b, "")
	b = append(b, 0, 1, 0, 1) // one param format code: 1 (binary)
	b = append(b, 0, 0)       // zero params
	b = append(b, 0, 0)       // zero result formats
	c.SendParse("", `SELECT a FROM ee`, nil)
	if err := c.RawWrite(frameMsg('B', b)); err != nil {
		t.Fatal(err)
	}
	c.SendSync()
	res, _ = c.Collect()
	if res.Err == nil || res.Err.Code != "0A000" {
		t.Fatalf("binary format: %v, want 0A000", res.Err)
	}

	// Close of a missing prepared statement is not an error.
	c.SendClose('S', "nothere")
	c.SendSync()
	res, _ = c.Collect()
	if res.Err != nil {
		t.Fatalf("close missing stmt errored: %v", res.Err)
	}

	// An error reaches a client that pipelined Flush, not Sync, behind the
	// failing message: the Flush is discarded with the rest, so the
	// ErrorResponse must not wait for it (TestMidQueryCancellation hung
	// here whenever a late cancel failed its re-opened portal).
	c.SendBind("", "ghost", nil)
	c.SendFlush()
	c.NetConn().SetReadDeadline(time.Now().Add(5 * time.Second))
	if m, err := c.ReadMsg(); err != nil || m.Type != 'E' {
		t.Fatalf("error before Flush: got %q, %v; want an ErrorResponse at once", m.Type, err)
	}
	c.NetConn().SetReadDeadline(time.Time{})
	c.SendSync()
	if _, err := c.Collect(); err != nil {
		t.Fatal(err)
	}
}

// appendC and frameMsg build raw frames for malformed-input legs.
func appendC(b []byte, s string) []byte { return append(append(b, s...), 0) }

func frameMsg(typ byte, body []byte) []byte {
	out := []byte{typ, 0, 0, 0, 0}
	out = append(out, body...)
	binary.BigEndian.PutUint32(out[1:], uint32(len(body)+4))
	return out
}

// TestMidQueryCancellation: a suspended portal's cursor is cancelled by a
// CancelRequest from a second connection; the next Execute reports 57014.
func TestMidQueryCancellation(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	db.MustExec(`CREATE TABLE big (n INTEGER)`)
	tx := db.Begin()
	for i := 0; i < 2000; i++ {
		tx.Exec(`INSERT INTO big VALUES (?)`, i)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c := dial(t, addr)

	// Open a portal, pull one row, leave it suspended.
	c.SendParse("", `SELECT n FROM big ORDER BY n`, nil)
	c.SendBind("", "", nil)
	c.SendExecute("", 1)
	c.SendFlush()
	for {
		m, err := c.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == 's' {
			break
		}
		if m.Type == 'E' {
			t.Fatal("error before suspension")
		}
	}

	// Cancel from a second connection using the first's key data. Cancel
	// returns once the server has applied it, so the resumed Execute
	// reports the cancellation and no cancel is left in flight.
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	c.SendExecute("", 1)
	c.SendSync()
	res, err := c.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || res.Err.Code != "57014" {
		t.Fatalf("cancelled execute: %v, want 57014", res.Err)
	}

	// The session survives cancellation: a fresh query works.
	rows := wireRows(mustQuery(t, c, `SELECT count(*) FROM big`))
	if !reflect.DeepEqual(rows, []string{"2000"}) {
		t.Fatalf("post-cancel query: %v", rows)
	}

	// A cancel with the wrong secret is ignored.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var pkt []byte
	pkt = append(pkt, 0, 0, 0, 16)
	pkt = append(pkt, 4, 210, 22, 46) // 80877102
	pkt = append(pkt, 0, 0, 0, byte(c.BackendPID()))
	pkt = append(pkt, 1, 2, 3, 4) // wrong secret
	nc.Write(pkt)
	nc.Close()
	rows = wireRows(mustQuery(t, c, `SELECT count(*) FROM big`))
	if !reflect.DeepEqual(rows, []string{"2000"}) {
		t.Fatalf("wrong-secret cancel affected session: %v", rows)
	}
}

// blockAt is a function set whose BLOCK_AT(v, k) returns v, but first, at
// the row where v = k, reports on reached and waits on release: a stand-in
// for an LM call a client gives up on part-way through a statement.
type blockAt struct{ reached, release chan struct{} }

func (b blockAt) LookupFunc(name string) (sqldb.Func, bool) {
	return sqldb.Func{MinArgs: 2, MaxArgs: 2, Scalar: func(args []sqldb.Value) (sqldb.Value, error) {
		if args[0].AsInt() == args[1].AsInt() {
			b.reached <- struct{}{}
			<-b.release
		}
		return args[0], nil
	}}, name == "BLOCK_AT"
}

// TestCancelledUpdateChangesNothing: a CancelRequest that lands while an
// UPDATE is at row 2,000 of 5,000 fails it with 57014, and the statement
// changes nothing. In autocommit a fresh query sees the table as it was
// and no snapshot is left registered; inside BEGIN the session is failed
// (25P02) until ROLLBACK, which leaves the table as it was before BEGIN.
func TestCancelledUpdateChangesNothing(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	db.MustExec(`CREATE TABLE cu (id INTEGER PRIMARY KEY, v INTEGER)`)
	rows := make([][]any, 5000)
	for i := range rows {
		rows[i] = []any{i, i}
	}
	if err := db.InsertRows("cu", rows); err != nil {
		t.Fatal(err)
	}
	b := blockAt{make(chan struct{}), make(chan struct{})}
	db.SetFuncs(b)
	c := dial(t, addr)
	before := wireRows(mustQuery(t, c, `SELECT id, v FROM cu ORDER BY id`))

	// cancelledUpdate runs the UPDATE, cancels it at row 2,000 and returns
	// its response.
	cancelledUpdate := func() *pgwiretest.Result {
		t.Helper()
		var res *pgwiretest.Result
		var err error
		done := make(chan struct{})
		go func() {
			res, err = c.Query(`UPDATE cu SET v = BLOCK_AT(v, 2000) + 1`)
			close(done)
		}()
		<-b.reached
		cerr := c.Cancel()
		b.release <- struct{}{}
		if <-done; cerr != nil || err != nil {
			t.Fatalf("cancel: %v; UPDATE: %v", cerr, err)
		}
		if res.Err == nil || res.Err.Code != "57014" {
			t.Fatalf("cancelled UPDATE: %+v, want 57014", res.Err)
		}
		return res
	}
	unchanged := func(when string) {
		t.Helper()
		if got := wireRows(mustQuery(t, c, `SELECT id, v FROM cu ORDER BY id`)); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: the table changed (%d rows, first %q)", when, len(got), got[:min(len(got), 3)])
		}
	}

	if res := cancelledUpdate(); res.TxStatus != 'I' {
		t.Fatalf("autocommit cancelled UPDATE: status %c, want I", res.TxStatus)
	}
	unchanged("after the cancelled autocommit UPDATE")
	if n := db.LiveSnapshots(); n != 0 {
		t.Errorf("LiveSnapshots() = %d after the cancelled UPDATE, want 0", n)
	}

	mustQuery(t, c, `BEGIN`)
	mustQuery(t, c, `INSERT INTO cu VALUES (-1, -1)`)
	if res := cancelledUpdate(); res.TxStatus != 'E' {
		t.Fatalf("cancelled UPDATE in a transaction: status %c, want E", res.TxStatus)
	}
	if res, _ := c.Query(`SELECT count(*) FROM cu`); res == nil || res.Err == nil || res.Err.Code != "25P02" {
		t.Fatalf("query after the cancelled UPDATE in a transaction: %+v, want 25P02", res)
	}
	if res := mustQuery(t, c, `ROLLBACK`); res.Tags[0] != "ROLLBACK" || res.TxStatus != 'I' {
		t.Fatalf("ROLLBACK: tags %v status %c, want ROLLBACK/I", res.Tags, res.TxStatus)
	}
	unchanged("after ROLLBACK")
	if n := db.LiveSnapshots(); n != 0 {
		t.Errorf("LiveSnapshots() = %d after ROLLBACK, want 0", n)
	}
}

// TestConnectionLimit: connections beyond MaxConns are refused with
// 53300 after a complete handshake, and a released slot is reusable.
func TestConnectionLimit(t *testing.T) {
	_, _, addr := startServer(t, Options{MaxConns: 2})

	c1 := dial(t, addr)
	c2 := dial(t, addr)
	mustQuery(t, c1, `SELECT 1`)
	mustQuery(t, c2, `SELECT 1`)

	_, err := pgwiretest.Dial(addr)
	if err == nil {
		t.Fatal("third connection admitted past MaxConns=2")
	}
	se, ok := err.(*pgwiretest.ServerError)
	if !ok || se.Code != "53300" {
		t.Fatalf("refusal error = %v, want SQLSTATE 53300", err)
	}

	// Releasing a slot admits a new connection.
	c1.Terminate()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := pgwiretest.Dial(addr)
		if err == nil {
			mustQuery(t, c3, `SELECT 1`)
			c3.Terminate()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c2.Terminate()
}

// TestPasswordAuth: wrong password refused with 28P01, right one admitted.
func TestPasswordAuth(t *testing.T) {
	_, _, addr := startServer(t, Options{Password: "sesame"})

	_, err := pgwiretest.DialConfig(addr, pgwiretest.Config{User: "u", Password: "wrong"})
	se, ok := err.(*pgwiretest.ServerError)
	if !ok || se.Code != "28P01" {
		t.Fatalf("wrong password: %v, want 28P01", err)
	}

	c, err := pgwiretest.DialConfig(addr, pgwiretest.Config{User: "u", Password: "sesame"})
	if err != nil {
		t.Fatalf("right password refused: %v", err)
	}
	mustQuery(t, c, `SELECT 1`)
	c.Terminate()
}

// TestGracefulShutdown: Shutdown drains idle sessions with 57P01 and
// Serve returns nil.
func TestGracefulShutdown(t *testing.T) {
	db := sqldb.NewDatabase()
	defer db.Close()
	srv := NewServer(db, Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(lis) }()

	c, err := pgwiretest.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustQuery(t, c, `SELECT 1`)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	// The drained client got the admin-shutdown goodbye.
	m, err := c.ReadMsg()
	if err == nil && m.Type == 'E' {
		// decoded FATAL 57P01 — fine
	} else if err == nil {
		t.Fatalf("expected ErrorResponse or EOF, got %q", m.Type)
	}
	// New connections are refused.
	if _, err := pgwiretest.Dial(lis.Addr().String()); err == nil {
		t.Fatal("connection admitted after shutdown")
	}
	if n := db.LiveSnapshots(); n != 0 {
		t.Fatalf("leaked %d snapshots", n)
	}
}
