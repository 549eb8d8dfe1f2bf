package sqldb_test

import (
	"context"
	"net"
	"testing"
	"time"

	"tag/internal/server/pgwire"
	"tag/internal/server/pgwire/pgwiretest"
	"tag/internal/sqldb"
)

// TestCorruptBlockOverWire: a SELECT that reads a damaged sealed block gets
// SQLSTATE XX001 (data_corrupted) over pgwire, and the same session answers
// its next statement.
func TestCorruptBlockOverWire(t *testing.T) {
	db := sqldb.NewDatabase()
	db.MustExec("CREATE TABLE s (id INTEGER, v TEXT)")
	rows := make([][]any, 2048)
	for i := range rows {
		rows[i] = []any{i, "v"}
	}
	if err := db.InsertRows("s", rows); err != nil {
		t.Fatal(err)
	}
	if db.Seal() != len(rows) {
		t.Fatal("Seal did not freeze both blocks")
	}
	sqldb.ScribbleSealedBlock(db, "s")

	srv := pgwire.NewServer(db, pgwire.Options{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()
	c, err := pgwiretest.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res, err := c.Query("SELECT COUNT(*) FROM s WHERE v = 'v'")
	if err != nil || res.Err == nil || res.Err.Code != "XX001" {
		t.Fatalf("SELECT over a corrupt block: transport %v, server error %v; want SQLSTATE XX001", err, res.Err)
	}
	res, err = c.Query("SELECT 40 + 2")
	if err != nil || res.Err != nil || len(res.Rows) != 1 || *res.Rows[0][0] != "42" {
		t.Fatalf("the session's next statement: transport %v, server error %v, rows %v; want [[42]]", err, res.Err, res.Rows)
	}
}
