package pgwire

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"tag/internal/sqldb"
)

// TestIdentityReadsNeverWrite: SELECT *, t.* and a.*, b.* hand a table's
// own rows up unbuilt, so every consumer above them — a caller, a full or
// top-K sort, DISTINCT, a join, a derived table, IN, INSERT … SELECT — must
// leave them as it found them. Each identity shape runs through Query,
// QueryRows, a prepared Stmt, a Txn and the wire (simple and extended), and
// the database then dumps byte for byte as it did before.
func TestIdentityReadsNeverWrite(t *testing.T) {
	_, db, addr := startServer(t, Options{}, sqldb.WithMaxWorkers(1))
	db.MustExec("CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER, s TEXT)")
	db.MustExec("CREATE TABLE b (id INTEGER PRIMARY KEY, k INTEGER, w REAL)")
	db.MustExec("CREATE INDEX b_k ON b (k)")
	db.MustExec("CREATE TABLE one (k INTEGER)")
	db.MustExec("CREATE TABLE sink (id INTEGER, k INTEGER, v INTEGER, s TEXT)")
	for i := 0; i < 300; i++ {
		db.MustExec("INSERT INTO a VALUES (?, ?, ?, ?)", i, i%11, i*7919%500, fmt.Sprint("s", i%13))
	}
	for i := 0; i < 90; i++ {
		db.MustExec("INSERT INTO b VALUES (?, ?, ?)", i, i%17, float64(i*31%97)/4)
	}
	for _, k := range []int{2, 5, 7} {
		db.MustExec("INSERT INTO one VALUES (?)", k)
	}
	var before bytes.Buffer
	if err := db.Dump(&before); err != nil {
		t.Fatal(err)
	}

	reads := []string{
		"SELECT * FROM a WHERE v > 40",
		"SELECT * FROM a ORDER BY v DESC, a.id",
		"SELECT a.* FROM a ORDER BY a.v, 1 DESC LIMIT 7",
		"SELECT DISTINCT * FROM b ORDER BY w DESC LIMIT 4 OFFSET 2",
		"SELECT a.*, b.* FROM a JOIN b ON a.k = b.k ORDER BY b.w, a.id LIMIT 9",
		"SELECT * FROM (SELECT * FROM a WHERE k < 5) x ORDER BY x.v LIMIT 5",
		"SELECT * FROM a WHERE k IN (SELECT * FROM one) ORDER BY s",
	}
	const insert = "INSERT INTO sink SELECT * FROM a WHERE v < 60"
	c := dial(t, addr)
	ctx := context.Background()
	for _, sql := range reads {
		if _, err := db.Query(sql); err != nil {
			t.Fatalf("Query %s: %v", sql, err)
		}
		rows, err := db.QueryRows(ctx, sql)
		if err != nil {
			t.Fatalf("QueryRows %s: %v", sql, err)
		}
		for rows.Next() {
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("QueryRows %s: %v", sql, err)
		}
		stmt, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := stmt.Query(); err != nil {
			t.Fatalf("Stmt %s: %v", sql, err)
		}
		tx := db.Begin()
		if _, err := tx.Query(sql); err != nil {
			t.Fatalf("Txn %s: %v", sql, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		mustQuery(t, c, sql)
		if res, err := c.ExtQuery(sql); err != nil || res.Err != nil {
			t.Fatalf("extended %s: %v / %v", sql, err, res.Err)
		}
	}
	db.MustExec(insert)
	tx := db.Begin()
	if _, err := tx.Exec(insert); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, c, insert)
	if res, err := db.Query("SELECT COUNT(*) FROM sink"); err != nil || res.Rows[0][0].AsInt() == 0 {
		t.Fatalf("INSERT … SELECT * copied no row: %v", err)
	}
	db.MustExec("DELETE FROM sink")

	var after bytes.Buffer
	if err := db.Dump(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("reads changed the database:\nbefore %d B, after %d B", before.Len(), after.Len())
	}
}
