package sqldb

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// edgeValues are values whose plain text does not read back as themselves
// (±Inf, −2⁶³), or reads back only to the last bit (−0.0, MaxInt64,
// subnormals), and a text holding a quote and a newline.
var edgeValues = []any{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), int64(math.MaxInt64), int64(math.MinInt64),
	1e-320, 4.9e-324, "it's\nsplit"}

// loadEdgeValues puts each of edgeValues in a column of every type.
func loadEdgeValues(db *Database) {
	db.MustExec("CREATE TABLE edge (i INTEGER, r REAL, s TEXT, b BLOB)")
	for _, v := range edgeValues {
		db.MustExec("INSERT INTO edge VALUES (?, ?, ?, ?)", v, v, v, v)
	}
}

// sameEdgeRows fails the test unless got's edge table is Identical, value
// by value, to want's.
func sameEdgeRows(t *testing.T, want, got *Database) {
	t.Helper()
	a, err := want.Query("SELECT * FROM edge")
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Query("SELECT * FROM edge")
	if err != nil {
		t.Fatal(err)
	}
	if !identical(a.Rows, b.Rows) {
		t.Errorf("edge values differ:\nwant %v\ngot  %v", a.Rows, b.Rows)
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	db := testDB(t)
	db.MustExec("CREATE INDEX idx_genre ON movies (genre)")
	loadEdgeValues(db)

	var buf strings.Builder
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	script := buf.String()
	for _, frag := range []string{
		"CREATE TABLE movies",
		"INSERT INTO movies VALUES (1, 'Titanic', 'Romance', 2257.8, 1997);",
		"CREATE INDEX idx_genre ON movies (genre);",
	} {
		if !strings.Contains(script, frag) {
			t.Errorf("dump missing %q:\n%s", frag, script)
		}
	}

	restored := NewDatabase()
	if err := restored.LoadScript(script); err != nil {
		t.Fatalf("LoadScript: %v\nscript:\n%s", err, script)
	}
	for _, q := range []string{
		"SELECT COUNT(*) FROM movies",
		"SELECT title FROM movies WHERE genre = 'Romance' ORDER BY revenue DESC",
		"SELECT m.title, COUNT(r.id) FROM movies m LEFT JOIN reviews r ON m.id = r.movie_id GROUP BY m.title ORDER BY 2 DESC, m.title",
	} {
		a := queryStrings(t, db, q)
		b := queryStrings(t, restored, q)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("query %q differs after reload:\n%v\nvs\n%v", q, a, b)
		}
	}
	sameEdgeRows(t, db, restored)
}

func TestDumpNullAndQuoting(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (a TEXT, b REAL)")
	db.MustExec("INSERT INTO t VALUES ('it''s \"quoted\"', NULL)")
	var buf strings.Builder
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewDatabase()
	if err := restored.LoadScript(buf.String()); err != nil {
		t.Fatalf("reload: %v\n%s", err, buf.String())
	}
	res, err := restored.Query("SELECT a, b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsText() != `it's "quoted"` || !res.Rows[0][1].IsNull() {
		t.Errorf("round trip lost values: %v", res.Rows[0])
	}
}

func TestDumpBenchmarkDomainRoundTrips(t *testing.T) {
	// The full codebase_community domain survives a dump/reload cycle.
	db := NewDatabase()
	db.MustExec("CREATE TABLE posts (Id INTEGER PRIMARY KEY, Title TEXT, ViewCount INTEGER)")
	for i := 1; i <= 50; i++ {
		db.MustExec("INSERT INTO posts VALUES (?, ?, ?)", i, strings.Repeat("t", i%7+1), i*13%101)
	}
	var buf strings.Builder
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	restored := NewDatabase()
	if err := restored.LoadScript(buf.String()); err != nil {
		t.Fatal(err)
	}
	a := queryStrings(t, db, "SELECT * FROM posts ORDER BY Id")
	b := queryStrings(t, restored, "SELECT * FROM posts ORDER BY Id")
	if !reflect.DeepEqual(a, b) {
		t.Error("domain did not round trip")
	}
}

// TestDumpUnchangedBySeal: sealing moves rows out of the heap into blocks
// that are their only copy and changes nothing they say — a dump before
// Seal() and after are byte-identical, over full blocks, a block with
// holes, a heap tail, every encoding (a mixed-kind column seals raw), and
// rows rehydrated by DML and sealed again.
func TestDumpUnchangedBySeal(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE d (id INTEGER PRIMARY KEY, k INTEGER, s TEXT, f REAL, ok BOOL, m TEXT)")
	rows := make([][]any, 2*segBlockSlots+100)
	for i := range rows {
		var k, f, m any = i % 11, float64(i) / 3, fmt.Sprint("m", i%5)
		switch i % 9 {
		case 0:
			k, f = nil, nil
		case 4:
			m = i
		}
		rows[i] = []any{i, k, fmt.Sprint("s", i%301), f, i%2 == 0, m}
	}
	if err := db.InsertRows("d", rows); err != nil {
		t.Fatal(err)
	}
	db.MustExec("DELETE FROM d WHERE id BETWEEN 1030 AND 1040")
	db.Vacuum()
	for round, dml := range []string{"", "UPDATE d SET k = -k, s = 'u' WHERE id % 97 = 3"} {
		if dml != "" {
			db.MustExec(dml)
			db.Vacuum()
		}
		before := mustDump(db)
		if sealed := db.Seal(); sealed == 0 {
			t.Fatalf("round %d: Seal() froze nothing", round)
		}
		if after := mustDump(db); after != before {
			t.Fatalf("round %d: Dump changed across Seal():\n--- before ---\n%.400s\n--- after ---\n%.400s", round, before, after)
		}
	}
	if sealedBlocks(db.tableMap()["d"]) != 2 || db.tableMap()["d"].block(1).holes == nil {
		t.Fatal("want both blocks sealed, the second with holes")
	}
}
