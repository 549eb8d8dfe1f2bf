package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Streaming vs materialised equivalence

// collectViaRows drains a streaming cursor into rows-of-strings.
func collectViaRows(t *testing.T, db *Database, sql string) ([]string, [][]string) {
	t.Helper()
	rows, err := db.QueryRows(context.Background(), sql)
	if err != nil {
		t.Fatalf("QueryRows(%q): %v", sql, err)
	}
	defer rows.Close()
	var out []Row
	for rows.Next() {
		out = append(out, rows.Row())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Rows.Err(%q): %v", sql, err)
	}
	return rows.Columns(), rowsToStrings(out)
}

// TestRowsMatchesResultOverPlanCorpus re-runs the plan-equivalence corpus
// through both query surfaces: the streaming cursor must produce exactly
// the rows and ordering of the materialised Result, on the indexed and
// the plain database alike.
func TestRowsMatchesResultOverPlanCorpus(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	indexed, plain := diffLoad(t, r, 80)
	shapes := []func(*rand.Rand) string{
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT id, a, c FROM t1 WHERE %s ORDER BY id", diffPred(r, 80))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf(
				"SELECT t1.id, t1.a, t2.d FROM t1 JOIN t2 ON t1.id = t2.t1_id WHERE %s ORDER BY t1.id, t2.id",
				diffPred(r, 80))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf(
				"SELECT t1.id, t2.d FROM t1 LEFT JOIN t2 ON t1.id = t2.t1_id WHERE %s ORDER BY t1.id, t2.id",
				diffPred(r, 80))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf(
				"SELECT a, COUNT(*), SUM(f) FROM t1 WHERE %s GROUP BY a HAVING COUNT(*) > 1 ORDER BY a", diffPred(r, 80))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf(
				"SELECT DISTINCT t1.a FROM t1 JOIN t2 ON t1.id = t2.t1_id ORDER BY t1.a LIMIT %d",
				1+r.Intn(6))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf(
				"SELECT id FROM t1 WHERE EXISTS (SELECT 1 FROM t2 WHERE t2.t1_id = t1.id AND t2.d > %d) ORDER BY id",
				r.Intn(20))
		},
		func(r *rand.Rand) string {
			return fmt.Sprintf("SELECT id, b FROM t1 WHERE %s LIMIT %d OFFSET %d",
				diffPred(r, 80), r.Intn(10), r.Intn(5))
		},
	}
	for i := 0; i < 210; i++ {
		sql := shapes[i%len(shapes)](r)
		for name, db := range map[string]*Database{"indexed": indexed, "plain": plain} {
			res, err := db.Query(sql)
			if err != nil {
				t.Fatalf("%s Query(%q): %v", name, sql, err)
			}
			cols, streamed := collectViaRows(t, db, sql)
			if !reflect.DeepEqual(cols, res.Columns) {
				t.Fatalf("%s columns disagree on %q: rows %v vs result %v", name, sql, cols, res.Columns)
			}
			if !reflect.DeepEqual(streamed, rowsToStrings(res.Rows)) {
				t.Fatalf("streaming disagrees with materialised on %s %q:\nrows   %v\nresult %v",
					name, sql, streamed, rowsToStrings(res.Rows))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Early termination (the acceptance criterion: LIMIT k reads O(k) rows)

func bigDB(t testing.TB, n int, opts ...Option) *Database {
	db := NewDatabase(opts...)
	db.MustExec("CREATE TABLE big (id INTEGER PRIMARY KEY, grp INTEGER, v REAL)")
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{i, i % 50, float64(i % 997)}
	}
	if err := db.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestLimitScansOnlyLimitRows(t *testing.T) {
	db := bigDB(t, 100000)
	before := db.Stats()
	res, err := db.Query("SELECT id FROM big LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	scanned := db.Stats().RowsScanned - before.RowsScanned
	if scanned != 5 {
		t.Errorf("LIMIT 5 scanned %d rows, want exactly 5", scanned)
	}

	// OFFSET widens the window but stays O(k).
	before = db.Stats()
	if _, err := db.Query("SELECT id FROM big LIMIT 5 OFFSET 7"); err != nil {
		t.Fatal(err)
	}
	if scanned := db.Stats().RowsScanned - before.RowsScanned; scanned != 12 {
		t.Errorf("LIMIT 5 OFFSET 7 scanned %d rows, want 12", scanned)
	}

	// DISTINCT streams too: stop once the window fills.
	before = db.Stats()
	if _, err := db.Query("SELECT DISTINCT grp FROM big LIMIT 3"); err != nil {
		t.Fatal(err)
	}
	if scanned := db.Stats().RowsScanned - before.RowsScanned; scanned != 3 {
		t.Errorf("DISTINCT LIMIT 3 scanned %d rows, want 3", scanned)
	}

	// An ORDER BY is a pipeline breaker: the whole table must be read.
	before = db.Stats()
	if _, err := db.Query("SELECT id FROM big ORDER BY v LIMIT 5"); err != nil {
		t.Fatal(err)
	}
	if scanned := db.Stats().RowsScanned - before.RowsScanned; scanned != 100000 {
		t.Errorf("ORDER BY LIMIT scanned %d rows, want 100000", scanned)
	}
}

func TestExistsStopsAtFirstMatch(t *testing.T) {
	db := bigDB(t, 100000)
	before := db.Stats()
	res, err := db.Query("SELECT EXISTS (SELECT 1 FROM big WHERE grp = 0)")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsBool(); !got {
		t.Fatalf("EXISTS = %v, want true", got)
	}
	// grp = 0 matches the very first row; the subplan must stop there.
	if scanned := db.Stats().RowsScanned - before.RowsScanned; scanned != 1 {
		t.Errorf("EXISTS scanned %d rows, want 1", scanned)
	}
}

// ---------------------------------------------------------------------------
// Context cancellation

func TestQueryContextCancelledMidScan(t *testing.T) {
	db := bigDB(t, 50000)
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryRows(ctx, "SELECT id FROM big")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	for i := 0; i < 10; i++ {
		if !rows.Next() {
			t.Fatalf("Next() = false after %d rows: %v", i, rows.Err())
		}
	}
	cancel()
	if rows.Next() {
		t.Fatal("Next() = true after cancellation")
	}
	err = rows.Err()
	var se *Error
	if !errors.As(err, &se) || se.Code != ErrCanceled {
		t.Fatalf("Err() = %v, want *Error{ErrCanceled}", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v does not unwrap to context.Canceled", err)
	}
}

func TestQueryContextCancelledInsidePipelineBreaker(t *testing.T) {
	// Cancellation is observed inside a materialising stage (aggregation
	// drains the scan on the first Next), not just between result rows.
	db := bigDB(t, 50000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, "SELECT grp, COUNT(*) FROM big GROUP BY grp")
	if CodeOf(err) != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// A statement dispatched under an already-cancelled context does not run,
// whichever entry point carried it into the one exec loop.
func TestExecContextCancelledMidUpdate(t *testing.T) {
	db := bigDB(t, 50000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const update = "UPDATE big SET v = v + 1 WHERE grp < 100"
	sum := func() float64 {
		res, err := db.Query("SELECT SUM(v) FROM big")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].AsFloat()
	}
	want := sum()
	entries := []struct {
		name string
		exec func(tx *Txn) (int, error)
	}{
		{"Database.ExecContext", func(*Txn) (int, error) { return db.ExecContext(ctx, update) }},
		{"Txn.ExecContext", func(tx *Txn) (int, error) { return tx.ExecContext(ctx, update) }},
		{"execAll", func(*Txn) (int, error) {
			stmt, err := Parse(update)
			if err != nil {
				t.Fatal(err)
			}
			return db.execAll(ctx, []Statement{stmt}, nil, nil)
		}},
	}
	for _, e := range entries {
		tx := db.Begin()
		n, err := e.exec(tx)
		if CodeOf(err) != ErrCanceled || SQLStateFor(err) != "57014" || n != 0 {
			t.Errorf("%s: n = %d, err = %v, want 0 rows and ErrCanceled (57014)", e.name, n, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := sum(); got != want {
			t.Errorf("%s: SUM(v) = %v after a cancelled UPDATE, want the untouched %v", e.name, got, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Cursor lifecycle: leaks, auto-close, locking

// TestRowsLeakIsObservableAndWritersProceed pins the MVCC contract that
// replaced cursor read locks: an open cursor never blocks a writer, the
// committed write is invisible to the cursor's snapshot, and Close
// releases the snapshot reference (observable via the live-snapshot
// count, which is what lets the vacuum horizon advance).
func TestRowsLeakIsObservableAndWritersProceed(t *testing.T) {
	db := bigDB(t, 1000)
	base := db.tm.liveSnapshots()
	rows, err := db.QueryRows(context.Background(), "SELECT id FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected a first row")
	}
	if got := db.Stats().OpenCursors; got != 1 {
		t.Fatalf("OpenCursors = %d with an open cursor, want 1", got)
	}
	if got := db.tm.liveSnapshots(); got != base+1 {
		t.Fatalf("liveSnapshots = %d with an open cursor, want %d", got, base+1)
	}

	// A writer completes while the cursor is open: readers hold a
	// snapshot, not a lock.
	wrote := make(chan error, 1)
	go func() {
		_, err := db.Exec("INSERT INTO big VALUES (1000001, 0, 0)")
		wrote <- err
	}()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatalf("write under an open cursor: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write blocked by an open cursor")
	}

	// The commit landed mid-iteration, so it is invisible to this
	// cursor's snapshot: exactly the original 1000 rows stream out.
	n := 1 // the row already fetched
	for rows.Next() {
		n++
	}
	if n != 1000 || rows.Err() != nil {
		t.Fatalf("cursor saw %d rows (err %v), want its snapshot's 1000", n, rows.Err())
	}
	// Next's exhaustion auto-closed the cursor and released its snapshot.
	if got := db.Stats().OpenCursors; got != 0 {
		t.Fatalf("OpenCursors = %d after exhaustion, want 0", got)
	}
	if got := db.tm.liveSnapshots(); got != base {
		t.Fatalf("liveSnapshots = %d after close, want %d (snapshot released)", got, base)
	}
	// A fresh statement sees the concurrent commit.
	var cnt int
	res, err := db.Query("SELECT COUNT(*) FROM big")
	if err != nil {
		t.Fatal(err)
	}
	cnt = int(res.Rows[0][0].AsInt())
	if cnt != 1001 {
		t.Fatalf("post-close count = %d, want 1001", cnt)
	}
	// Close is idempotent.
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRowsAutoCloseOnExhaustion(t *testing.T) {
	db := bigDB(t, 10)
	rows, err := db.QueryRows(context.Background(), "SELECT id FROM big")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if n != 10 || rows.Err() != nil {
		t.Fatalf("drained %d rows, err %v", n, rows.Err())
	}
	if got := db.Stats().OpenCursors; got != 0 {
		t.Fatalf("OpenCursors = %d after exhaustion, want 0 (auto-close)", got)
	}
	// The database accepts writes again without an explicit Close.
	if _, err := db.Exec("DELETE FROM big WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
}

func TestRowsScanConversions(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (i INTEGER, f REAL, s TEXT, b BOOLEAN)")
	db.MustExec("INSERT INTO t VALUES (42, 2.5, 'hi', TRUE)")
	rows, err := db.QueryRows(context.Background(), "SELECT i, f, s, b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	if err := rows.Scan(); CodeOf(err) != ErrCursor {
		t.Fatalf("Scan before Next: %v, want ErrCursor", err)
	}
	if !rows.Next() {
		t.Fatal("no row")
	}
	var i int
	var f float64
	var s string
	var b bool
	if err := rows.Scan(&i, &f, &s, &b); err != nil {
		t.Fatal(err)
	}
	if i != 42 || f != 2.5 || s != "hi" || !b {
		t.Fatalf("scanned (%d, %v, %q, %v)", i, f, s, b)
	}
	if err := rows.Scan(&i); CodeOf(err) != ErrCursor {
		t.Fatalf("arity mismatch: %v, want ErrCursor", err)
	}
	var ch chan int
	if err := rows.Scan(&i, &f, &s, &ch); CodeOf(err) != ErrCursor {
		t.Fatalf("bad destination: %v, want ErrCursor", err)
	}
	var anyV any
	if err := rows.Scan(nil, nil, &anyV, nil); err != nil || anyV != "hi" {
		t.Fatalf("any/nil destinations: %v %v", anyV, err)
	}
}

func TestQueryRowsParams(t *testing.T) {
	db := bigDB(t, 100)
	rows, err := db.QueryRows(context.Background(), "SELECT id FROM big WHERE grp = ? LIMIT 2", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []int64
	for rows.Next() {
		var id int64
		if err := rows.Scan(&id); err != nil {
			t.Fatal(err)
		}
		got = append(got, id)
	}
	if !reflect.DeepEqual(got, []int64{3, 53}) {
		t.Fatalf("got %v, want [3 53]", got)
	}
}

// ---------------------------------------------------------------------------
// Typed errors

func TestTypedErrorCodes(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (a INTEGER)")
	cases := []struct {
		sql  string
		code ErrorCode
	}{
		{"SELEC a FROM t", ErrParse},
		{"SELECT a FROM missing", ErrNoTable},
		{"SELECT nope FROM t", ErrNoColumn},
		{"SELECT NOSUCHFN(a) FROM t", ErrNoFunction},
		{"SELECT SUM(a), MAX(SUM(a)) FROM t", ErrMisuse},
		{"SELECT ? FROM t", ErrParams},
		{"CREATE TABLE t (a INTEGER)", ErrSchema},
	}
	for _, tc := range cases {
		var err error
		if tc.code == ErrSchema {
			_, err = db.Exec(tc.sql)
		} else {
			_, err = db.Query(tc.sql)
		}
		if err == nil {
			t.Errorf("%q: no error, want %s", tc.sql, tc.code)
			continue
		}
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("%q: error %T is not errors.As-matchable to *Error: %v", tc.sql, err, err)
			continue
		}
		if se.Code != tc.code {
			t.Errorf("%q: code %s, want %s (%v)", tc.sql, se.Code, tc.code, err)
		}
		// Code-only probes via errors.Is.
		if !errors.Is(err, &Error{Code: tc.code}) {
			t.Errorf("%q: errors.Is code probe failed for %s", tc.sql, tc.code)
		}
	}
	// Constraint violations surface from DML.
	if _, err := db.Exec("CREATE TABLE u (k INTEGER PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	db.MustExec("INSERT INTO u VALUES (1)")
	if _, err := db.Exec("INSERT INTO u VALUES (1)"); CodeOf(err) != ErrConstraint {
		t.Errorf("duplicate PK: %v, want ErrConstraint", err)
	}
	// Parse errors still expose the positioned *ParseError as the cause.
	_, err := db.Query("SELEC a")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Errorf("parse error does not unwrap to *ParseError: %v", err)
	}
}

// ---------------------------------------------------------------------------
// Stats

func TestStatsCounters(t *testing.T) {
	db := bigDB(t, 1000)
	base := db.Stats()

	for i := 0; i < 3; i++ {
		if _, err := db.Query("SELECT COUNT(*) FROM big"); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if got := st.Queries - base.Queries; got != 3 {
		t.Errorf("Queries delta = %d, want 3", got)
	}
	if hits := st.PlanCacheHits - base.PlanCacheHits; hits != 2 {
		t.Errorf("PlanCacheHits delta = %d, want 2", hits)
	}
	if misses := st.PlanCacheMisses - base.PlanCacheMisses; misses != 1 {
		t.Errorf("PlanCacheMisses delta = %d, want 1", misses)
	}
	if scanned := st.RowsScanned - base.RowsScanned; scanned != 3000 {
		t.Errorf("RowsScanned delta = %d, want 3000", scanned)
	}
	if emitted := st.RowsEmitted - base.RowsEmitted; emitted != 3 {
		t.Errorf("RowsEmitted delta = %d, want 3", emitted)
	}
	if full := st.FullScans - base.FullScans; full != 3 {
		t.Errorf("FullScans delta = %d, want 3", full)
	}

	// A point lookup on the primary key is an index scan.
	before := db.Stats()
	if _, err := db.Query("SELECT grp FROM big WHERE id = 7"); err != nil {
		t.Fatal(err)
	}
	st = db.Stats()
	if idx := st.IndexScans - before.IndexScans; idx != 1 {
		t.Errorf("IndexScans delta = %d, want 1", idx)
	}
	if scanned := st.RowsScanned - before.RowsScanned; scanned != 1 {
		t.Errorf("point lookup scanned %d rows, want 1", scanned)
	}

	// DDL/DML land in Execs.
	before = db.Stats()
	db.MustExec("CREATE TABLE side (x INTEGER)")
	db.MustExec("INSERT INTO side VALUES (1)")
	if got := db.Stats().Execs - before.Execs; got != 2 {
		t.Errorf("Execs delta = %d, want 2", got)
	}
}

// ---------------------------------------------------------------------------
// DML early-exit consistency (regression: an error or cancellation
// mid-loop must leave the heap and the indexes as they were before the
// statement)

// lookupEachID fails the test unless each id's index lookup finds want
// rows.
func lookupEachID(t *testing.T, db *Database, ids []int, want int) {
	t.Helper()
	for _, id := range ids {
		res, err := db.Query("SELECT v FROM t WHERE id = ?", id)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != want {
			t.Errorf("index lookup id=%d found %d rows, want %d", id, len(res.Rows), want)
		}
	}
}

func TestUpdateErrorMidLoopKeepsIndexesConsistent(t *testing.T) {
	db := NewDatabase()
	db.SetFuncs(funcMap{"BOOM_IF": {MaxArgs: -1, Scalar: func(args []Value) (Value, error) {
		if args[0].AsInt() == args[1].AsInt() {
			return Null, errf(ErrMisuse, "boom")
		}
		return Bool(true), nil
	}}})
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	rows := make([][]any, 10)
	for i := range rows {
		rows[i] = []any{i, i}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	before := queryStrings(t, db, "SELECT id, v FROM t")
	// Rows 0..4 would update their PRIMARY KEY (indexed) before row 5 errors.
	n, err := db.Exec("UPDATE t SET id = id + 100 WHERE BOOM_IF(v, 5)")
	if CodeOf(err) != ErrMisuse || n != 0 {
		t.Fatalf("(n, err) = (%d, %v), want (0, the UDF error)", n, err)
	}
	if after := queryStrings(t, db, "SELECT id, v FROM t"); !reflect.DeepEqual(after, before) {
		t.Fatalf("rows after the failed UPDATE = %v, want %v", after, before)
	}
	// The index serves the pre-statement keys, and none of the new ones.
	lookupEachID(t, db, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 1)
	lookupEachID(t, db, []int{100, 101, 102, 103, 104}, 0)
}

func TestDeleteErrorMidLoopKeepsHeapConsistent(t *testing.T) {
	db := NewDatabase()
	db.SetFuncs(funcMap{"DEL_OR_BOOM": {MaxArgs: -1, Scalar: func(args []Value) (Value, error) {
		v := args[0].AsInt()
		if v == 6 {
			return Null, errf(ErrMisuse, "boom")
		}
		return Bool(v < 3), nil
	}}})
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	rows := make([][]any, 10)
	for i := range rows {
		rows[i] = []any{i, i}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	// v 0..2 would be deleted before v=6 errors.
	n, err := db.Exec("DELETE FROM t WHERE DEL_OR_BOOM(v)")
	if CodeOf(err) != ErrMisuse || n != 0 {
		t.Fatalf("(n, err) = (%d, %v), want (0, the UDF error)", n, err)
	}
	got := queryStrings(t, db, "SELECT v FROM t ORDER BY v")
	if want := [][]string{{"0"}, {"1"}, {"2"}, {"3"}, {"4"}, {"5"}, {"6"}, {"7"}, {"8"}, {"9"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("heap after mid-delete error: %v, want %v", got, want)
	}
	// Index lookups agree with the heap (no duplicates, no lost ids).
	lookupEachID(t, db, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 1)
}
