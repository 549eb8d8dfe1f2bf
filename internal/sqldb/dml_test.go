package sqldb

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// Tests for DML snapshot semantics (the Halloween problem): an UPDATE or
// DELETE whose WHERE/SET contains a subquery over the mutating table must
// evaluate every row against the pre-statement state — not against stale
// index keys, a half-mutated heap, or an ordered view built mid-loop.

// dmlTestDBs builds the same table into an indexed and an unindexed
// database so both the stale-index and half-mutated-heap variants of the
// hazard are exercised.
func dmlTestDBs() (indexed, plain *Database) {
	indexed = NewDatabase()
	plain = NewDatabase()
	indexed.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)")
	indexed.MustExec("CREATE INDEX idx_t_k ON t (k)")
	plain.MustExec("CREATE TABLE t (id INTEGER, k INTEGER)")
	return indexed, plain
}

// TestUpdateSelfSubquerySeesSnapshot: the WHERE subquery aggregates the
// very column the statement mutates. Under snapshot semantics the
// predicate is the same for every row (SUM over the pre-statement state);
// a one-pass executor lets earlier updates leak into later rows'
// evaluations and stops updating after the first row.
func TestUpdateSelfSubquerySeesSnapshot(t *testing.T) {
	indexed, plain := dmlTestDBs()
	for name, db := range map[string]*Database{"indexed": indexed, "plain": plain} {
		db.MustExec("INSERT INTO t VALUES (1, 2), (2, 2), (3, 2)")
		n, err := db.Exec("UPDATE t SET k = k + 10 WHERE (SELECT SUM(k) FROM t WHERE k = 2) = 6")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 3 {
			t.Errorf("%s: updated %d rows, want 3 (predicate is row-independent under snapshot semantics)", name, n)
		}
		got := queryStrings(t, db, "SELECT id, k FROM t ORDER BY id")
		want := [][]string{{"1", "12"}, {"2", "12"}, {"3", "12"}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows = %v, want %v", name, got, want)
		}
	}
}

// TestUpdateWithInSelfSubquery is the issue's regression shape:
// UPDATE t SET ... WHERE id IN (SELECT ... FROM t ...). Row id=12 is only
// a member of the IN set if some row's k equals 12 — which only happens
// AFTER row id=2 is updated. Snapshot semantics must not see it.
func TestUpdateWithInSelfSubquery(t *testing.T) {
	indexed, plain := dmlTestDBs()
	for name, db := range map[string]*Database{"indexed": indexed, "plain": plain} {
		db.MustExec("INSERT INTO t VALUES (2, 2), (12, 2)")
		n, err := db.Exec("UPDATE t SET k = k + 10 WHERE id IN (SELECT k FROM t WHERE k = 2)")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 1 {
			t.Errorf("%s: updated %d rows, want 1", name, n)
		}
		got := queryStrings(t, db, "SELECT id, k FROM t ORDER BY id")
		want := [][]string{{"2", "12"}, {"12", "2"}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows = %v, want %v (id=12 must not see the in-flight k=12)", name, got, want)
		}
	}
}

// TestDeleteSelfSubquerySeesSnapshot: deleting rows above the average of
// the same table. The average must be the pre-statement one for every
// row; a compact-in-place executor re-averages a half-compacted heap and
// deletes rows the pristine average would keep.
func TestDeleteSelfSubquerySeesSnapshot(t *testing.T) {
	indexed, plain := dmlTestDBs()
	for name, db := range map[string]*Database{"indexed": indexed, "plain": plain} {
		db.MustExec("INSERT INTO t VALUES (1, 9), (2, 1), (3, 2)")
		n, err := db.Exec("DELETE FROM t WHERE k > (SELECT AVG(k) FROM t)") // avg = 4
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 1 {
			t.Errorf("%s: deleted %d rows, want 1", name, n)
		}
		got := queryStrings(t, db, "SELECT id, k FROM t ORDER BY id")
		want := [][]string{{"2", "1"}, {"3", "2"}}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows = %v, want %v", name, got, want)
		}
	}
}

// TestDeleteCancellationMidLoopInvariant: a DELETE whose context is
// cancelled mid-scan changes nothing — every row stays, once, it reports
// no deleted row, and the indexes agree with the heap.
func TestDeleteCancellationMidLoopInvariant(t *testing.T) {
	db := NewDatabase()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const total, cancelAt = 1000, 300
	db.SetFuncs(funcMap{"CANCEL_AT": {MaxArgs: -1, Scalar: func(args []Value) (Value, error) {
		v := args[0].AsInt()
		if v == cancelAt {
			cancel()
		}
		return Bool(v%3 == 0), nil
	}}})
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	rows := make([][]any, total)
	for i := range rows {
		rows[i] = []any{i, i}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}

	n, err := db.ExecContext(ctx, "DELETE FROM t WHERE CANCEL_AT(v)")
	if CodeOf(err) != ErrCanceled || n != 0 {
		t.Fatalf("(n, err) = (%d, %v), want (0, ErrCanceled)", n, err)
	}
	res, err := db.Query("SELECT id FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != total {
		t.Fatalf("%d rows after the cancelled DELETE, want %d", len(res.Rows), total)
	}
	for i, r := range res.Rows {
		if id := int(r[0].AsInt()); id != i {
			t.Fatalf("row %d has id %d: a row was lost or duplicated", i, id)
		}
	}
	// Point lookups agree with the heap.
	for id := 0; id < total; id++ {
		res, err := db.Query("SELECT v FROM t WHERE id = ?", id)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("index lookup id=%d found %d rows, want 1", id, len(res.Rows))
		}
	}
}

// TestDMLSnapshotCancellationAtomic: an UPDATE with a subquery is atomic
// under cancellation — nothing is applied if its scan is interrupted.
func TestDMLSnapshotCancellationAtomic(t *testing.T) {
	db := NewDatabase()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db.SetFuncs(funcMap{"CANCEL_AT2": {MaxArgs: -1, Scalar: func(args []Value) (Value, error) {
		if args[0].AsInt() == 100 {
			cancel()
		}
		return Bool(true), nil
	}}})
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
	rows := make([][]any, 500)
	for i := range rows {
		rows[i] = []any{i, i}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	before := queryStrings(t, db, "SELECT id, v FROM t")
	n, err := db.ExecContext(ctx,
		"UPDATE t SET v = v + 1000 WHERE CANCEL_AT2(v) AND id >= (SELECT MIN(id) FROM t)")
	if CodeOf(err) != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n != 0 {
		t.Errorf("snapshot UPDATE reported %d affected rows after cancellation, want 0", n)
	}
	after := queryStrings(t, db, "SELECT id, v FROM t")
	if !reflect.DeepEqual(before, after) {
		t.Errorf("snapshot UPDATE applied partial changes despite cancellation")
	}
}

// TestUpdateEnforcesUnique: moving a row onto an occupied UNIQUE key
// must fail with ErrConstraint whatever the access path — a heap walk, an
// equality index lookup, a WHERE or SET with a subquery — exactly as the
// equivalent INSERT would, and change nothing. (Before this was enforced,
// the UPDATE applied silently and left two rows under one unique key.)
func TestUpdateEnforcesUnique(t *testing.T) {
	build := func() *Database {
		db := NewDatabase()
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
		db.MustExec("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
		return db
	}
	check := func(db *Database, sql string, params ...any) {
		t.Helper()
		if _, err := db.Exec(sql, params...); CodeOf(err) != ErrConstraint {
			t.Errorf("%q: err = %v, want ErrConstraint", sql, err)
		}
		got := queryStrings(t, db, "SELECT id FROM t ORDER BY id")
		if want := [][]string{{"1"}, {"2"}, {"3"}}; !reflect.DeepEqual(got, want) {
			t.Errorf("%q: ids after failed update = %v, want %v", sql, got, want)
		}
		for _, id := range []int{1, 2, 3} {
			res, err := db.Query("SELECT v FROM t WHERE id = ?", id)
			if err != nil || len(res.Rows) != 1 {
				t.Errorf("%q: index lookup id=%d found %d rows (err %v), want 1", sql, id, len(res.Rows), err)
			}
		}
	}
	check(build(), "UPDATE t SET id = 1 WHERE v > 15")                       // heap walk
	check(build(), "UPDATE t SET id = 1 WHERE id = ?", 2)                    // equality fast path
	check(build(), "UPDATE t SET id = (SELECT MIN(id) FROM t) WHERE v = 20") // subquery
	// Distinct new keys are fine whatever the path, including a shift and a
	// rotation that only the final state admits (each key vacated before
	// re-occupied): UNIQUE is checked over the statement's final state.
	db := build()
	db.MustExec("UPDATE t SET id = id + 100 WHERE v >= 20")
	got := queryStrings(t, db, "SELECT id FROM t ORDER BY id")
	if want := [][]string{{"1"}, {"102"}, {"103"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("disjoint unique update = %v, want %v", got, want)
	}
	db = build()
	db.MustExec("UPDATE t SET id = id + 1")
	got = queryStrings(t, db, "SELECT id, v FROM t ORDER BY id")
	if want := [][]string{{"2", "10"}, {"3", "20"}, {"4", "30"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unique key shift without a subquery = %v, want %v", got, want)
	}
	db = build()
	db.MustExec("UPDATE t SET id = 4 - id WHERE id <= 3 AND v >= (SELECT MIN(v) FROM t)")
	got = queryStrings(t, db, "SELECT id, v FROM t ORDER BY id")
	if want := [][]string{{"1", "30"}, {"2", "20"}, {"3", "10"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unique key rotation with a subquery = %v, want %v", got, want)
	}
}

// TestDMLBindsNamesBeforeAnyRow: a name that does not resolve, an
// aggregate out of place and a missing ? are properties of the statement,
// not of the data — UPDATE, DELETE and INSERT report them with SELECT's
// typed errors when no row qualifies, whatever the conjunct order and
// whether or not an index serves the rest of the WHERE, and change nothing.
func TestDMLBindsNamesBeforeAnyRow(t *testing.T) {
	cases := []struct {
		sql    string
		params []any
		code   ErrorCode
	}{
		{"UPDATE t SET k = nosuch WHERE id = -1", nil, ErrNoColumn},
		{"DELETE FROM t WHERE id = -1 AND nosuch = 1", nil, ErrNoColumn},
		{"DELETE FROM t WHERE nosuch = 1 AND id = -1", nil, ErrNoColumn},
		{"DELETE FROM t WHERE id < NULL AND nosuch = 1", nil, ErrNoColumn},
		{"UPDATE t SET k = NOSUCHFN(k) WHERE id = -1", nil, ErrNoFunction},
		{"DELETE FROM t WHERE id = -1 AND NOSUCHFN(k) = 1", nil, ErrNoFunction},
		{"UPDATE t SET k = SUM(k) WHERE id = -1", nil, ErrMisuse},
		{"DELETE FROM t WHERE id = -1 AND COUNT(*) > 0", nil, ErrMisuse},
		{"UPDATE t SET k = ? WHERE id = -1", nil, ErrParams},
		{"DELETE FROM t WHERE id = ? AND k = ?", []any{-1}, ErrParams},
		{"INSERT INTO t VALUES (?, ?)", []any{7}, ErrParams},
		{"INSERT INTO t VALUES (7, NOSUCHFN(1))", nil, ErrNoFunction},
	}
	indexed, plain := dmlTestDBs()
	for name, db := range map[string]*Database{"indexed": indexed, "plain": plain} {
		db.MustExec("INSERT INTO t VALUES (1, 10), (2, 20)")
		for _, c := range cases {
			if n, err := db.Exec(c.sql, c.params...); CodeOf(err) != c.code || n != 0 {
				t.Errorf("%s: %q %v = (%d, %v), want code %s", name, c.sql, c.params, n, err, c.code)
			}
		}
		if got, want := queryStrings(t, db, "SELECT id, k FROM t"), [][]string{{"1", "10"}, {"2", "20"}}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: rows after failed statements = %v, want %v", name, got, want)
		}
	}
}

// TestDMLAccessPathsCountedLikeSelect: UPDATE and DELETE find their rows
// with the scan a SELECT over the same WHERE runs, so the five scan
// counters move by the same amounts — including the tombstones a heap
// walk steps over — and by the access path the WHERE implies.
func TestDMLAccessPathsCountedLikeSelect(t *testing.T) {
	type counts struct{ index, ranged, full, rows, tombs uint64 }
	delta := func(a, b Stats) counts {
		return counts{b.IndexScans - a.IndexScans, b.IndexRangeScans - a.IndexRangeScans,
			b.FullScans - a.FullScans, b.RowsScanned - a.RowsScanned, b.TombstonesSkipped - a.TombstonesSkipped}
	}
	// 40 rows, k = id % 10, ids 30..39 deleted and not yet vacuumed.
	for _, c := range []struct {
		dml, where     string
		params         []any
		indexed, plain counts
	}{
		{"UPDATE t SET k = k", "id = 3", nil, counts{index: 1, rows: 1}, counts{full: 1, rows: 30, tombs: 10}},
		{"UPDATE t SET k = k", "id = ? AND k >= 0", []any{3}, counts{index: 1, rows: 1}, counts{full: 1, rows: 30, tombs: 10}},
		{"UPDATE t SET k = k", "k BETWEEN 2 AND 3 AND id < 20", nil, counts{ranged: 1, rows: 6, tombs: 2}, counts{full: 1, rows: 30, tombs: 10}},
		{"UPDATE t SET k = k", "id % 2 = 0", nil, counts{full: 1, rows: 30, tombs: 10}, counts{full: 1, rows: 30, tombs: 10}},
		{"DELETE FROM t", "id = 33", nil, counts{index: 1}, counts{full: 1, rows: 30, tombs: 10}},
		{"DELETE FROM t", "k > ? AND id < 0", []any{7}, counts{ranged: 1, rows: 6, tombs: 2}, counts{full: 1, rows: 30, tombs: 10}},
		{"DELETE FROM t", "id < 0 OR k < 0", nil, counts{full: 1, rows: 30, tombs: 10}, counts{full: 1, rows: 30, tombs: 10}},
		// A NULL bound on an indexed column is true of no row: nothing is read.
		{"DELETE FROM t", "k < ? AND id >= 0", []any{nil}, counts{index: 1}, counts{full: 1, rows: 30, tombs: 10}},
		{"UPDATE t SET k = k", "id BETWEEN 1 AND NULL", nil, counts{index: 1}, counts{full: 1, rows: 30, tombs: 10}},
	} {
		indexed, plain := dmlTestDBs()
		for i, db := range []*Database{indexed, plain} {
			for id := 0; id < 40; id++ {
				db.MustExec("INSERT INTO t VALUES (?, ?)", id, id%10)
			}
			db.MustExec("DELETE FROM t WHERE id >= 30")
			want := []counts{c.indexed, c.plain}[i]
			s0 := db.Stats()
			queryStrings(t, db, "SELECT id FROM t WHERE "+c.where, c.params...)
			s1 := db.Stats()
			if _, err := db.Exec(c.dml+" WHERE "+c.where, c.params...); err != nil {
				t.Fatal(err)
			}
			sel, dml := delta(s0, s1), delta(s1, db.Stats())
			if sel != want || dml != want {
				t.Errorf("%s WHERE %s (indexed=%v): SELECT moved %+v, DML moved %+v, want %+v",
					c.dml, c.where, i == 0, sel, dml, want)
			}
		}
	}
}

// TestIndexDoesNotChangeCrossKindAnswer: a comparand of another kind
// than the column — text against INTEGER — equals no row under the
// filter's Value.Compare, so it must find none through the index either,
// in SELECT, UPDATE and DELETE, as a literal or a bound parameter; a REAL
// that Compare does equate with the INTEGER finds the row both ways.
func TestIndexDoesNotChangeCrossKindAnswer(t *testing.T) {
	indexed, plain := dmlTestDBs()
	for name, db := range map[string]*Database{"indexed": indexed, "plain": plain} {
		db.MustExec("INSERT INTO t VALUES (5, 50), (6, 60)")
		for _, c := range []struct {
			where  string
			params []any
			want   int
		}{
			{"id = '5'", nil, 0},
			{"id = ?", []any{"5"}, 0},
			{"id = 5.0", nil, 1},
			{"id = ?", []any{5.0}, 1},
		} {
			if got := len(queryStrings(t, db, "SELECT id FROM t WHERE "+c.where, c.params...)); got != c.want {
				t.Errorf("%s: SELECT WHERE %s %v found %d rows, want %d", name, c.where, c.params, got, c.want)
			}
			if n, err := db.Exec("UPDATE t SET k = k + 1 WHERE "+c.where, c.params...); err != nil || n != c.want {
				t.Errorf("%s: UPDATE WHERE %s %v = (%d, %v), want %d", name, c.where, c.params, n, err, c.want)
			}
		}
		if n, err := db.Exec("DELETE FROM t WHERE id = '5'"); err != nil || n != 0 {
			t.Errorf("%s: DELETE WHERE id = '5' = (%d, %v), want 0", name, n, err)
		}
		if n, err := db.Exec("DELETE FROM t WHERE id = ?", 5.0); err != nil || n != 1 {
			t.Errorf("%s: DELETE WHERE id = 5.0 = (%d, %v), want 1", name, n, err)
		}
	}
}

// TestNaNIsStoredAsNull: a NaN — bound as a parameter, or made by arithmetic
// — is NULL by the time it is a Value (Float), as in SQLite, so the answer
// does not depend on who compares: under Compare a stored NaN equalled every
// number, so `v + 0 = 5` found the NaN row where the index on v did not, and
// `v >= 5` differed again between the row closures and the vector kernels.
// Both cells — indexed or plain — one answer.
func TestNaNIsStoredAsNull(t *testing.T) {
	lowerMorselMinRows(t, 1)
	cases := []struct{ sql, want string }{
		{"SELECT id FROM x WHERE v = 5 ORDER BY id", "[[1]]"},
		{"SELECT id FROM x WHERE v + 0 = 5 ORDER BY id", "[[1]]"},
		{"SELECT id FROM x WHERE v >= 5 ORDER BY id", "[[1] [3]]"},
		{"SELECT id FROM x WHERE v + 0 >= 5 ORDER BY id", "[[1] [3]]"},
		{"SELECT id FROM x WHERE v < 5 OR v + 0 != 7.5 ORDER BY id", "[[1]]"},
		{"SELECT id FROM x WHERE v IS NULL", "[[2]]"},
		{"SELECT id FROM x ORDER BY v, id", "[[2] [1] [3]]"},
		{"SELECT COUNT(v), typeof(MIN(v)) FROM x", "[[2 real]]"},
		{"SELECT typeof(v), typeof(1e308 * 10 - 1e308 * 10) FROM x WHERE id = 2", "[[null null]]"},
	}
	for _, indexed := range []bool{true, false} {
		db := NewDatabase()
		db.MustExec("CREATE TABLE x (id INTEGER PRIMARY KEY, v REAL)")
		if indexed {
			db.MustExec("CREATE INDEX idx_x_v ON x (v)")
		}
		db.MustExec("INSERT INTO x VALUES (1, 5.0), (2, ?), (3, 7.5)", math.NaN())
		for _, c := range cases {
			if got := fmt.Sprint(queryStrings(t, db, c.sql)); got != c.want {
				t.Errorf("indexed=%v: %s = %s, want %s", indexed, c.sql, got, c.want)
			}
		}
		if indexed {
			if err := checkIndexesExact(db, "x"); err != nil {
				t.Error(err)
			}
		}
		db.Close()
	}
}

// TestAffinityCoercionOfNumericText pins what a numeric column does with
// text, whichever way the row arrives: text that is a number is stored as
// one — every spelling of zero included, which the old guard in coerce kept
// as TEXT so that WHERE a = 0 missed '0.0', '00' and '+0' — and text that is
// not stays TEXT.
func TestAffinityCoercionOfNumericText(t *testing.T) {
	cases := []struct{ in, intType, intVal, realType, realVal string }{
		{"0", "integer", "0", "real", "0.0"},
		{"0.0", "integer", "0", "real", "0.0"},
		{"00", "integer", "0", "real", "0.0"},
		{"+0", "integer", "0", "real", "0.0"},
		{"-0", "integer", "0", "real", "-0.0"},
		{"1.0", "integer", "1", "real", "1.0"},
		{" 7 ", "integer", "7", "real", "7.0"},
		{"", "text", "", "text", ""},
		{"abc", "text", "abc", "text", "abc"},
		{"1.5", "real", "1.5", "real", "1.5"},
	}
	paths := map[string]func(db *Database, id int, s string) error{
		"literal": func(db *Database, id int, s string) error {
			_, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, '%s', '%s')", id, s, s))
			return err
		},
		"param": func(db *Database, id int, s string) error {
			_, err := db.Exec("INSERT INTO t VALUES (?, ?, ?)", id, s, s)
			return err
		},
		"InsertRows": func(db *Database, id int, s string) error {
			return db.InsertRows("t", [][]any{{id, s, s}})
		},
	}
	for name, insert := range paths {
		db := NewDatabase()
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, r REAL)")
		var want [][]string
		for i, c := range cases {
			if err := insert(db, i, c.in); err != nil {
				t.Fatalf("%s: insert %q: %v", name, c.in, err)
			}
			want = append(want, []string{c.intType, c.intVal, c.realType, c.realVal})
		}
		if got := queryStrings(t, db, "SELECT typeof(a), a, typeof(r), r FROM t ORDER BY id"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %v\nwant %v", name, got, want)
		}
		if got := queryStrings(t, db, "SELECT COUNT(*) FROM t WHERE a = 0"); got[0][0] != "5" {
			t.Errorf("%s: %s of the 5 spellings of zero equal 0", name, got[0][0])
		}
	}
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (a INTEGER)")
	db.MustExec("INSERT INTO t(a) VALUES ('0.0'),('00'),('0'),('-0')")
	if got := queryStrings(t, db, "SELECT COUNT(*) FROM t WHERE a = 0"); got[0][0] != "4" {
		t.Errorf("COUNT(*) WHERE a = 0 over '0.0','00','0','-0' = %s, want 4", got[0][0])
	}
}
