package sqldb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// Batch-form functions (func.go, batchcall.go, filterOp in exec.go): a
// statement that calls one must answer exactly as the same statement over
// the function's scalar form does — row for row, in order, at every table
// size — while asking about each distinct argument tuple once, a window at a
// time, after every cheaper conjunct, and no further ahead than its consumer
// needs.

// funcMap is the FuncSet of the tests: a map from upper-cased name.
type funcMap map[string]Func

func (m funcMap) LookupFunc(name string) (Func, bool) {
	f, ok := m[name]
	return f, ok
}

// udfScalars are the test functions in scalar form. None can tell Int(5)
// from Float(5.0), nor one NULL from another: values a batch-form call files
// under one class.
var udfScalars = map[string]ScalarFunc{
	// PICK(task, v): a verdict on v under a task name.
	"PICK": func(a []Value) (Value, error) {
		if a[1].IsNull() {
			return Bool(a[0].AsText() == "nulls"), nil
		}
		return Bool(int64(a[1].AsFloat()*2)%3 == int64(len(a[0].AsText()))%3), nil
	},
	// SCORE(v): a coarse score, so that ORDER BY over it ties heavily.
	"SCORE": func(a []Value) (Value, error) { return Float(float64(int64(a[0].AsFloat()) % 4)), nil },
	// TAG(v): a transformation to TEXT.
	"TAG": func(a []Value) (Value, error) {
		if a[0].IsNull() {
			return Null, nil
		}
		return Text(fmt.Sprintf("<%g>", a[0].AsFloat())), nil
	},
}

// seenTuples records what a batch-form function was asked, call by call.
type seenTuples struct {
	mu    sync.Mutex
	calls [][][]Value
}

func (s *seenTuples) tuples() (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.calls {
		n += len(c)
	}
	return n
}

// udfSets returns the test functions as a scalar-form set and a batch-form
// set that records what it is asked.
func udfSets() (scalar, batch funcMap, seen *seenTuples) {
	scalar, batch, seen = funcMap{}, funcMap{}, &seenTuples{}
	for name, fn := range udfScalars {
		fn := fn
		arity := 1
		if name == "PICK" {
			arity = 2
		}
		scalar[name] = Func{MinArgs: arity, MaxArgs: arity, Scalar: fn}
		batch[name] = Func{MinArgs: arity, MaxArgs: arity, Batch: func(_ context.Context, args [][]Value) ([]Value, []error) {
			kept := make([][]Value, len(args))
			vals := make([]Value, len(args))
			for i, a := range args {
				kept[i] = append([]Value(nil), a...)
				vals[i], _ = fn(a)
			}
			seen.mu.Lock()
			seen.calls = append(seen.calls, kept)
			seen.mu.Unlock()
			return vals, nil
		}}
	}
	return scalar, batch, seen
}

// udfDB builds t (n rows: v repeats every 40 rows as an INTEGER, a REAL of
// the same value, or NULL; g has 7 values) and a small dimension table d.
func udfDB(t testing.TB, n int) *Database {
	t.Helper()
	db := NewDatabase(WithMaxWorkers(4))
	// v is declared without a numeric affinity, so it keeps what it is given.
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, g INTEGER, v ANY, w INTEGER, s TEXT)")
	db.MustExec("CREATE TABLE d (g INTEGER, label TEXT)")
	rows := make([][]any, n)
	for i := range rows {
		var v any = i % 40
		switch {
		case i%11 == 0:
			v = nil
		case i%3 == 0:
			v = float64(i % 40) // the REAL twin of an INTEGER some other row holds
		}
		rows[i] = []any{i, i % 7, v, (i * 7) % 40, fmt.Sprintf("s%d", i%13)}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 7; g += 2 {
		db.MustExec("INSERT INTO d VALUES (?, ?)", g, fmt.Sprintf("g%d", g))
	}
	if kinds := queryStrings(t, db, "SELECT DISTINCT TYPEOF(v) FROM t ORDER BY 1"); len(kinds) != 3 {
		t.Fatalf("t.v holds kinds %v, want integer, null and real", kinds)
	}
	return db
}

var udfCorpus = []string{
	"SELECT id FROM t WHERE PICK('a', v)",
	"SELECT id FROM t WHERE PICK('nulls', v) AND id < 900",
	"SELECT id FROM t WHERE PICK('ab', w) AND g = 3 AND PICK('a', v)",
	"SELECT id FROM t WHERE NOT PICK('abc', v) AND w > 10",
	"SELECT id FROM t WHERE PICK('a', v) OR PICK('ab', w)",
	"SELECT id FROM t WHERE PICK('a', SCORE(v))",
	"SELECT id FROM t WHERE SCORE(v) >= 2 ORDER BY id DESC LIMIT 25",
	"SELECT id FROM t WHERE PICK('a', v) LIMIT 3",
	"SELECT id FROM t WHERE PICK('a', v) LIMIT 40 OFFSET 7",
	"SELECT COUNT(*), SUM(w) FROM t WHERE PICK('ab', v)",
	"SELECT g, COUNT(*) FROM t WHERE PICK('a', w) GROUP BY g ORDER BY g",
	"SELECT id FROM t ORDER BY SCORE(v) DESC LIMIT 9",
	"SELECT id, w FROM t WHERE g = 2 ORDER BY SCORE(w) DESC, id LIMIT 12",
	"SELECT w FROM t ORDER BY SCORE(w), id",
	"SELECT id, TAG(v) FROM t WHERE id < 300",
	"SELECT TAG(v) AS x, SCORE(w) FROM t WHERE PICK('a', v) ORDER BY SCORE(v) DESC LIMIT 20",
	"SELECT DISTINCT TAG(v) FROM t",
	"SELECT v FROM t WHERE id < 200 ORDER BY SCORE(v) DESC, id LIMIT 5",
	"SELECT v AS w, w AS v FROM t WHERE id < 200 ORDER BY SCORE(v) DESC, id LIMIT 5",
	"SELECT t.id, d.label FROM t JOIN d ON t.g = d.g WHERE PICK('a', t.v) AND t.id < 700",
	"SELECT t.id FROM t LEFT JOIN d ON t.g = d.g WHERE PICK('nulls', d.g) AND t.id < 100",
	"SELECT label FROM d WHERE EXISTS (SELECT 1 FROM t WHERE t.g = d.g AND PICK('abc', t.v))",
	"SELECT id FROM t WHERE id IN (SELECT w FROM t WHERE PICK('a', v)) AND id < 50",
	"SELECT id, CASE WHEN PICK('a', v) THEN TAG(w) ELSE 'no' END FROM t WHERE id < 120",
	"SELECT id FROM t WHERE PICK('a', v) ORDER BY id LIMIT 4",
}

func udfRun(db *Database, fs FuncSet, sql string) ([][]string, QueryStats, error) {
	rows, err := db.QueryRows(WithFuncs(context.Background(), fs), sql)
	if err != nil {
		return nil, QueryStats{}, err
	}
	var out [][]string
	for rows.Next() {
		r := make([]string, len(rows.Row()))
		for i, v := range rows.Row() {
			r[i] = v.Kind().String() + ":" + v.AsText()
		}
		out = append(out, r)
	}
	return out, rows.Stats(), rows.Err()
}

// TestBatchFormMatchesScalarForm is the differential: every statement of the
// corpus returns the same rows in the same order whichever form its
// functions were lent in, below the pool's size gate and above it, and the
// plan shows the conjunct gathered in a filter of its own at both sizes.
func TestBatchFormMatchesScalarForm(t *testing.T) {
	for _, n := range []int{600, 5000} {
		db := udfDB(t, n)
		scalar, batch, seen := udfSets()
		for _, sql := range udfCorpus {
			want, _, err := udfRun(db, scalar, sql)
			if err != nil {
				t.Fatalf("n=%d scalar %q: %v", n, sql, err)
			}
			got, stats, err := udfRun(db, batch, sql)
			if err != nil {
				t.Fatalf("n=%d batch %q: %v", n, sql, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d %q:\n batch  %v\n scalar %v", n, sql, got, want)
			}
			if stats.LMCalls == 0 || stats.LMBatches == 0 || stats.LMCalls-stats.LMDedup > stats.LMCalls {
				t.Errorf("n=%d %q: LMCalls/LMBatches/LMDedup = %d/%d/%d", n, sql, stats.LMCalls, stats.LMBatches, stats.LMDedup)
			}
		}
		// NULLs are one class and Int(5) / Float(5.0) another: 40 values and
		// NULL under one task is at most 41 tuples, over any number of rows.
		seen.calls = nil
		if _, stats, err := udfRun(db, batch, "SELECT COUNT(*) FROM t WHERE PICK('a', v)"); err != nil || seen.tuples() > 41 ||
			stats.LMCalls != uint64(n) || stats.LMDedup != uint64(n-seen.tuples()) {
			t.Errorf("n=%d: %d tuples sent for %d rows of 41 distinct values (stats %+v, err %v)", n, seen.tuples(), n, stats, err)
		}
		for _, call := range seen.calls {
			for i, a := range call {
				for _, b := range call[:i] {
					if a[1].IsNull() && b[1].IsNull() || !a[1].IsNull() && !b[1].IsNull() && a[1].Compare(b[1]) == 0 {
						t.Fatalf("n=%d: one call was asked about %v and %v", n, a, b)
					}
				}
			}
		}
		plan, err := db.queryRows(WithFuncs(context.Background(), batch), mustSelect(t, db, udfCorpus[2]), nil, nil, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		p := &planPrinter{}
		p.describe(plan.root, 0)
		plan.Close()
		out := strings.Join(p.lines, "\n")
		if wantNode := "  batch-call filter PICK('a', v)"; !strings.Contains(out, wantNode) {
			t.Errorf("n=%d: plan has no %q:\n%s", n, wantNode, out)
		}
		if db.LiveSnapshots() != 0 {
			t.Errorf("n=%d: LiveSnapshots = %d, want 0", n, db.LiveSnapshots())
		}
		assertNoWorkerLeak(t)
	}
}

func mustSelect(t testing.TB, db *Database, sql string) *SelectStmt {
	t.Helper()
	sel, err := db.plans.selectStmt(sql, "test")
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// TestBatchCallsStopWithTheirConsumer: under a bare LIMIT the first window
// is what the LIMIT asks for and later ones double, so a statement that
// needs one row asks about one; and a cheap conjunct written after the
// batch-form one still runs first, so the function sees only its survivors.
func TestBatchCallsStopWithTheirConsumer(t *testing.T) {
	for _, n := range []int{600, 5000} {
		db := udfDB(t, n)
		_, batch, seen := udfSets()
		for _, c := range []struct {
			sql string
			max int // tuples the function may be asked about
		}{
			{"SELECT id FROM t WHERE SCORE(w) = 0 LIMIT 1", 1},                   // row 0 passes: one window of one row
			{"SELECT id FROM t WHERE SCORE(w) = 1 LIMIT 1", 1 + 2 + 4},           // row 3 is the first to pass
			{"SELECT id FROM t WHERE SCORE(w) = 1 LIMIT 2 OFFSET 1", 3 + 6 + 12}, // rows 3, 7, 11
			{"SELECT id FROM t WHERE PICK('a', v) AND id < 10", 10},
			{"SELECT id FROM t WHERE PICK('a', v) AND id < 10 AND PICK('ab', w)", 20},
			{"SELECT id FROM t WHERE EXISTS (SELECT 1 FROM d WHERE PICK('a', d.g)) AND id < 3", 4},
			// Over a scan that walks the key in order: the walk reads ahead
			// what the LIMIT asks for, the window asks about as much.
			{"SELECT id FROM t WHERE SCORE(w) = 0 ORDER BY id LIMIT 1", 1},
			{"SELECT id FROM t WHERE SCORE(w) = 1 ORDER BY id LIMIT 1", 1 + 2 + 4},
			// ... and under the tie-sort of a trailing key, which streams: the
			// windows too start at what the LIMIT asks for, and the sort reads
			// on to the next passing row (row 4) to close row 0's run.
			{"SELECT id FROM t WHERE SCORE(w) = 0 ORDER BY id, w LIMIT 1", 1 + 2 + 4},
		} {
			seen.calls = nil
			if _, _, err := udfRun(db, batch, c.sql); err != nil {
				t.Fatalf("%q: %v", c.sql, err)
			}
			if got := seen.tuples(); got == 0 || got > c.max {
				t.Errorf("n=%d %q: the function was asked about %d tuples, want 1..%d", n, c.sql, got, c.max)
			}
		}
	}
}

// TestBatchElementFailure: a failed element aborts the statement, on the row
// that asked for it, with ErrExternal wrapping the cause; a row a LIMIT stops
// short of never raises its element's error; the wrong number of arguments is
// ErrMisuse; nothing is left behind.
func TestBatchElementFailure(t *testing.T) {
	errBoom := errors.New("boom")
	for _, n := range []int{600, 5000} {
		db := udfDB(t, n)
		ctx, cancel := context.WithCancel(context.Background())
		fs := funcMap{"FRAGILE": {MinArgs: 1, MaxArgs: 1, Batch: func(ctx context.Context, args [][]Value) ([]Value, []error) {
			vals, errs := make([]Value, len(args)), make([]error, len(args))
			for i, a := range args {
				switch vals[i] = Bool(true); a[0].AsInt() {
				case 17:
					errs[i] = fmt.Errorf("model said: %w", errBoom)
				case 23:
					cancel()
					errs[i] = ctx.Err() // the statement's own context, cancelled from inside the call
				}
			}
			return vals, errs
		}}}
		ctx = WithFuncs(ctx, fs)
		for _, c := range []struct {
			sql  string
			code ErrorCode
			is   error
		}{
			{"SELECT id FROM t WHERE FRAGILE(id) AND id < 20", ErrExternal, errBoom},
			{"SELECT id FROM t WHERE id < 20 ORDER BY FRAGILE(id)", ErrExternal, errBoom},
			{"SELECT FRAGILE(id) FROM t WHERE id BETWEEN 15 AND 19", ErrExternal, errBoom},
			{"SELECT id FROM t WHERE FRAGILE(id) LIMIT 5", ErrUnknown, nil}, // stops at row 4
			{"SELECT id FROM t WHERE FRAGILE(id, 1)", ErrMisuse, nil},
			{"SELECT id FROM t WHERE FRAGILE()", ErrMisuse, nil},
		} {
			_, err := db.QueryContext(ctx, c.sql)
			if CodeOf(err) != c.code || c.is != nil && !errors.Is(err, c.is) {
				t.Errorf("n=%d %q: err = %v (code %s), want code %s wrapping %v", n, c.sql, err, CodeOf(err), c.code, c.is)
			}
			if c.code == ErrExternal && SQLStateFor(err) != "38000" {
				t.Errorf("%q: SQLSTATE %s, want 38000", c.sql, SQLStateFor(err))
			}
		}
		// A request cancelled while its call is out: the element fails with
		// the context's error, and whichever notices first — the call's
		// ErrExternal or the engine's own ErrCanceled — wraps it.
		_, err := db.QueryContext(ctx, "SELECT id FROM t WHERE id > 17 AND FRAGILE(id)")
		if c := CodeOf(err); !errors.Is(err, context.Canceled) || c != ErrExternal && c != ErrCanceled {
			t.Errorf("n=%d cancelled mid-call: err = %v (code %s)", n, err, c)
		}
		if db.LiveSnapshots() != 0 || db.Stats().OpenCursors != 0 {
			t.Errorf("n=%d: LiveSnapshots = %d, OpenCursors = %d after failed statements, want 0", n, db.LiveSnapshots(), db.Stats().OpenCursors)
		}
		assertNoWorkerLeak(t)
	}
}

// TestFuncSetsPerStatement: a set bound to a context is seen by that
// context's statements alone, over the database's own; the built-ins cannot
// be shadowed; and statements of many goroutines, each with its own set, run
// side by side on one database (the race detector checks the rest).
func TestFuncSetsPerStatement(t *testing.T) {
	db := udfDB(t, 200)
	constant := func(s string) funcMap {
		return funcMap{
			"WHO":   {Scalar: func([]Value) (Value, error) { return Text(s), nil }},
			"UPPER": {MinArgs: 1, MaxArgs: 1, Scalar: func([]Value) (Value, error) { return Text(s), nil }},
		}
	}
	db.SetFuncs(constant("database"))
	if got := queryStrings(t, db, "SELECT WHO(), UPPER('x')"); got[0][0] != "database" || got[0][1] != "X" {
		t.Errorf("database set: %v", got)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			me := fmt.Sprint("request ", g)
			ctx := WithFuncs(context.Background(), constant(me))
			for i := 0; i < 50; i++ {
				res, err := db.QueryContext(ctx, "SELECT WHO() FROM t WHERE id = ?", i)
				if err != nil || res.Rows[0][0].AsText() != me {
					t.Errorf("%s: got %v, %v", me, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := db.QueryContext(WithFuncs(context.Background(), funcMap{}), "SELECT WHO()"); CodeOf(err) != ErrNoFunction {
		t.Errorf("an empty bound set still found WHO: %v", err)
	}
}

// TestCallMemo pins the dedup layer on its own: classes in first-seen order
// by Compare class, one call per Flush with only the new tuples, answers and
// element errors read back per class.
func TestCallMemo(t *testing.T) {
	var asked [][]Value
	m := NewCallMemo(func(_ context.Context, args [][]Value) ([]Value, []error) {
		var errs []error
		vals := make([]Value, len(args))
		for i, a := range args {
			asked = append(asked, a)
			vals[i] = Int(int64(len(asked)))
			if a[0].IsNull() {
				errs = make([]error, len(args))
				errs[i] = errors.New("null")
			}
		}
		return vals, errs
	})
	ctx := context.Background()
	m.Flush(ctx) // nothing queued: no call
	buf := make([]Value, 2)
	add := func(a, b Value) int { buf[0], buf[1] = a, b; return m.Add(buf) }
	got := []int{add(Int(5), Text("x")), add(Float(5), Text("x")), add(Int(5), Text("y")), add(Bool(true), Text("x")), add(Int(1), Text("x"))}
	if want := []int{0, 0, 1, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("classes = %v, want %v", got, want)
	}
	m.Flush(ctx)
	got = []int{add(Null, Null), add(Int(5), Text("y")), add(Null, Null), add(Text("5"), Text("x"))}
	if want := []int{3, 1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("classes = %v, want %v", got, want)
	}
	m.Flush(ctx)
	m.Flush(ctx)
	if m.Asked != 9 || m.Sent != 5 || m.Calls != 2 || len(asked) != 5 {
		t.Errorf("Asked/Sent/Calls = %d/%d/%d over %d tuples, want 9/5/2 over 5", m.Asked, m.Sent, m.Calls, len(asked))
	}
	for class := 0; class < 5; class++ {
		v, err := m.At(class)
		if class == 3 {
			if err == nil {
				t.Errorf("class 3 (NULL) lost its error")
			}
		} else if err != nil || v.AsInt() != int64(class+1) {
			t.Errorf("At(%d) = %v, %v", class, v, err)
		}
	}
	if k := asked[0][0].Kind(); k != KindInt || asked[0][1].AsText() != "x" {
		t.Errorf("the first-seen tuple was not the one sent: %v", asked[0])
	}
}
