package sqldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// This file holds property-based tests over the engine's core invariants,
// complementing the behavioural tests in exec_test.go.

// referenceLike is an an oracle implementation of SQL LIKE built on a
// different algorithm (dynamic programming) for cross-checking likeMatch.
func referenceLike(pattern, s string) bool {
	p := strings.ToLower(pattern)
	t := strings.ToLower(s)
	dp := make([][]bool, len(p)+1)
	for i := range dp {
		dp[i] = make([]bool, len(t)+1)
	}
	dp[0][0] = true
	for i := 1; i <= len(p); i++ {
		if p[i-1] == '%' {
			dp[i][0] = dp[i-1][0]
		}
	}
	for i := 1; i <= len(p); i++ {
		for j := 1; j <= len(t); j++ {
			switch p[i-1] {
			case '%':
				dp[i][j] = dp[i-1][j] || dp[i][j-1]
			case '_':
				dp[i][j] = dp[i-1][j-1]
			default:
				dp[i][j] = dp[i-1][j-1] && p[i-1] == t[j-1]
			}
		}
	}
	return dp[len(p)][len(t)]
}

func TestLikeMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	alphabet := "ab%_c"
	randStr := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		return b.String()
	}
	for i := 0; i < 5000; i++ {
		pattern := randStr(r.Intn(8))
		s := strings.ReplaceAll(strings.ReplaceAll(randStr(r.Intn(10)), "%", "x"), "_", "y")
		if likeMatch(pattern, s) != referenceLike(pattern, s) {
			t.Fatalf("likeMatch(%q, %q) = %v disagrees with reference", pattern, s, likeMatch(pattern, s))
		}
	}
}

func TestCoerceIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	kinds := []Kind{KindInt, KindFloat, KindText, KindBool}
	for i := 0; i < 5000; i++ {
		v := randomValue(r)
		k := kinds[r.Intn(len(kinds))]
		once := coerce(v, k)
		twice := coerce(once, k)
		if !once.Equal(twice) || once.Kind() != twice.Kind() {
			t.Fatalf("coerce not idempotent: %v -> %v -> %v (kind %v)", v, once, twice, k)
		}
	}
}

func TestOrderByIsStableSort(t *testing.T) {
	// Rows with equal keys must keep insertion order.
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (k INTEGER, seq INTEGER)")
	r := rand.New(rand.NewSource(4))
	var rows [][]any
	for i := 0; i < 300; i++ {
		rows = append(rows, []any{r.Intn(5), i})
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT k, seq FROM t ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	lastSeq := map[int64]int64{}
	for _, row := range res.Rows {
		k, seq := row[0].AsInt(), row[1].AsInt()
		if prev, ok := lastSeq[k]; ok && seq < prev {
			t.Fatalf("ORDER BY not stable: key %d saw seq %d after %d", k, seq, prev)
		}
		lastSeq[k] = seq
	}
}

func TestConjunctsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		n := 1 + r.Intn(5)
		var parts []Expr
		for j := 0; j < n; j++ {
			parts = append(parts, &BinaryOp{
				Op:   "=",
				Left: &ColumnRef{Column: fmt.Sprintf("c%d", j), index: -1},
				Right: &Literal{
					Val: Int(int64(r.Intn(10))),
				},
			})
		}
		joined := joinConjuncts(parts)
		split := splitConjuncts(joined)
		if len(split) != n {
			t.Fatalf("round trip: %d conjuncts -> %d", n, len(split))
		}
		for j := range split {
			if split[j].String() != parts[j].String() {
				t.Fatalf("conjunct %d changed: %s vs %s", j, split[j], parts[j])
			}
		}
	}
	if joinConjuncts(nil) != nil {
		t.Error("empty conjunct list should join to nil")
	}
}

func TestRowKeyInjectiveOnDistinctRows(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	seen := map[string]Row{}
	for i := 0; i < 3000; i++ {
		row := Row{randomValue(r), randomValue(r)}
		k := rowKey(row)
		if prev, ok := seen[k]; ok {
			// Same key requires pairwise-equal values.
			for j := range row {
				if !row[j].Equal(prev[j]) {
					t.Fatalf("rowKey collision: %v vs %v", row, prev)
				}
			}
		}
		seen[k] = row
	}
}

func TestInsertSelectRoundTrip(t *testing.T) {
	// Copying a table through INSERT..SELECT preserves every row.
	if err := quick.Check(func(vals []int16) bool {
		db := NewDatabase()
		db.MustExec("CREATE TABLE a (v INTEGER)")
		db.MustExec("CREATE TABLE b (v INTEGER)")
		var rows [][]any
		for _, v := range vals {
			rows = append(rows, []any{int(v)})
		}
		if err := db.InsertRows("a", rows); err != nil {
			return false
		}
		if _, err := db.Exec("INSERT INTO b SELECT v FROM a"); err != nil {
			return false
		}
		ra, _ := db.Query("SELECT v FROM a ORDER BY v")
		rb, _ := db.Query("SELECT v FROM b ORDER BY v")
		return reflect.DeepEqual(ra.Rows, rb.Rows)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAggregatesMatchManualComputation(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (v INTEGER)")
	var rows [][]any
	sum, minV, maxV := int64(0), int64(1<<62), int64(-1<<62)
	n := 200
	for i := 0; i < n; i++ {
		v := int64(r.Intn(2001) - 1000)
		rows = append(rows, []any{v})
		sum += v
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[0].AsInt() != int64(n) || row[1].AsInt() != sum ||
		row[2].AsInt() != minV || row[3].AsInt() != maxV {
		t.Fatalf("aggregates %v; want n=%d sum=%d min=%d max=%d", row, n, sum, minV, maxV)
	}
	wantAvg := float64(sum) / float64(n)
	if diff := row[4].AsFloat() - wantAvg; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("avg = %v, want %v", row[4].AsFloat(), wantAvg)
	}
}

// TestAggregateArity: an aggregate's arguments are checked when its
// accumulator is built, before a row is read — over an empty table as over
// a full one. COUNT() counts rows as COUNT(*) does (SQLite's zero-argument
// form); every other wrong count is ErrMisuse, never a dropped argument.
func TestAggregateArity(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (g INTEGER, w INTEGER)")
	db.MustExec("CREATE TABLE e (g INTEGER)")
	db.MustExec("INSERT INTO t VALUES (1, 10), (NULL, 20), (3, NULL)")
	for _, c := range []struct {
		q    string
		want string // "" = ErrMisuse
	}{
		{"SELECT COUNT() FROM t", "[3]"},
		{"SELECT COUNT(*), COUNT(), COUNT(g), COUNT(w) FROM t", "[3 3 2 2]"},
		{"SELECT COUNT() FROM e", "[0]"},
		{"SELECT w, COUNT() FROM t GROUP BY w ORDER BY w", "[ 1][10 1][20 1]"},
		{"SELECT MIN(g, 0) FROM t", ""},
		{"SELECT MAX(g, w) FROM t", ""},
		{"SELECT COUNT(g, w) FROM t", ""},
		{"SELECT SUM() FROM t", ""},
		{"SELECT AVG() FROM t", ""},
		{"SELECT TOTAL(g, w) FROM t", ""},
		{"SELECT SUM(*) FROM t", ""},
		{"SELECT GROUP_CONCAT() FROM t", ""},
		{"SELECT GROUP_CONCAT(g, ',', ',') FROM t", ""},
		{"SELECT MIN(g, 0) FROM e", ""},
		{"SELECT g, SUM() FROM e GROUP BY g", ""},
		{"SELECT g FROM t GROUP BY g HAVING AVG(g, w) > 0", ""},
	} {
		res, err := db.Query(c.q)
		if c.want == "" {
			if CodeOf(err) != ErrMisuse {
				t.Errorf("%q: err = %v, want ErrMisuse", c.q, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.q, err)
			continue
		}
		var got strings.Builder
		for _, row := range res.Rows {
			texts := make([]string, len(row))
			for i, v := range row {
				texts[i] = v.AsText()
			}
			fmt.Fprint(&got, texts)
		}
		if got.String() != c.want {
			t.Errorf("%q = %s, want %s", c.q, got.String(), c.want)
		}
	}
}

// TestGroupConcatSeparator: GROUP_CONCAT's separator is any constant — a
// literal, a bound parameter, an expression — evaluated once per execution;
// one that reads a column is ErrMisuse, not a silent comma.
func TestGroupConcatSeparator(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (id INTEGER, w TEXT)")
	db.MustExec("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, NULL), (4, 'c')")
	for _, c := range []struct {
		q      string
		params []any
		want   string
	}{
		{"SELECT GROUP_CONCAT(w) FROM t", nil, "a,b,c"},
		{"SELECT GROUP_CONCAT(w, ';') FROM t", nil, "a;b;c"},
		{"SELECT GROUP_CONCAT(w, ?) FROM t", []any{"-"}, "a-b-c"},
		{"SELECT GROUP_CONCAT(w, ?) FROM t", []any{" + "}, "a + b + c"},
		{"SELECT GROUP_CONCAT(w, '|' || '|') FROM t", nil, "a||b||c"},
		{"SELECT id % 2, GROUP_CONCAT(DISTINCT w, ?) FROM t GROUP BY id % 2", []any{"/"}, "1 a; 0 b/c"},
	} {
		res, err := db.Query(c.q, c.params...)
		if err != nil {
			t.Fatalf("%q: %v", c.q, err)
		}
		rows := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			texts := make([]string, len(row))
			for j, v := range row {
				texts[j] = v.AsText()
			}
			rows[i] = strings.Join(texts, " ")
		}
		if got := strings.Join(rows, "; "); got != c.want {
			t.Errorf("%q %v = %q, want %q", c.q, c.params, got, c.want)
		}
	}
	for _, q := range []string{
		"SELECT GROUP_CONCAT(w, w) FROM t",
		"SELECT GROUP_CONCAT(w, CAST(id AS TEXT) || ',') FROM t",
		"SELECT id, GROUP_CONCAT(w, t.w) FROM t GROUP BY id",
	} {
		if _, err := db.Query(q); CodeOf(err) != ErrMisuse {
			t.Errorf("%q: err = %v, want ErrMisuse", q, err)
		}
	}
}

func TestGroupByPartitionsExactly(t *testing.T) {
	// Sum of group counts equals the table size; groups are disjoint.
	db := NewDatabase()
	db.MustExec("CREATE TABLE t (g TEXT, v INTEGER)")
	r := rand.New(rand.NewSource(23))
	groups := []string{"a", "b", "c", "d"}
	var rows [][]any
	for i := 0; i < 400; i++ {
		rows = append(rows, []any{groups[r.Intn(len(groups))], i})
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT g, COUNT(*) FROM t GROUP BY g")
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	seen := map[string]bool{}
	for _, row := range res.Rows {
		g := row[0].AsText()
		if seen[g] {
			t.Fatalf("group %q appears twice", g)
		}
		seen[g] = true
		total += row[1].AsInt()
	}
	if total != 400 {
		t.Fatalf("group counts sum to %d, want 400", total)
	}
}

func TestLeftJoinRowCountInvariant(t *testing.T) {
	// A LEFT JOIN on a unique right key yields exactly one output row per
	// left row when keys are unique on the right.
	db := NewDatabase()
	db.MustExec("CREATE TABLE l (k INTEGER)")
	db.MustExec("CREATE TABLE r (k INTEGER PRIMARY KEY, tag TEXT)")
	var lrows, rrows [][]any
	for i := 0; i < 100; i++ {
		lrows = append(lrows, []any{i})
		if i%2 == 0 {
			rrows = append(rrows, []any{i, fmt.Sprintf("r%d", i)})
		}
	}
	if err := db.InsertRows("l", lrows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("r", rrows); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT l.k, r.tag FROM l LEFT JOIN r ON l.k = r.k")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("left join rows = %d, want 100", len(res.Rows))
	}
	nulls := 0
	for _, row := range res.Rows {
		if row[1].IsNull() {
			nulls++
		}
	}
	if nulls != 50 {
		t.Fatalf("unmatched rows = %d, want 50", nulls)
	}
}

// ---------------------------------------------------------------------------
// Old-executor equivalence
//
// The engine's per-row path is compiled (compile.go) and its scans run
// kernels (vector.go); the interpreted evaluator that powered the old
// executor survives in interp_test.go. refSelect below reconstructs the old
// executor for single-table queries — interpreted predicates, no index
// selection, per-row projection and aggregation — and TestDifferential
// holds the engine to it over generated queries.

// refSelect is a miniature interpreted executor: full scan in slot order,
// interpreted WHERE, GROUP BY partitions in first-seen order (each with the
// row that founded it) and the aggregates COUNT/SUM/AVG/MIN/MAX, interpreted
// projection, DISTINCT, a stable sort on ORDER BY keys resolved as the engine
// resolves them (an output ordinal or name first, then the input), and
// LIMIT/OFFSET.
func refSelect(db *Database, stmt *SelectStmt) ([]Row, error) {
	tbl, err := db.lookupTable(stmt.From.Name)
	if err != nil {
		return nil, err
	}
	cols := make([]colInfo, len(tbl.Columns))
	for i, c := range tbl.Columns {
		cols[i] = colInfo{qual: stmt.From.effectiveName(), name: c.Name}
	}
	items, outCols, err := expandItems(stmt.Items, cols)
	if err != nil {
		return nil, err
	}
	env := newEvalEnv(cols, db, nil, nil, nil)
	var in []Row
	for id := 0; id < int(tbl.n.Load()); id++ {
		r := latestRowOf(tbl, id)
		if r == nil {
			continue
		}
		env.row = r
		if stmt.Where != nil {
			v, err := evalExpr(stmt.Where, env)
			if err != nil {
				return nil, err
			}
			if v.IsNull() || !v.AsBool() {
				continue
			}
		}
		in = append(in, r)
	}
	// eval evaluates e for one output row: over its input row, or — under
	// aggregation — over its group, whose founding row answers the rest.
	aggregate := len(stmt.GroupBy) > 0 || stmt.Having != nil
	for _, it := range items {
		aggregate = aggregate || exprContainsAggregate(it.Expr)
	}
	type group struct {
		keys []Value
		rows []Row
	}
	eval := func(e Expr, g *group) (Value, error) {
		if g == nil {
			return evalExpr(e, env)
		}
		for i, ge := range stmt.GroupBy {
			if ge.String() == e.String() {
				return g.keys[i], nil
			}
		}
		if fc, ok := e.(*FuncCall); ok && isAggregateName(fc.Name) {
			return refAggregate(fc, g.rows, env)
		}
		return evalExpr(e, env)
	}
	var groups []*group
	if aggregate {
		for _, r := range in {
			env.row = r
			keys := make([]Value, len(stmt.GroupBy))
			for i, ge := range stmt.GroupBy {
				if keys[i], err = evalExpr(ge, env); err != nil {
					return nil, err
				}
			}
			var g *group
			for _, h := range groups {
				if sameKeys(h.keys, keys) {
					g = h
					break
				}
			}
			if g == nil {
				g = &group{keys: keys}
				groups = append(groups, g)
			}
			g.rows = append(g.rows, r)
		}
		if len(groups) == 0 && len(stmt.GroupBy) == 0 {
			groups = []*group{{}}
		}
	}
	type keyed struct {
		out  Row
		keys []Value
	}
	var rows []keyed
	emit := func(g *group) error {
		if stmt.Having != nil {
			if v, err := eval(stmt.Having, g); err != nil || v.IsNull() || !v.AsBool() {
				return err
			}
		}
		out := make(Row, len(items))
		for i, it := range items {
			if out[i], err = eval(it.Expr, g); err != nil {
				return err
			}
		}
		keys := make([]Value, len(stmt.OrderBy))
		for i, ob := range stmt.OrderBy {
			if j := refOutputOrdinal(ob.Expr, outCols); j >= 0 {
				keys[i] = out[j]
			} else if keys[i], err = eval(ob.Expr, g); err != nil {
				return err
			}
		}
		rows = append(rows, keyed{out: out, keys: keys})
		return nil
	}
	if aggregate {
		for _, g := range groups {
			env.row = make(Row, len(cols)) // an empty input's group reads NULLs
			if len(g.rows) > 0 {
				env.row = g.rows[0]
			}
			if err := emit(g); err != nil {
				return nil, err
			}
		}
	} else {
		for _, r := range in {
			env.row = r
			if err := emit(nil); err != nil {
				return nil, err
			}
		}
	}
	if stmt.Distinct {
		var kept []keyed
		for _, r := range rows {
			dup := false
			for _, k := range kept {
				dup = dup || sameKeys(k.out, r.out)
			}
			if !dup {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for j, ob := range stmt.OrderBy {
			c := rows[a].keys[j].Compare(rows[b].keys[j])
			if c != 0 {
				if ob.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	lo, hi := 0, len(rows)
	if stmt.Offset != nil {
		v, err := evalExpr(stmt.Offset, env)
		if err != nil {
			return nil, err
		}
		lo = min(int(v.AsInt()), hi)
	}
	if stmt.Limit != nil {
		v, err := evalExpr(stmt.Limit, env)
		if err != nil {
			return nil, err
		}
		hi = min(lo+int(v.AsInt()), hi)
	}
	out := make([]Row, 0, hi-lo)
	for _, kr := range rows[lo:hi] {
		out = append(out, kr.out)
	}
	return out, nil
}

// sameKeys reports whether two tuples fall in one GROUP BY or DISTINCT
// class: NULL with NULL, and values that compare equal (7 with 7.0).
func sameKeys(a, b []Value) bool {
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() || !a[i].IsNull() && a[i].Compare(b[i]) != 0 {
			return false
		}
	}
	return true
}

// refOutputOrdinal is the output column an ORDER BY key names — by ordinal,
// or as a bare name exactly one output column answers to — or -1.
func refOutputOrdinal(e Expr, outCols []colInfo) int {
	switch t := e.(type) {
	case *Literal:
		if t.Val.Kind() == KindInt {
			return int(t.Val.AsInt()) - 1
		}
	case *ColumnRef:
		if j, n := findCol(outCols, "", t.Column); t.Table == "" && n == 1 {
			return j
		}
	}
	return -1
}

// refAggregate folds one aggregate over a group's rows, left to right.
func refAggregate(fc *FuncCall, rows []Row, env *evalEnv) (Value, error) {
	var n, isum int64
	var fsum float64
	floats := false
	best := Null
	for _, r := range rows {
		if fc.Star {
			n++
			continue
		}
		env.row = r
		v, err := evalExpr(fc.Args[0], env)
		if err != nil || v.IsNull() {
			if err != nil {
				return Null, err
			}
			continue
		}
		n++
		if v.Kind() == KindInt {
			isum += v.AsInt()
		} else {
			fsum, floats = fsum+v.AsFloat(), true
		}
		if c := v.Compare(best); best.IsNull() || fc.Name == "MIN" && c < 0 || fc.Name == "MAX" && c > 0 {
			best = v
		}
	}
	switch {
	case fc.Name == "COUNT":
		return Int(n), nil
	case n == 0:
		return Null, nil
	case fc.Name == "AVG":
		return Float((float64(isum) + fsum) / float64(n)), nil
	case fc.Name == "SUM" && floats:
		return Float(float64(isum) + fsum), nil
	case fc.Name == "SUM":
		return Int(isum), nil
	}
	return best, nil
}

func rowsToStrings(rows []Row) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = make([]string, len(r))
		for j, v := range r {
			if v.IsNull() {
				out[i][j] = "NULL"
			} else {
				out[i][j] = v.AsText()
			}
		}
	}
	return out
}

func TestTiedOrderByLimitKeepsProbeOrder(t *testing.T) {
	// With fully tied ORDER BY keys, the stable sort preserves join
	// emission order, so under LIMIT the planner must not flip the probe
	// side: the returned rows must match the left-major nested order
	// regardless of available indexes or relative table sizes.
	db := NewDatabase()
	db.MustExec("CREATE TABLE s (k INTEGER, tag TEXT)")
	db.MustExec("CREATE TABLE b (k INTEGER, v INTEGER)")
	db.MustExec("CREATE INDEX idx_b_k ON b (k)") // tempt the flipped index join
	db.MustExec("INSERT INTO s VALUES (1, 's1'), (1, 's2')")
	for i := 0; i < 50; i++ {
		db.MustExec("INSERT INTO b VALUES (1, ?)", i) // all rows tie on the join key
	}
	res, err := db.Query("SELECT s.tag, b.v FROM s JOIN b ON s.k = b.k ORDER BY s.k LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"s1", "0"}, {"s1", "1"}, {"s1", "2"}}
	if got := rowsToStrings(res.Rows); !reflect.DeepEqual(got, want) {
		t.Errorf("tied ORDER BY + LIMIT changed join emission order: got %v, want %v", got, want)
	}
}

func TestScalarSubqueryPlanIndependent(t *testing.T) {
	// A scalar subquery keeps only its first row (an implicit LIMIT 1), so
	// reordered join plans inside it would make the answer depend on which
	// indexes exist. Build the same data with and without an index on the
	// join key and require identical answers.
	build := func(withIndex bool) *Database {
		db := NewDatabase()
		db.MustExec("CREATE TABLE s (k INTEGER, sv INTEGER, tag TEXT)")
		db.MustExec("CREATE TABLE b (k INTEGER, v INTEGER)")
		if withIndex {
			db.MustExec("CREATE INDEX idx_s_k ON s (k)")
		}
		db.MustExec("INSERT INTO s VALUES (1, 5, 's1'), (1, 0, 's2')")
		db.MustExec("INSERT INTO b VALUES (1, 1), (1, 9)")
		return db
	}
	const sql = "SELECT (SELECT s.tag FROM s JOIN b ON s.k = b.k AND s.sv < b.v ORDER BY s.k)"
	ri, err := build(true).Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := build(false).Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Rows[0][0].AsText() != rp.Rows[0][0].AsText() {
		t.Errorf("scalar subquery answer depends on plan: indexed %q vs plain %q",
			ri.Rows[0][0].AsText(), rp.Rows[0][0].AsText())
	}
}

func TestDistinctIsIdempotent(t *testing.T) {
	db := testDB(t)
	once := queryStrings(t, db, "SELECT DISTINCT genre FROM movies ORDER BY genre")
	// Selecting DISTINCT over an already-distinct projection is a no-op.
	twice := queryStrings(t, db, "SELECT DISTINCT genre FROM (SELECT DISTINCT genre FROM movies) d ORDER BY genre")
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("distinct not idempotent: %v vs %v", once, twice)
	}
}
