package sqldb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// Tests for the executor's row-lifetime rule (exec.go): a row returned by
// next() is the producer's until the next next(), a consumer that keeps it
// copies it, and the planner (lendRows, stream.go) lets a producer reuse one
// output row only under a consumer that drops what it reads. Every producer
// that can be lent — hash join, index join, projection, aggregation, and the
// scan a top-K is folded into — is put under every consumer that can
// sit above it, and the results must match the same statement on a serial
// database that keeps every row it is handed, and for the core shapes an
// oracle computed in Go.

// rowlifeData is the corpus as plain Go columns, so the oracles never ask
// the engine what the right answer is.
type rowlifeData struct {
	ak, av []int // a: id = position, k = id%37, v (-1 = NULL)
	bk, bv []int // b: join partner, some keys unmatched on either side
	ck, cv []int // c: small outer table
}

func genRowlifeData(seed int64) *rowlifeData {
	r := rand.New(rand.NewSource(seed))
	d := &rowlifeData{}
	for i := 0; i < 700; i++ {
		v := r.Intn(100)
		if r.Intn(12) == 0 {
			v = -1
		}
		d.ak, d.av = append(d.ak, i%37), append(d.av, v)
	}
	for i := 0; i < 150; i++ {
		d.bk, d.bv = append(d.bk, r.Intn(46)), append(d.bv, r.Intn(50))
	}
	for i := 0; i < 30; i++ {
		d.ck, d.cv = append(d.ck, r.Intn(40)), append(d.cv, r.Intn(100))
	}
	return d
}

func (d *rowlifeData) load(t testing.TB, indexed bool, opts ...Option) *Database {
	t.Helper()
	db := NewDatabase(opts...)
	db.MustExec("CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER, s TEXT)")
	db.MustExec("CREATE TABLE b (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)")
	db.MustExec("CREATE TABLE c (id INTEGER PRIMARY KEY, k INTEGER, v INTEGER)")
	if indexed {
		db.MustExec("CREATE INDEX b_k ON b (k)")
		db.MustExec("CREATE INDEX c_k ON c (k)")
	}
	fill := func(table string, ks, vs []int, text bool) {
		rows := make([][]any, len(ks))
		for i := range rows {
			var v any = vs[i]
			if vs[i] < 0 {
				v = nil
			}
			rows[i] = []any{i, ks[i], v}
			if text {
				rows[i] = append(rows[i], fmt.Sprintf("s%d", i%11))
			}
		}
		if err := db.InsertRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	fill("a", d.ak, d.av, true)
	fill("b", d.bk, d.bv, false)
	fill("c", d.ck, d.cv, false)
	return db
}

// rowlifeCorpus is producer × consumer. Joins hash on the plain database and
// probe b's index on the indexed one; single-table statements fold into their
// scan unless their shape keeps the sort above it, and only a is over the
// pool's size gate.
var rowlifeCorpus = []string{
	// A lent join under: project, filter, group without and with a
	// representative row, DISTINCT, full sort, top-K sort, LIMIT.
	"SELECT a.id, b.id, b.v FROM a JOIN b ON a.k = b.k",
	"SELECT a.id, b.v FROM a JOIN b ON a.k = b.k WHERE a.v + b.v > 90",
	"SELECT a.k, COUNT(*), SUM(b.v) FROM a JOIN b ON a.k = b.k GROUP BY a.k",
	"SELECT a.k, a.id, b.id, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY a.k",
	"SELECT a.s, MIN(b.v), b.id FROM a JOIN b ON a.k = b.k WHERE b.v > 5 GROUP BY a.s HAVING COUNT(*) > 3",
	"SELECT DISTINCT a.k, b.v FROM a JOIN b ON a.k = b.k",
	"SELECT a.id, b.id FROM a JOIN b ON a.k = b.k ORDER BY b.v, a.id DESC, b.id",
	"SELECT a.id, b.id, b.v FROM a JOIN b ON a.k = b.k ORDER BY b.v DESC, a.id, b.id LIMIT 9",
	"SELECT a.id, b.id FROM a JOIN b ON a.k = b.k LIMIT 7 OFFSET 3",
	// NULL padding and a residual predicate build rows in the same buffer.
	"SELECT a.id, b.id FROM a LEFT JOIN b ON a.k = b.k AND a.v < b.v WHERE a.id < 200",
	"SELECT a.k, COUNT(b.id) FROM a LEFT JOIN b ON a.k = b.k GROUP BY a.k ORDER BY 2 DESC, 1 LIMIT 5",
	// A lent join as the probe side of the next join, which is lent too.
	"SELECT a.id, b.id, c.id FROM a JOIN b ON a.k = b.k JOIN c ON b.v = c.k WHERE a.id < 300",
	"SELECT c.v, COUNT(*) FROM a JOIN b ON a.k = b.k JOIN c ON b.v = c.k GROUP BY c.v ORDER BY 2 DESC, 1 LIMIT 4",
	// Drained: a derived table (here the build side of the outer join) and
	// subquery results own their rows whatever produced them.
	"SELECT c.id, x.n FROM c JOIN (SELECT a.k AS k, COUNT(*) AS n FROM a JOIN b ON a.k = b.k GROUP BY a.k) x ON x.k = c.k",
	"SELECT x.aid, x.bv FROM (SELECT a.id AS aid, b.v AS bv FROM a JOIN b ON a.k = b.k ORDER BY b.v DESC, a.id, b.id LIMIT 12) x WHERE x.bv > 10",
	"SELECT id FROM c WHERE k IN (SELECT b.k FROM a JOIN b ON a.k = b.k WHERE a.v > 95)",
	// Correlated subqueries are reset and re-pulled per outer row.
	"SELECT c.id, (SELECT COUNT(*) FROM a JOIN b ON a.k = b.k WHERE a.v > c.v) FROM c",
	"SELECT c.id FROM c WHERE EXISTS (SELECT 1 FROM a JOIN b ON a.k = b.k WHERE b.v = c.v AND a.id < 100)",
	"SELECT c.id, (SELECT a.id FROM a WHERE a.v > c.v ORDER BY a.v, a.id DESC LIMIT 1) FROM c",
	"SELECT c.id, (SELECT b.id FROM a JOIN b ON a.k = b.k WHERE a.k = c.k ORDER BY b.v DESC, a.id, b.id LIMIT 1) FROM c",

	// A lent projection or aggregation under a top-K sort the scan does not
	// take: a key the scan cannot resolve, DISTINCT, GROUP BY.
	"SELECT id, v * 2 AS vv FROM a ORDER BY vv + 1 DESC, id LIMIT 6",
	"SELECT DISTINCT k, v % 3 FROM a ORDER BY k DESC, 2 LIMIT 5",
	"SELECT k, COUNT(*) AS n, SUM(v) FROM a GROUP BY k ORDER BY n DESC, k LIMIT 4 OFFSET 1",
	"SELECT s, k, MAX(v) FROM a GROUP BY s HAVING COUNT(*) > 2 ORDER BY 3 DESC, s LIMIT 5",
	"SELECT id, v FROM c ORDER BY v DESC, id LIMIT 5",
	"SELECT x.id, b.id FROM (SELECT id, k FROM c ORDER BY v DESC, id LIMIT 6) x JOIN b ON b.k = x.k",
	"SELECT id FROM a WHERE id IN (SELECT id FROM c ORDER BY v, id LIMIT 10)",

	// The scan with the top-K folded in: top level, drained into a
	// derived table, and re-pulled under a correlated subquery.
	"SELECT id, v FROM a ORDER BY v DESC, id LIMIT 8",
	"SELECT id, k + v AS kv, s FROM a WHERE v > 20 ORDER BY 2, s DESC, id LIMIT 10 OFFSET 4",
	"SELECT x.id, c.id FROM (SELECT id, k FROM a ORDER BY v, id DESC LIMIT 15) x JOIN c ON c.k = x.k",
	"SELECT c.id, (SELECT a.id FROM a WHERE a.v >= c.v AND a.k <> c.k ORDER BY a.v, a.k DESC, a.id LIMIT 1) FROM c",
}

// rowlifeRows runs one statement through the streaming cursor, keeping every
// row the cursor hands out without copying it — the caller owns those — and
// renders them only after the cursor is exhausted.
func rowlifeRows(db *Database, sql string) ([]string, error) {
	rows, err := db.QueryRows(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var held []Row
	for rows.Next() {
		held = append(held, rows.Row())
	}
	out := make([]string, len(held))
	for i, r := range held {
		out[i] = fmt.Sprint(r)
	}
	return out, rows.Err()
}

// TestRowLifetimeContract runs the corpus on the lending configurations and
// holds each to a serial database that keeps every row it is handed. (The
// proof that it can fail is a row of TestDifferential's mutation table: a
// top-K heap that retains its lent rows.)
func TestRowLifetimeContract(t *testing.T) {
	lowerMorselMinRows(t, 256)
	d := genRowlifeData(5)
	for _, indexed := range []bool{false, true} {
		ref := d.load(t, indexed, WithMaxWorkers(1))
		want := make(map[string][]string)
		for _, sql := range rowlifeCorpus {
			rows, err := rowlifeRows(ref, sql)
			if err != nil {
				t.Fatalf("reference %q: %v", sql, err)
			}
			want[sql] = rows
		}
		for _, workers := range []int{1, 4} {
			db := d.load(t, indexed, WithMaxWorkers(workers))
			for _, sql := range rowlifeCorpus {
				got, err := rowlifeRows(db, sql)
				if err != nil {
					t.Fatalf("indexed=%v workers=%d %q: %v", indexed, workers, sql, err)
				}
				if !reflect.DeepEqual(got, want[sql]) {
					t.Fatalf("indexed=%v workers=%d %q:\n got %v\nwant %v", indexed, workers, sql, got, want[sql])
				}
				aq, err := db.ExplainAnalyze(context.Background(), sql)
				if err != nil {
					t.Fatalf("indexed=%v workers=%d ExplainAnalyze(%q): %v", indexed, workers, sql, err)
				}
				if aq.rootRows() != uint64(len(got)) {
					t.Fatalf("indexed=%v workers=%d %q: analyzed root emitted %d rows, the cursor %d",
						indexed, workers, sql, aq.rootRows(), len(got))
				}
			}
		}
	}
}

// TestRowLifetimeCorpusReachesEveryLentProducer keeps the corpus honest:
// the plans it is written for are the plans it gets.
func TestRowLifetimeCorpusReachesEveryLentProducer(t *testing.T) {
	lowerMorselMinRows(t, 256)
	d := genRowlifeData(5)
	seen := map[string]bool{"hash join": false, "index nested loop join": false,
		"(folded in scan)": false, "hash aggregate": false, "distinct": false, "subplan": false}
	rowTopK := false
	for _, indexed := range []bool{false, true} {
		db := d.load(t, indexed, WithMaxWorkers(4))
		for _, sql := range rowlifeCorpus {
			lines, err := db.Explain(sql)
			if err != nil {
				t.Fatalf("Explain(%q): %v", sql, err)
			}
			plan := strings.Join(lines, "\n")
			for k := range seen {
				seen[k] = seen[k] || strings.Contains(plan, k)
			}
			for _, l := range lines {
				rowTopK = rowTopK || strings.Contains(l, "(top ") && !strings.Contains(l, "folded")
			}
		}
	}
	for k, ok := range seen {
		if !ok {
			t.Errorf("no plan in the corpus shows %q", k)
		}
	}
	if !rowTopK {
		t.Error("no plan in the corpus keeps a row-path top-K sort")
	}
}

// TestRowLifetimeOracles checks the core lent shapes against answers
// computed in Go, so a consumer that wrongly kept a lent row on every
// configuration at once would still be caught.
func TestRowLifetimeOracles(t *testing.T) {
	lowerMorselMinRows(t, 256)
	d := genRowlifeData(9)
	type pair struct{ a, b int }
	var joined []pair // a JOIN b ON a.k = b.k, in a-then-b order
	for ai, ak := range d.ak {
		for bi, bk := range d.bk {
			if ak == bk {
				joined = append(joined, pair{ai, bi})
			}
		}
	}
	// Group by a.k: first-seen order, representative = first joined pair.
	type grp struct{ k, repA, repB, n, sum int }
	var groups []*grp
	byK := map[int]*grp{}
	for _, p := range joined {
		g := byK[d.ak[p.a]]
		if g == nil {
			g = &grp{k: d.ak[p.a], repA: p.a, repB: p.b}
			byK[g.k], groups = g, append(groups, g)
		}
		g.n++
		g.sum += d.bv[p.b]
	}
	var wantGroups, wantTop, wantScanTop []string
	for _, g := range groups {
		wantGroups = append(wantGroups, fmt.Sprint(Row{Int(int64(g.k)), Int(int64(g.repA)), Int(int64(g.repB)), Int(int64(g.n)), Int(int64(g.sum))}))
	}
	top := append([]pair(nil), joined...)
	sort.SliceStable(top, func(x, y int) bool {
		if d.bv[top[x].b] != d.bv[top[y].b] {
			return d.bv[top[x].b] > d.bv[top[y].b]
		}
		if top[x].a != top[y].a {
			return top[x].a < top[y].a
		}
		return top[x].b < top[y].b
	})
	for _, p := range top[:9] {
		wantTop = append(wantTop, fmt.Sprint(Row{Int(int64(p.a)), Int(int64(p.b)), Int(int64(d.bv[p.b]))}))
	}
	ids := make([]int, len(d.ak))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(x, y int) bool { // v DESC (NULL last), id
		if d.av[ids[x]] != d.av[ids[y]] {
			return d.av[ids[x]] > d.av[ids[y]]
		}
		return ids[x] < ids[y]
	})
	for _, id := range ids[:8] {
		wantScanTop = append(wantScanTop, fmt.Sprint(Row{Int(int64(id)), Int(int64(d.av[id]))}))
	}
	for _, indexed := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			db := d.load(t, indexed, WithMaxWorkers(workers))
			for _, c := range []struct {
				sql  string
				want []string
			}{
				{"SELECT a.k, a.id, b.id, COUNT(*), SUM(b.v) FROM a JOIN b ON a.k = b.k GROUP BY a.k", wantGroups},
				{"SELECT a.id, b.id, b.v FROM a JOIN b ON a.k = b.k ORDER BY b.v DESC, a.id, b.id LIMIT 9", wantTop},
				{"SELECT id, v FROM a ORDER BY v DESC, id LIMIT 8", wantScanTop},
			} {
				got, err := rowlifeRows(db, c.sql)
				if err != nil {
					t.Fatalf("%q: %v", c.sql, err)
				}
				if !reflect.DeepEqual(got, c.want) {
					t.Errorf("indexed=%v workers=%d %q:\n got %v\nwant %v", indexed, workers, c.sql, got, c.want)
				}
			}
		}
	}
}

// TestLentCursorCollectCopies: a lent cursor (QueryRowsStmt) builds its rows
// in reused buffers, and Collect copies each, so its result is Query's — for
// each head a lent cursor builds every row in one buffer for (a projection
// over a range, a hash join's probe, a GROUP BY, a DISTINCT, a LIMIT), over
// 20,000 sealed rows, above the pool's size gate.
func TestLentCursorCollectCopies(t *testing.T) {
	db := benchDB(t, 20000, WithMaxWorkers(4))
	db.MustExec("CREATE TABLE tags (cat INTEGER, tag TEXT)") // unindexed: a hash join builds on it
	for i := 0; i < 60; i++ {
		db.MustExec("INSERT INTO tags VALUES (?, ?)", i*7%50, fmt.Sprint("tag-", i))
	}
	db.Seal()
	join := "SELECT items.id, tags.tag, items.qty FROM items JOIN tags ON items.cat_id = tags.cat WHERE items.qty < 10"
	if lines, err := db.Explain(join); err != nil || !strings.Contains(strings.Join(lines, "\n"), "hash join") {
		t.Fatalf("%q does not plan a hash join: %v %v", join, lines, err)
	}
	for _, sql := range []string{
		"SELECT id, name, price * 2 FROM items WHERE id BETWEEN 5000 AND 5999",
		join,
		"SELECT cat_id, COUNT(*), SUM(qty), MIN(name) FROM items GROUP BY cat_id",
		"SELECT DISTINCT cat_id, qty % 4 FROM items WHERE qty > 40",
		"SELECT id, name, qty FROM items WHERE qty <> 7 LIMIT 60 OFFSET 3",
	} {
		want, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := db.QueryRowsStmt(context.Background(), mustSelect(t, db, sql), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rows.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) < 20 || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%q: lent Collect differs from Query (%d rows, want %d)", sql, len(got.Rows), len(want.Rows))
		}
	}
}

// bytesPerRun runs run once to warm up (an ordered view, the batch pool),
// then returns the bytes each of 20 more runs allocates.
func bytesPerRun(run func()) uint64 {
	run()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestLentCursorBytes pins where a wire cursor's saving sits, over benchDB's
// 20,000 sealed items with a pool of four. Before the cursor lent its rows
// and an index range was sized by its ids, a 1,000-id range cost 342 B a
// row, a 4,000-id one 325, and a 2,000-group GROUP BY 338 KB a run; since,
// 18, 9 and 203 KB. The ranges' ceiling is 32 B a row. The GROUP BY's
// bytes follow the pool instances that founded groups — one on a quiet
// scheduler, up to four under the race detector's — so its ceiling is
// per founding instance.
func TestLentCursorBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	db := benchDB(t, 20000, WithMaxWorkers(4))
	db.Seal()
	for _, c := range []struct {
		sql                 string
		rows                int
		ceiling, perFounder uint64 // B a run, and B a run per instance that founded groups
	}{
		{"SELECT id, name, price FROM items WHERE id BETWEEN 5000 AND 5999", 1000, 32 * 1000, 0},
		{"SELECT id, name, price FROM items WHERE id BETWEEN 5000 AND 8999", 4000, 32 * 4000, 0},
		{"SELECT cat_id, COUNT(*) FROM items GROUP BY cat_id", 2000, 0, 250_000},
	} {
		sel, n, founders := mustSelect(t, db, c.sql), 0, uint64(0)
		b := bytesPerRun(func() {
			rows, err := db.QueryRowsStmt(context.Background(), sel, nil)
			if err != nil {
				t.Fatal(err)
			}
			for n = 0; rows.Next(); n++ {
				if n == 0 {
					founders += uint64(rows.qc.founders)
				}
			}
			if err := rows.Err(); err != nil {
				t.Fatal(err)
			}
		})
		if n != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.sql, n, c.rows)
		}
		perRun := float64(founders) / 21 // bytesPerRun's warm-up run and its 20
		t.Logf("%s: %d B a run, %.1f founding instances a run", c.sql, b, perRun)
		if limit := c.ceiling + uint64(perRun*float64(c.perFounder)); b > limit {
			t.Errorf("%s: %d B a run (%.1f B a row, %.1f founding instances), ceiling %d", c.sql, b, float64(b)/float64(n), perRun, limit)
		}
	}
}

// TestExecSelectBuildsNoRow: Exec of a SELECT counts the rows of a lent
// cursor, so four times the rows allocate the same. The parent built each
// in fresh storage: 72 KB at 1,000 sealed rows, 269 KB at 4,000.
func TestExecSelectBuildsNoRow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bytes := func(n int) uint64 {
		db := NewDatabase()
		db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{i, fmt.Sprint("name-", i)}
		}
		if err := db.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		db.Seal()
		db.vacWG.Wait()
		return bytesPerRun(func() {
			if got, err := db.Exec("SELECT id, name FROM t"); err != nil || got != n {
				t.Fatalf("Exec counted %d rows (%v), want %d", got, err, n)
			}
		})
	}
	small, large := bytes(1000), bytes(4000)
	if large > small && (large-small)/3000 >= 8 {
		t.Errorf("Exec(SELECT) allocates %d B at 1,000 rows and %d at 4,000: %d B an extra row, want < 8", small, large, (large-small)/3000)
	}
}
