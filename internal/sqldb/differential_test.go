package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestDifferential is the engine's one differential harness. The rule it
// holds the engine to is that an answer does not depend on how the engine
// ran it. One generated workload — a predicate generator, a corpus of query
// shapes and a DML step generator over one schema — runs in lockstep on six
// database configurations, and every step is checked by every oracle:
//
//   - agreement: every configuration returns the rows, the DML counts and
//     the errors the first one does, row for row and in order (the engine
//     defines the order of every shape: slot order, stable sorts, groups in
//     first-seen order, which recovery's replay keeps);
//   - refSelect: single-table shapes equal the interpreted reference
//     executor (property_test.go) over the latest rows;
//   - NoREC and TLP: each predicate counts the rows it filters, and it, its
//     negation and its NULL case partition the table;
//   - exact indexes: every index equals a bulk build over the surviving
//     versions (checkIndexesExact), on the indexed configurations;
//   - accounting: EXPLAIN ANALYZE's per-operator scans sum to RowsScanned;
//   - row loop: an aggregate equals the same statement over a one-row table
//     joined in front, which takes the row-at-a-time loop;
//   - rollback: a rolled-back transaction leaves the tables as they were;
//   - cached AST: a statement the cache handed out renders, after every
//     execution, as it did before its first.
//
// The configurations are six binary axes — workers, indexes, sealed
// storage, the statement path, row ownership, durability — crossed by a
// covering array, so every pair of axis values meets in some configuration.
// The mutation table at the bottom proves the oracles have teeth: each row
// breaks one thing, and the harness must name the oracle and the two sides
// that disagreed.

// The axes of a configuration, each off (the first name) or on.
const (
	axPooled  = iota // one worker, or a pool of four over a lowered size gate
	axIndexed        // no keys, or a primary key and secondary indexes
	axSealed         // heap only, or sealed now and then (and rehydrated by DML)
	axFresh          // texts through the statement cache, or ParseAll + ExecStmtTx / queryRows
	axLent           // Query's copied rows, or a lent cursor's (QueryRowsStmt + Collect)
	axDurable        // in memory, or on a memFS, closed and recovered now and then
	diffAxes
)

var diffAxisNames = [diffAxes][2]string{
	{"w1", "w4"}, {"plain", "indexed"}, {"heap", "sealed"},
	{"cached", "fresh"}, {"copied", "lent"}, {"memory", "recovered"},
}

type diffConfig [diffAxes]bool

func (c diffConfig) String() string {
	parts := make([]string, diffAxes)
	for i, on := range c {
		parts[i] = diffAxisNames[i][0]
		if on {
			parts[i] = diffAxisNames[i][1]
		}
	}
	return strings.Join(parts, "/")
}

// diffConfigs is a strength-2 covering array of the six axes: the first row
// is all off, and each axis is on in three of the other five, no two axes
// in the same three — so any two axes take all four pairs of values. Rows 1
// and 4 are also sealed × lent, and row 4 sealed × lent × recovered.
var diffConfigs = []diffConfig{
	{},
	{axPooled: true, axIndexed: true, axSealed: true, axLent: true},
	{axPooled: true, axIndexed: true, axFresh: true, axDurable: true},
	{axPooled: true, axSealed: true, axFresh: true},
	{axIndexed: true, axSealed: true, axLent: true, axDurable: true},
	{axFresh: true, axLent: true, axDurable: true},
}

// diffSchema is the workload's schema on an indexed configuration; a plain
// one drops the keys and the indexes, and keeps the constraint every
// configuration enforces alike. The one-row table sits in front of an
// aggregate's row-loop twin.
var diffSchema = []string{
	"CREATE TABLE t1 (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, c TEXT NOT NULL, f REAL, ok BOOL)",
	"CREATE INDEX t1_a ON t1 (a)",
	"CREATE TABLE t2 (id INTEGER PRIMARY KEY, t1_id INTEGER, d INTEGER)",
	"CREATE INDEX t2_t1_id ON t2 (t1_id)",
	"CREATE TABLE one (one_id INTEGER)",
	"INSERT INTO one VALUES (1)",
}

var diffWords = []string{"ant", "bee", "cat", "dge", "eel"}

// diffCreate creates the schema on db, with or without keys and indexes.
func diffCreate(db *Database, indexed bool) {
	for _, ddl := range diffSchema {
		if !indexed {
			if strings.HasPrefix(ddl, "CREATE INDEX") {
				continue
			}
			ddl = strings.ReplaceAll(ddl, " PRIMARY KEY", "")
		}
		db.MustExec(ddl)
	}
}

// diffRow is t1's row id: NULL-prone integers, a text, quarters and a flag.
// Some floats are a quarter plus 2^-10, which no decimal scale up to six
// places holds but every sum still adds exactly: row 1's, so that the first
// block seals raw on one value until setUp's delete takes row 1 and it seals
// as a decimal stream, and every third row's past the first block. The id
// picks them, so the rows draw from r as they would without them.
func diffRow(r *rand.Rand, id int) []any {
	var b, f any = r.Intn(50), float64(r.Intn(400)) / 4
	if r.Intn(9) == 0 {
		b = nil
	}
	if r.Intn(11) == 0 {
		f = nil
	}
	switch x, ok := f.(float64); {
	case id == 1:
		f = 0.25 + 1.0/1024
	case ok && id >= segBlockSlots && id%3 == 0:
		f = x + 1.0/1024
	}
	return []any{id, diffA(r), b, diffWords[r.Intn(len(diffWords))], f, r.Intn(2) == 1}
}

// diffA is a value of t1.a: mostly one of 30, a tenth of the time one of
// 2,000 — enough distinct keys that its ordered view splits chunks — and
// NULL one time in seven.
func diffA(r *rand.Rand) any {
	switch n := r.Intn(70); {
	case n < 10:
		return nil
	case n < 17:
		return 30 + r.Intn(2000)
	}
	return r.Intn(30)
}

// diffSeed draws n rows of t1 and 256 of t2 — two full chunks of its key's
// ordered view, so the next insert splits the last — whose t1_id dangles a
// fifth of the time.
func diffSeed(r *rand.Rand, n int) (t1, t2 [][]any) {
	for i := 0; i < n; i++ {
		t1 = append(t1, diffRow(r, i))
	}
	for i := 0; i < 2*ordChunkCap; i++ {
		t2 = append(t2, []any{i, r.Intn(n + n/4), r.Intn(30)})
	}
	return t1, t2
}

// diffLoad builds an indexed and a plain in-memory database over the same
// n seed rows of the harness's schema.
func diffLoad(t testing.TB, r *rand.Rand, n int) (indexed, plain *Database) {
	t.Helper()
	t1, t2 := diffSeed(r, n)
	dbs := [2]*Database{NewDatabase(), NewDatabase()}
	for i, db := range dbs {
		diffCreate(db, i == 0)
		if err := db.InsertRows("t1", t1); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows("t2", t2); err != nil {
			t.Fatal(err)
		}
	}
	return dbs[0], dbs[1]
}

// diffPred is the one predicate generator: a random predicate over t1,
// qualified so that it reads the same in a join, composed with AND, OR and
// NOT. Its atoms take every access path — equality and range on the
// indexed column and the key, NULL comparands that never match — and mix
// shapes the kernel compiler takes with shapes it rejects (%, LIKE,
// LENGTH), so both kernels and the row fallback run. ids bounds t1.id.
func diffPred(r *rand.Rand, ids int) string {
	n := r.Intn
	atoms := []string{
		fmt.Sprintf("t1.a = %d", n(30)),
		fmt.Sprintf("t1.a != %d", n(30)),
		fmt.Sprintf("t1.a > %d", n(30)),
		fmt.Sprintf("t1.a <= %d", n(30)),
		fmt.Sprintf("t1.a BETWEEN %d AND %d", n(15), 15+n(15)),
		fmt.Sprintf("t1.a <= %d AND t1.a >= %d", 20+n(10), n(10)),
		fmt.Sprintf("t1.a >= %d AND t1.a > 15", 15-n(2)), // the strict bound wins a tie
		fmt.Sprintf("t1.a > 15 AND t1.a >= %d", 15-n(2)),
		fmt.Sprintf("t1.a IN (%d, %d)", n(30), n(30)),
		"t1.a = NULL", // never true: the index path must agree
		"t1.a IS NULL",
		"t1.a IS NOT NULL",
		fmt.Sprintf("t1.a + 3 < %d", n(45)),
		fmt.Sprintf("t1.a * 2 >= %d", n(80)),
		fmt.Sprintf("t1.b > %d", n(50)),
		fmt.Sprintf("t1.b * 2 < %d", n(60)),
		"t1.b IS NULL",
		fmt.Sprintf("t1.f < %d.5", n(100)),
		fmt.Sprintf("t1.f >= %d.25", n(100)),
		"t1.f > t1.a",
		"t1.f IS NULL",
		"t1.ok",
		"NOT t1.ok",
		fmt.Sprintf("t1.c = '%s'", diffWords[n(len(diffWords))]),
		fmt.Sprintf("t1.c < '%c'", 'b'+rune(n(3))),
		fmt.Sprintf("t1.c IN ('ant', 'bee', '%c')", 'a'+rune(n(5))),
		fmt.Sprintf("t1.c LIKE '%%%c%%'", 'a'+rune(n(5))),
		fmt.Sprintf("t1.id %% %d = %d", 2+n(5), n(3)),
		fmt.Sprintf("t1.id + %d > %d", n(5), n(ids)),
		fmt.Sprintf("LENGTH(t1.c) > %d", n(4)),
		fmt.Sprintf("(t1.b < %d OR LENGTH(t1.c) > %d)", n(50), n(4)),
		fmt.Sprintf("t1.id = %d", n(ids)),
		fmt.Sprintf("t1.id > %d", n(ids)),
		fmt.Sprintf("t1.id BETWEEN %d AND %d", n(ids/2), ids/2+n(ids/2)),
		fmt.Sprintf("%d <= t1.id", n(ids)),
		fmt.Sprintf("t1.id >= %d AND t1.id < %d", n(ids/2), ids/2+n(ids/2)),
	}
	p := atoms[n(len(atoms))]
	for n(3) == 0 {
		op := "AND"
		if n(2) == 0 {
			op = "OR"
		}
		next := atoms[n(len(atoms))]
		if n(4) == 0 {
			next = "NOT (" + next + ")"
		}
		p = fmt.Sprintf("(%s %s %s)", p, op, next)
	}
	return p
}

// diffRefShapes are the single-table shapes, each answered by refSelect
// too: bare and kernel-heavy scans, compiled projections, plain and grouped
// aggregation (group keys of one class in two kinds, sorts by an alias that
// shadows a column and by the column), LIMIT/OFFSET early stops, sorts and
// DISTINCT above the scan, ordered-index walks with ties and NULLs.
var diffRefShapes = []func(r *rand.Rand, p string) string{
	func(r *rand.Rand, p string) string { return "SELECT id, a, c FROM t1 WHERE " + p },
	func(r *rand.Rand, p string) string { return "SELECT a + id * 2, f, c FROM t1 WHERE " + p },
	func(r *rand.Rand, p string) string {
		return "SELECT COUNT(*), MIN(a), MAX(id), SUM(a), AVG(f) FROM t1 WHERE " + p
	},
	func(r *rand.Rand, p string) string {
		return "SELECT c, COUNT(*), SUM(id), MIN(f) FROM t1 WHERE " + p + " GROUP BY c"
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT id, a FROM t1 WHERE %s LIMIT %d", p, 1+r.Intn(30))
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT f * 2, c FROM t1 WHERE %s LIMIT %d OFFSET %d", p, 1+r.Intn(20), r.Intn(10))
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT id, c FROM t1 WHERE %s ORDER BY id LIMIT %d", p, 1+r.Intn(15))
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT id, a, c FROM t1 WHERE %s ORDER BY id DESC LIMIT %d", p, 1+r.Intn(10))
	},
	func(r *rand.Rand, p string) string { return "SELECT DISTINCT ok, c FROM t1 WHERE " + p },
	func(r *rand.Rand, p string) string {
		key := "CASE WHEN id % 2 = 0 THEN a ELSE a * 1.0 END"
		return "SELECT " + key + ", c, COUNT(*), SUM(id) FROM t1 WHERE " + p + " GROUP BY " + key + ", c"
	},
	func(r *rand.Rand, p string) string {
		return "SELECT a AS f, COUNT(*) FROM t1 WHERE " + p + " GROUP BY a ORDER BY f"
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT a AS f, COUNT(*) FROM t1 WHERE %s GROUP BY a ORDER BY t1.f DESC, t1.id LIMIT %d", p, 1+r.Intn(30))
	},
	vecOrderShape,
	vecOrderShape,
	vecOrderShape,
	func(r *rand.Rand, p string) string {
		return "SELECT a, COUNT(*), SUM(b), MIN(b), MAX(c), AVG(b) FROM t1 WHERE " + p + " GROUP BY a"
	},
	func(r *rand.Rand, p string) string { return "SELECT COUNT(*), SUM(a + b) FROM t1 WHERE " + p },
	func(r *rand.Rand, p string) string { return "SELECT id, a, b FROM t1 ORDER BY a, id LIMIT 12" },
	func(r *rand.Rand, p string) string { return "SELECT id, a FROM t1 ORDER BY a" },
	func(r *rand.Rand, p string) string { return "SELECT id, a FROM t1 ORDER BY a DESC" },
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT id, a FROM t1 WHERE a >= %d AND a < %d ORDER BY a LIMIT %d", r.Intn(15), 15+r.Intn(15), 1+r.Intn(6))
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT id, c FROM t1 WHERE a = %d ORDER BY id", r.Intn(30))
	},
	func(r *rand.Rand, p string) string {
		return "SELECT a, COUNT(*), SUM(f) FROM t1 WHERE " + p + " GROUP BY a ORDER BY a"
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT * FROM t1 WHERE %s ORDER BY a * 2 + id DESC, id LIMIT %d", p, 1+r.Intn(20))
	},
	func(r *rand.Rand, p string) string {
		return "SELECT a * 2 + 1, UPPER(c), CASE WHEN a < 3 THEN 'lo' ELSE 'hi' END, f - 0.5, COALESCE(f, -1), LENGTH(c) FROM t1 WHERE " + p + " ORDER BY id"
	},
}

// diffJoinShapes join t1 and t2 — hash and index nested loop joins, flipped
// build sides and keys, residual and cross-table conjuncts, a predicate above
// a LEFT JOIN's nullable side, a top-K and a GROUP BY over a join — or read
// derived tables, correlated subqueries re-pulled per outer row, and output
// aliases in sort keys: the shapes refSelect does not answer.
var diffJoinShapes = []func(r *rand.Rand, p string) string{
	func(r *rand.Rand, p string) string {
		return "SELECT t1.id, t1.a, t2.d FROM t1 JOIN t2 ON t1.id = t2.t1_id WHERE " + p + " ORDER BY t1.id, t2.id"
	},
	func(r *rand.Rand, p string) string {
		return "SELECT t2.id, t1.c FROM t2 JOIN t1 ON t2.t1_id = t1.id WHERE " + p + " ORDER BY t2.id"
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT t1.id, t2.id FROM t1 JOIN t2 ON t2.t1_id = t1.id WHERE %s AND t2.d > %d AND (t1.a + t2.d > %d OR t1.a IN (t2.d, %d)) ORDER BY t1.id, t2.id", p, r.Intn(10), r.Intn(40), r.Intn(30))
	},
	func(r *rand.Rand, p string) string {
		return "SELECT t1.id, t2.id FROM t1 LEFT JOIN t2 ON t1.id = t2.t1_id AND t1.a < t2.d WHERE " + p + " ORDER BY t1.id, t2.id"
	},
	func(r *rand.Rand, p string) string {
		return "SELECT t1.id, t2.d FROM t1 LEFT JOIN t2 ON t1.id = t2.t1_id WHERE " + p + " ORDER BY t1.id, t2.id"
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT DISTINCT t1.a FROM t1 JOIN t2 ON t1.id = t2.t1_id ORDER BY t1.a LIMIT %d", 1+r.Intn(6))
	},
	func(r *rand.Rand, p string) string {
		return "SELECT t1.id, t2.d FROM t1 JOIN t2 ON t1.id = t2.id WHERE " + p + " ORDER BY t1.id"
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT t1.id, t2.d FROM t1 LEFT JOIN t2 ON t1.id = t2.t1_id WHERE t2.d > %d OR t2.d IS NULL ORDER BY t1.id, t2.id", r.Intn(30))
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT id, (SELECT t2.d FROM t2 WHERE t2.d > t1.a + %d ORDER BY t2.id DESC LIMIT 1) FROM t1 WHERE id %% 8 = %d AND %s ORDER BY id", r.Intn(25), r.Intn(8), p)
	},
	func(r *rand.Rand, p string) string {
		return "SELECT t1.id, t2.id, t2.d FROM t1 JOIN t2 ON t1.a = t2.d WHERE " + p + " ORDER BY t2.d DESC, t1.id, t2.id LIMIT 9"
	},
	func(r *rand.Rand, p string) string {
		return "SELECT t2.d, SUM(t1.b) AS s, MIN(t1.c) FROM t1 JOIN t2 ON t1.id = t2.t1_id WHERE " + p + " GROUP BY t2.d ORDER BY s DESC, t2.d LIMIT 10"
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT id FROM t1 WHERE id %% 10 = %d AND %s AND EXISTS (SELECT 1 FROM t2 WHERE t2.t1_id = t1.id AND t2.d > %d) ORDER BY id", r.Intn(10), p, r.Intn(20))
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT x.id, x.a FROM (SELECT id, a FROM t1 WHERE %s) x WHERE x.a > %d ORDER BY x.id", p, r.Intn(30))
	},
	func(r *rand.Rand, p string) string { // a sort key over an output alias: the top-K stays above the scan
		return fmt.Sprintf("SELECT id, a * 2 AS aa FROM t1 WHERE %s ORDER BY aa + f, id LIMIT %d", p, 1+r.Intn(20))
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT id FROM t1 WHERE id %% 40 = %d AND %s AND EXISTS (SELECT 1 FROM (SELECT t1_id FROM t2 WHERE d > %d) dd WHERE dd.t1_id = t1.id) ORDER BY id", r.Intn(40), p, r.Intn(15))
	},
	func(r *rand.Rand, p string) string {
		return fmt.Sprintf("SELECT id, (SELECT COUNT(*) FROM t2 JOIN one ON t2.d > one.one_id WHERE t2.t1_id = t1.id AND t2.d + one.one_id > %d) FROM t1 WHERE id %% 16 = %d AND %s ORDER BY id", r.Intn(20), r.Intn(16), p)
	},
}

// diffAggQueries are whole-table aggregates, each also run as its row-loop
// twin: every mergeable aggregate over groups of one class in two kinds,
// sorts by an alias that shadows a column and by the column, groups every
// pool instance founds in its own order (with a NULL key, and float parts
// to merge), and the DISTINCT and GROUP_CONCAT aggregates that keep to the
// serial fold or an unordered gather.
var diffAggQueries = []string{
	"SELECT a, COUNT(*), COUNT(b), SUM(b), AVG(b), MIN(b), MAX(b), MAX(c) FROM t1 GROUP BY a",
	"SELECT a % 7, COUNT(*), SUM(b) FROM t1 GROUP BY a % 7",
	"SELECT a % 7, SUM(f), AVG(f), TOTAL(f), COUNT(f) FROM t1 GROUP BY a % 7",
	"SELECT a, COUNT(*) FROM t1 GROUP BY a HAVING COUNT(*) > (SELECT COUNT(*) FROM t2 WHERE d < 1)",
	"SELECT COUNT(*), SUM(b), TOTAL(b), MIN(c), MAX(b) FROM t1",
	"SELECT COUNT(*) FROM t1 WHERE b > 2000",
	"SELECT id % 40, COUNT(*) FROM t1 WHERE b > 25 GROUP BY id % 40 HAVING COUNT(*) > 3",
	"SELECT a, SUM(b) FROM t1 GROUP BY a ORDER BY SUM(b) DESC LIMIT 5",
	"SELECT CASE WHEN id % 3 = 0 THEN a * 1.0 ELSE a END, COUNT(*), SUM(b) FROM t1 GROUP BY CASE WHEN id % 3 = 0 THEN a * 1.0 ELSE a END",
	"SELECT a % 9, CASE WHEN id % 2 = 0 THEN b / 10 ELSE b / 10 * 1.0 END, COUNT(*) FROM t1 GROUP BY a % 9, CASE WHEN id % 2 = 0 THEN b / 10 ELSE b / 10 * 1.0 END",
	"SELECT a AS b, COUNT(*) FROM t1 GROUP BY a ORDER BY b",
	"SELECT a AS b, COUNT(*) AS n FROM t1 GROUP BY a ORDER BY n DESC, b LIMIT 7",
	"SELECT a AS b, COUNT(*) FROM t1 GROUP BY a ORDER BY t1.b",
	"SELECT a AS b, COUNT(*) FROM t1 GROUP BY a ORDER BY t1.b DESC, t1.c LIMIT 9",
	"SELECT CASE WHEN id % 97 = 0 THEN NULL ELSE id % 700 END, COUNT(*), COUNT(b), SUM(b), " +
		"SUM(CASE WHEN id % 3 = 0 THEN b / 4.0 ELSE b END), TOTAL(b), AVG(b), MIN(c), MAX(b) " +
		"FROM t1 GROUP BY CASE WHEN id % 97 = 0 THEN NULL ELSE id % 700 END",
	"SELECT id % 3000, COUNT(DISTINCT b), SUM(DISTINCT b), GROUP_CONCAT(c), COUNT(*), " +
		"SUM(CASE WHEN id % 3 = 0 THEN b / 4.0 ELSE b END), TOTAL(b), AVG(b), MIN(b), MAX(c) FROM t1 GROUP BY id % 3000",
	"SELECT a % 5, GROUP_CONCAT(c) FROM t1 GROUP BY a % 5",
	"SELECT COUNT(DISTINCT c), SUM(DISTINCT b) FROM t1",
	"SELECT COUNT(DISTINCT a) FROM t1",
	"SELECT COUNT(DISTINCT c), MIN(a), MAX(a) FROM t1 WHERE a < 25",
	"SELECT COUNT(DISTINCT a), MAX(DISTINCT c) FROM t1 WHERE ok",
	"SELECT MIN(DISTINCT a), COUNT(DISTINCT id) FROM t1 WHERE a IS NOT NULL",
}

// diffDB is one configuration's database and the transactions it holds.
type diffDB struct {
	cfg    diffConfig
	db     *Database
	fs     *memFS   // what a durable configuration recovers from
	tx     *Txn     // the step's transaction leg: the session's on a cached configuration
	held   *Txn     // an old snapshot held across steps
	before []string // the tables as a leg to be rolled back found them
}

// diffFailure is an oracle's verdict: the two sides it compared — two
// configurations, or one and its reference — and what differed.
type diffFailure struct {
	step         int
	oracle, a, b string
	detail       string
}

func (f *diffFailure) Error() string {
	return fmt.Sprintf("step %d, %s: %s vs %s: %s", f.step, f.oracle, f.a, f.b, f.detail)
}

// cachedText is a statement a cached configuration's cache handed out, as
// it rendered before its first execution.
type cachedText struct {
	cfg           diffConfig
	sql, rendered string
	stmts         []Statement
}

// diffRun is one run of the workload.
type diffRun struct {
	r        *rand.Rand
	dbs      []*diffDB
	step     int
	nextID   int // t1's next id: the generated DML never reuses one
	nextT2   int
	reopens  int
	fEncs    map[byte]bool  // the encodings t1.f's sealed blocks took
	compared map[string]int // comparisons made, by oracle
	cached   map[*Database]map[string]*cachedText
	touched  []*cachedText // the cached texts the step executed
	configs  []diffConfig
	only     map[string]bool // the oracles that check; nil: every one
	// mutate, when set, changes a cached statement after its first
	// execution — the statement-cache rows of the mutation table. It
	// reports whether it did, and is cleared once it has.
	mutate func(sql string, st Statement, params []any) bool
}

// diffFocus narrows a run to some of the configurations and some of the
// oracles, or mutates a cached statement after its first execution. The
// zero focus is the whole harness.
type diffFocus struct {
	configs []diffConfig // nil: diffConfigs
	oracles []string     // nil: every oracle
	mutate  func(sql string, st Statement, params []any) bool
}

// on reports whether the run checks oracle.
func (h *diffRun) on(oracle string) bool { return h.only == nil || h.only[oracle] }

func (h *diffRun) fail(oracle string, a, b any, format string, args ...any) error {
	return &diffFailure{step: h.step, oracle: oracle, a: fmt.Sprint(a), b: fmt.Sprint(b), detail: fmt.Sprintf(format, args...)}
}

// runDifferential runs steps steps of the workload drawn from seed on the
// focus's configurations and returns the comparisons made by oracle and the
// first failure.
func runDifferential(seed int64, steps int, f diffFocus) (map[string]int, error) {
	h := &diffRun{r: rand.New(rand.NewSource(seed)), compared: map[string]int{}, fEncs: map[byte]bool{},
		cached: map[*Database]map[string]*cachedText{}, configs: f.configs, mutate: f.mutate}
	if h.configs == nil {
		h.configs = diffConfigs
	}
	if f.oracles != nil {
		h.only = map[string]bool{}
		for _, o := range f.oracles {
			h.only[o] = true
		}
	}
	defer h.close()
	if err := h.setUp(); err != nil {
		return h.compared, err
	}
	for h.step = 1; h.step <= steps; h.step++ {
		if err := h.stepOnce(); err != nil {
			return h.compared, err
		}
	}
	return h.compared, h.finish()
}

// setUp builds every configuration over one seed table: a first block and
// a heap tail — the block sealed on the sealed configurations, thinned by a
// delete that rehydrates it, and sealed again with holes — checkpointed on
// the durable ones.
func (h *diffRun) setUp() error {
	t1, t2 := diffSeed(h.r, segBlockSlots+200)
	h.nextID, h.nextT2 = len(t1), len(t2)
	for _, cfg := range h.configs {
		d := &diffDB{cfg: cfg}
		if cfg[axDurable] {
			d.fs = newMemFS()
		}
		if err := h.open(d); err != nil {
			return err
		}
		h.dbs = append(h.dbs, d)
		diffCreate(d.db, cfg[axIndexed])
		for _, load := range []struct {
			table string
			rows  [][]any
		}{{"t1", t1}, {"t2", t2}} {
			if err := d.db.InsertRows(load.table, load.rows); err != nil {
				return h.fail("setup", cfg, "the seed rows", "%v", err)
			}
		}
	}
	h.seal()
	if err := h.write("DELETE FROM t1 WHERE id < 1000 AND id % 2 != 0", nil); err != nil {
		return err
	}
	h.seal()
	for _, d := range h.dbs {
		if d.cfg[axDurable] {
			if err := d.db.Checkpoint(); err != nil { // recovery replays the log from here
				return h.fail("recovery", d.cfg, "its log", "checkpoint: %v", err)
			}
		}
	}
	for _, d := range h.dbs {
		if !d.cfg[axPooled] {
			continue
		}
		plan, err := d.db.Explain("SELECT id FROM t1 WHERE b > 10")
		if err != nil || !strings.Contains(strings.Join(plan, "\n"), "workers=4") {
			return h.fail("setup", d.cfg, "the pool", "no pooled scan planned (%v):\n%s", err, strings.Join(plan, "\n"))
		}
	}
	return nil
}

func (h *diffRun) open(d *diffDB) error {
	opts := []Option{WithMaxWorkers(1)}
	if d.cfg[axPooled] {
		opts = []Option{WithMaxWorkers(4)}
	}
	if !d.cfg[axDurable] {
		d.db = NewDatabase(opts...)
		return nil
	}
	db, err := Open("db", append(opts, WithDurability("", DurabilityOptions{fs: d.fs, CheckpointBytes: -1}))...)
	if err != nil {
		return h.fail("recovery", d.cfg, "its log", "%v", err)
	}
	d.db = db
	return nil
}

func (h *diffRun) close() {
	h.release()
	for _, d := range h.dbs {
		if d.tx != nil {
			_ = d.tx.Rollback()
		}
		_ = d.db.Close()
	}
}

// stepOnce is one step: a change — autocommit DML, a transaction leg of up
// to three statements and a delete left open for the reads, Vacuum, an old
// snapshot taken or let go, Seal, a close and recovery — then every read
// oracle, the leg's commit or rollback, and the cached statements' renders.
func (h *diffRun) stepOnce() error {
	r := h.r
	leg, rollback := false, false
	switch op := r.Intn(20); {
	case op < 11:
		if err := h.write(h.dml()); err != nil {
			return err
		}
	case op < 14:
		leg, rollback = true, r.Intn(2) == 0
		if err := h.begin(rollback); err != nil {
			return err
		}
		for i := r.Intn(3); i >= 0; i-- {
			if err := h.write(h.dml()); err != nil {
				return err
			}
		}
		if err := h.write("DELETE FROM t1 WHERE id = ?", []any{r.Intn(h.nextID)}); err != nil {
			return err
		}
		if h.dbs[0].held == nil && r.Intn(3) == 0 {
			h.hold() // the leg's rows are in progress to it
		}
	case op < 15:
		for _, d := range h.dbs {
			d.db.Vacuum()
		}
	case op < 16:
		if h.dbs[0].held != nil {
			h.release()
		} else {
			h.hold()
		}
	case op < 18:
		h.seal()
	default:
		if err := h.reopen(); err != nil {
			return err
		}
	}
	if err := h.read(); err != nil {
		return err
	}
	if leg {
		if err := h.end(rollback); err != nil {
			return err
		}
	}
	return h.renders()
}

// dml draws one statement: point, range and stripe DML over t1 with
// literals or parameters, inserts into both tables, statements every
// configuration refuses, a SELECT by the DML path, and UPDATEs and DELETEs
// whose subqueries read the table they change. It sets no id and inserts no
// id twice, so no configuration's key can refuse what another accepts.
func (h *diffRun) dml() (string, []any) {
	r := h.r
	id := func() int { return r.Intn(h.nextID + 1) }
	switch r.Intn(29) {
	case 0, 1, 2, 3, 4:
		h.nextID++
		return "INSERT INTO t1 VALUES (?, ?, ?, ?, ?, ?)", diffRow(r, h.nextID-1)
	case 5:
		h.nextT2++
		return "INSERT INTO t2 VALUES (?, ?, ?)", []any{h.nextT2 - 1, id(), r.Intn(30)}
	case 6: // refused alike everywhere: c is NOT NULL
		return "INSERT INTO t1 VALUES (?, 1, 2, NULL, 3.5, TRUE)", []any{h.nextID}
	case 7: // refused alike everywhere: no such column
		return "UPDATE t1 SET b = nosuch + 1 WHERE id = ?", []any{id()}
	case 8: // a SELECT through the DML path counts its rows
		return "SELECT id FROM t1 WHERE a = ?", []any{r.Intn(30)}
	case 9:
		return "UPDATE t1 SET a = ? WHERE id = ?", []any{diffA(r), Int(int64(id()))}
	case 10:
		return "UPDATE t1 SET c = ?, f = f - 0.25 WHERE id = ?", []any{diffWords[r.Intn(len(diffWords))], id()}
	case 11:
		return fmt.Sprintf("UPDATE t1 SET a = %d WHERE id %% 7 = %d", r.Intn(30), r.Intn(7)), nil
	case 12:
		lo := r.Intn(30)
		return "UPDATE t1 SET b = b + 1 WHERE a BETWEEN ? AND ?", []any{lo, lo + r.Intn(4)}
	case 13:
		return fmt.Sprintf("UPDATE t1 SET a = a + %d WHERE a BETWEEN %d AND %d", 1+r.Intn(9), r.Intn(25), r.Intn(30)), nil
	case 14:
		return fmt.Sprintf("UPDATE t1 SET a = NULL, ok = NOT ok WHERE id %% 31 = %d AND a <> %d", r.Intn(31), r.Intn(30)), nil
	case 15: // a text comparand equals no INTEGER row, index or not
		return fmt.Sprintf("UPDATE t1 SET b = b + 5 WHERE a = '%d'", r.Intn(30)), nil
	case 16:
		return "DELETE FROM t1 WHERE id = ?", []any{id()}
	case 17:
		return fmt.Sprintf("DELETE FROM t1 WHERE a BETWEEN %d AND %d", r.Intn(28), r.Intn(4)), nil
	case 18:
		return fmt.Sprintf("DELETE FROM t1 WHERE a IN (%d, %d) AND id %% 20 = %d", r.Intn(30), r.Intn(30), r.Intn(20)), nil
	case 19:
		return "DELETE FROM t2 WHERE t1_id = ?", []any{id()}
	// The rest read the table they change: the statement must see it as it
	// was before its first row changed.
	case 20:
		return fmt.Sprintf("UPDATE t1 SET a = a + 1 WHERE id %% 25 = %d AND a < (SELECT MAX(a) FROM t1 WHERE a < %d)", r.Intn(25), 5+r.Intn(25)), nil
	case 21:
		return fmt.Sprintf("UPDATE t1 SET b = b + 10 WHERE id < 60 AND a IN (SELECT x.a FROM t1 x WHERE x.b = %d)", r.Intn(50)), nil
	case 22:
		return fmt.Sprintf("UPDATE t1 SET b = b - 1 WHERE id %% 40 = %d AND EXISTS (SELECT 1 FROM t1 x WHERE x.a = t1.id)", r.Intn(40)), nil
	case 23:
		return fmt.Sprintf("UPDATE t1 SET a = a + 2 WHERE id %% 25 = %d AND a >= (SELECT x.a FROM t1 x WHERE x.a IS NOT NULL ORDER BY x.a DESC LIMIT 1) - %d", r.Intn(25), r.Intn(3)), nil
	case 24:
		return "UPDATE t1 SET b = (SELECT MIN(x.b) FROM t1 x WHERE x.b > t1.b) WHERE id = ?", []any{id()}
	case 25:
		return fmt.Sprintf("UPDATE t1 SET f = f + 1 WHERE a = %d AND EXISTS (SELECT 1 FROM t2 WHERE t2.t1_id = t1.id)", r.Intn(30)), nil
	case 26:
		lo := r.Intn(30)
		return "UPDATE t1 SET a = a * 2 - id % 5 WHERE a BETWEEN ? AND ? AND id % 3 != ?", []any{lo, lo + r.Intn(5), r.Intn(3)}
	case 27:
		return fmt.Sprintf("DELETE FROM t1 WHERE id %% 25 = %d AND id IN (SELECT x.id FROM t1 x WHERE x.a = %d) AND b < (SELECT MAX(b) FROM t1)", r.Intn(25), r.Intn(30)), nil
	}
	return fmt.Sprintf("DELETE FROM t1 WHERE id %% 50 = %d AND EXISTS (SELECT 1 FROM t1 x WHERE x.a = t1.id AND x.id != t1.id)", r.Intn(50)), nil
}

// write runs one statement on every configuration and holds the counts and
// errors to agree.
func (h *diffRun) write(sql string, params []any) error {
	var want string
	for i, d := range h.dbs {
		n, err := h.exec(d, sql, params)
		got := fmt.Sprintf("%d rows, err %v", n, err)
		if i == 0 {
			want = got
		} else if got != want && h.on("agreement") {
			return h.fail("agreement", h.dbs[0].cfg, d.cfg, "%q %v: %s vs %s", sql, params, want, got)
		}
	}
	if h.on("agreement") {
		h.compared["agreement"] += len(h.dbs) - 1
	}
	return nil
}

// exec runs sql on d by its statement path: the text through Exec, which
// joins the session's leg; or each statement parsed anew through
// ExecStmtTx, in the leg's Txn.
func (h *diffRun) exec(d *diffDB, sql string, params []any) (int, error) {
	if !d.cfg[axFresh] {
		ct := h.remember(d, sql)
		n, err := d.db.Exec(sql, params...)
		h.executed(ct, params)
		return n, err
	}
	stmts, err := ParseAll(sql)
	total := 0
	for _, st := range stmts {
		n, err := d.db.ExecStmtTx(context.Background(), st, d.tx, params...)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, err
}

// remember keeps the statements d's cache hands out for sql, rendered, the
// first time d sends it, and notes that the step executed them.
func (h *diffRun) remember(d *diffDB, sql string) *cachedText {
	texts := h.cached[d.db]
	if texts == nil {
		texts = map[string]*cachedText{}
		h.cached[d.db] = texts
	}
	ct, seen := texts[sql]
	if !seen {
		if stmts, err := d.db.ParseCached(sql); err == nil && len(stmts) > 0 {
			ct = &cachedText{cfg: d.cfg, sql: sql, stmts: stmts, rendered: renderAll(stmts)}
		}
		texts[sql] = ct
	}
	if ct != nil {
		h.touched = append(h.touched, ct)
	}
	return ct
}

// executed offers a cached statement, after an execution, to the mutation
// the run was given.
func (h *diffRun) executed(ct *cachedText, params []any) {
	if h.mutate != nil && ct != nil && h.mutate(ct.sql, ct.stmts[0], params) {
		h.mutate = nil
	}
}

// renders holds every cached statement the step executed to its render
// before its first execution: nothing downstream may write to one.
func (h *diffRun) renders() error {
	if !h.on("cached AST") {
		h.touched = h.touched[:0]
		return nil
	}
	for _, ct := range h.touched {
		if got := renderAll(ct.stmts); got != ct.rendered {
			return h.fail("cached AST", ct.cfg, "its first render", "%q changed under execution:\nbefore %safter  %s", ct.sql, ct.rendered, got)
		}
	}
	h.compared["cached AST"] += len(h.touched)
	h.touched = h.touched[:0]
	return nil
}

// query runs a SELECT on d — in its leg, or through its held snapshot — by
// its statement path and row ownership: Query's copies or the rows of a
// cursor that keeps them; or a lent cursor, whose Collect copies.
func (h *diffRun) query(d *diffDB, held bool, sql string) ([]Row, error) {
	ctx, tx := context.Background(), d.tx
	if held {
		tx = d.held
	}
	var stmts []Statement
	var err error
	switch {
	case d.cfg[axFresh]:
		stmts, err = ParseAll(sql)
	case !d.cfg[axLent]:
		ct := h.remember(d, sql)
		query := d.db.Query // joins the session's leg
		if held {
			query = d.held.Query
		}
		res, err := query(sql)
		h.executed(ct, nil)
		return resultRows(res, err)
	default:
		if ct := h.remember(d, sql); ct != nil {
			stmts = ct.stmts
		} else {
			stmts, err = d.db.ParseCached(sql)
		}
	}
	if err != nil {
		return nil, err
	}
	sel, ok := stmts[0].(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("%q is not a SELECT", sql)
	}
	if d.cfg[axLent] {
		rows, err := d.db.QueryRowsStmt(ctx, sel, tx)
		if err != nil {
			return nil, err
		}
		return resultRows(rows.Collect())
	}
	rows, err := d.db.queryRows(ctx, sel, nil, tx, nil, false)
	if err != nil {
		return nil, err
	}
	var out []Row
	for rows.Next() {
		out = append(out, rows.Row())
	}
	return out, rows.Err()
}

func resultRows(res *Result, err error) ([]Row, error) {
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// render is rows one line each.
func render(rows []Row) []string {
	out := make([]string, len(rows))
	var b []byte
	for i, r := range rows {
		b = b[:0]
		for j, v := range r {
			if j > 0 {
				b = append(b, '|')
			}
			if v.IsNull() {
				b = append(b, "NULL"...)
			} else {
				b = v.AppendText(b)
			}
		}
		out[i] = string(b)
	}
	return out
}

// agree runs one SELECT on every configuration — through the held
// snapshots when held is set — holds each to the first, and returns the
// first's rows.
func (h *diffRun) agree(oracle, sql string, held bool) ([]Row, error) {
	var first []Row
	var want string
	for i, d := range h.dbs {
		rows, err := h.query(d, held, sql)
		got := strings.Join(render(rows), "\n") + fmt.Sprintf("\nerr %v", err)
		if i == 0 {
			first, want = rows, got
		} else if got != want && h.on(oracle) {
			return nil, h.fail(oracle, h.dbs[0].cfg, d.cfg, "%q:\n--- %s ---\n%s\n--- %s ---\n%s", sql, h.dbs[0].cfg, want, d.cfg, got)
		}
	}
	if h.on(oracle) {
		h.compared[oracle] += len(h.dbs) - 1
	}
	return first, nil
}

// read runs the step's reads: a single-table shape (against refSelect
// too), a join shape and an aggregate (against its row-loop twin) on every
// configuration; then NoREC and TLP for the step's predicate, the held
// snapshot, and — outside a leg — EXPLAIN ANALYZE's accounting of one of
// the three and the exact indexes.
func (h *diffRun) read() error {
	r := h.r
	inLeg := h.dbs[0].tx != nil
	pred := diffPred(r, h.nextID)
	queries := []string{
		diffRefShapes[h.step%len(diffRefShapes)](r, diffPred(r, h.nextID)),
		diffJoinShapes[h.step%len(diffJoinShapes)](r, pred),
		diffAggQueries[h.step%len(diffAggQueries)],
	}
	var agg []Row // the last query's
	for _, q := range queries {
		var err error
		if agg, err = h.agree("agreement", q, false); err != nil {
			return err
		}
	}
	if !inLeg && h.on("refSelect") {
		if err := h.reference(queries[0]); err != nil {
			return err
		}
	}
	// The aggregate's folds — serial on the first configuration, pooled on
	// others — agreed above; the row loop must give the first its answer.
	if h.on("row loop") {
		twin := strings.Replace(queries[2], " FROM t1", " FROM one, t1", 1)
		loop, err := h.query(h.dbs[0], false, twin)
		if got, want := strings.Join(render(agg), "\n"), strings.Join(render(loop), "\n"); err != nil || got != want {
			return h.fail("row loop", h.dbs[0].cfg, "its row-loop twin", "%q (%v):\n%s\nvs\n%s", queries[2], err, got, want)
		}
		h.compared["row loop"]++
	}
	for _, d := range h.dbs {
		if err := h.noRECAndTLP(d, pred); err != nil {
			return err
		}
	}
	if h.dbs[0].held != nil {
		if _, err := h.agree("held snapshot", queries[0], true); err != nil {
			return err
		}
	}
	if inLeg {
		return nil
	}
	analyzed := queries[h.step%len(queries)]
	for _, d := range h.dbs {
		if h.on("accounting") {
			a, err := d.db.ExplainAnalyze(context.Background(), analyzed)
			if err != nil {
				return h.fail("accounting", d.cfg, "its execution", "ExplainAnalyze(%q): %v", analyzed, err)
			}
			if got, want := a.scannedTotal(), a.Stats.RowsScanned; got != want {
				return h.fail("accounting", d.cfg, "RowsScanned", "%q: per-operator scans %d != RowsScanned %d\n%s", analyzed, got, want, strings.Join(a.Plan, "\n"))
			}
			h.compared["accounting"]++
		}
		if d.cfg[axIndexed] && h.on("exact indexes") {
			for _, table := range []string{"t1", "t2"} {
				if err := checkIndexesExact(d.db, table); err != nil {
					return h.fail("exact indexes", d.cfg, "a bulk build", "%v", err)
				}
				h.compared["exact indexes"]++
			}
		}
	}
	return nil
}

// reference holds the first configuration's answer to a single-table shape
// to refSelect's; the others agree with the first.
func (h *diffRun) reference(sql string) error {
	d := h.dbs[0]
	stmt, err := Parse(sql)
	if err != nil {
		return h.fail("refSelect", d.cfg, "the parser", "%q: %v", sql, err)
	}
	want, err := refSelect(d.db, stmt.(*SelectStmt))
	if err != nil {
		return h.fail("refSelect", d.cfg, "refSelect", "%q: %v", sql, err)
	}
	got, err := h.query(d, false, sql)
	if g, w := fmt.Sprint(rowsToStrings(got)), fmt.Sprint(rowsToStrings(want)); err != nil || g != w {
		return h.fail("refSelect", d.cfg, "refSelect", "%q (%v):\n%s\nvs\n%s", sql, err, g, w)
	}
	h.compared["refSelect"]++
	return nil
}

// noRECAndTLP checks the step's predicate on d: the rows WHERE P keeps
// number the rows SELECT (P) says TRUE of (NoREC), and the rows P, NOT P
// and P IS NULL keep are the table's, as a multiset of ids (TLP).
func (h *diffRun) noRECAndTLP(d *diffDB, pred string) error {
	if h.on("NoREC") {
		filtered, err1 := h.query(d, false, "SELECT COUNT(*) FROM t1 WHERE "+pred)
		projected, err2 := h.query(d, false, "SELECT ("+pred+") FROM t1")
		if err1 != nil || err2 != nil {
			return h.fail("NoREC", d.cfg, "its rewrite", "%s: %v / %v", pred, err1, err2)
		}
		var truths int64
		for _, row := range projected {
			if !row[0].IsNull() && row[0].AsBool() {
				truths++
			}
		}
		if got := filtered[0][0].AsInt(); got != truths {
			return h.fail("NoREC", d.cfg, "its rewrite", "WHERE %s keeps %d rows, SELECT (P) is true of %d", pred, got, truths)
		}
		h.compared["NoREC"]++
	}
	if !h.on("TLP") {
		return nil
	}
	var ids [2][]int64 // the partitions', the table's
	for i, where := range []string{"(" + pred + ")", "NOT (" + pred + ")", "(" + pred + ") IS NULL", "TRUE"} {
		rows, err := h.query(d, false, "SELECT id FROM t1 WHERE "+where)
		if err != nil {
			return h.fail("TLP", d.cfg, "its partitions", "%s: %v", where, err)
		}
		for _, row := range rows {
			ids[i/3] = append(ids[i/3], row[0].AsInt())
		}
	}
	slices.Sort(ids[0])
	slices.Sort(ids[1])
	if !slices.Equal(ids[0], ids[1]) {
		return h.fail("TLP", d.cfg, "its partitions", "%s: the partitions hold %d rows, the table %d", pred, len(ids[0]), len(ids[1]))
	}
	h.compared["TLP"]++
	return nil
}

// tables is t1 and t2 on d as its next read sees them, row for row in slot
// order.
func (h *diffRun) tables(d *diffDB) ([]string, error) {
	var out []string
	for _, table := range []string{"t1", "t2"} {
		rows, err := h.query(d, false, "SELECT * FROM "+table)
		if err != nil {
			return nil, err
		}
		out = append(out, render(rows)...)
	}
	return out, nil
}

// begin opens a transaction leg on every configuration: a cached one
// sends BEGIN and its session is the leg; a fresh one holds a Txn. A leg
// that will roll back first notes the tables.
func (h *diffRun) begin(rollback bool) error {
	for _, d := range h.dbs {
		if rollback && h.on("rollback") {
			var err error
			if d.before, err = h.tables(d); err != nil {
				return h.fail("rollback", d.cfg, "before BEGIN", "%v", err)
			}
		}
		if d.cfg[axFresh] {
			d.tx = d.db.Begin()
			continue
		}
		if _, err := h.exec(d, "BEGIN", nil); err != nil {
			return h.fail("agreement", d.cfg, "the session", "BEGIN: %v", err)
		}
		d.tx = d.db.currentTxn()
	}
	return nil
}

// end commits or rolls back the leg by statement — COMMIT or ROLLBACK by
// each configuration's path — and a rolled-back leg must leave both tables
// bit-identical.
func (h *diffRun) end(rollback bool) error {
	finish := "COMMIT"
	if rollback {
		finish = "ROLLBACK"
	}
	for _, d := range h.dbs {
		_, err := h.exec(d, finish, nil)
		d.tx = nil
		if err != nil {
			return h.fail("agreement", d.cfg, "the transaction", "%s: %v", finish, err)
		}
		if !rollback || !h.on("rollback") {
			continue
		}
		after, err := h.tables(d)
		if err != nil {
			return h.fail("rollback", d.cfg, "before BEGIN", "%v", err)
		}
		if strings.Join(after, "\n") != strings.Join(d.before, "\n") {
			return h.fail("rollback", d.cfg, "before BEGIN", "the tables differ after ROLLBACK (%d rows, %d before)", len(after), len(d.before))
		}
		h.compared["rollback"]++
	}
	return nil
}

// hold takes an old snapshot on every configuration.
func (h *diffRun) hold() {
	for _, d := range h.dbs {
		d.held = d.db.Begin()
	}
}

// release lets every held snapshot go.
func (h *diffRun) release() {
	for _, d := range h.dbs {
		if d.held != nil {
			_ = d.held.Rollback()
			d.held = nil
		}
	}
}

// seal vacuums and seals the sealed configurations, noting the encodings
// t1.f's blocks take; under a held snapshot the blocks whose versions it
// keeps stay in the heap.
func (h *diffRun) seal() {
	for _, d := range h.dbs {
		if d.cfg[axSealed] {
			d.db.Vacuum()
			d.db.Seal()
			t1 := d.db.tableMap()["t1"]
			for _, blk := range t1.blocks() {
				if blk != nil {
					h.fEncs[blk.cols[t1.ColumnIndex("f")].enc] = true
				}
			}
		}
	}
}

// reopen closes the durable configurations — every other time after a
// checkpoint — and recovers them from their files.
func (h *diffRun) reopen() error {
	h.release()
	h.reopens++
	for _, d := range h.dbs {
		if !d.cfg[axDurable] {
			continue
		}
		if h.reopens%2 == 0 {
			if err := d.db.Checkpoint(); err != nil {
				return h.fail("recovery", d.cfg, "its log", "checkpoint: %v", err)
			}
		}
		if err := d.db.Close(); err != nil {
			return h.fail("recovery", d.cfg, "its log", "close: %v", err)
		}
		if err := h.open(d); err != nil {
			return err
		}
	}
	return nil
}

// finish ends a run: a GROUP BY founds more groups than a block of classes
// holds, every configuration dumps what the first of its kind (indexed or
// plain) dumps, and the run did what its axes are for.
func (h *diffRun) finish() error {
	h.release()
	if _, err := h.agree("agreement", "SELECT t1.id, t2.id, COUNT(*), SUM(t1.f) FROM t1 JOIN t2 ON t1.a = t2.d GROUP BY t1.id, t2.id", false); err != nil {
		return err
	}
	dumps := map[bool]string{}
	for _, d := range h.dbs {
		if !h.on("agreement") {
			continue
		}
		var b strings.Builder
		if err := d.db.Dump(&b); err != nil {
			return h.fail("agreement", d.cfg, "its dump", "%v", err)
		}
		if want, ok := dumps[d.cfg[axIndexed]]; !ok {
			dumps[d.cfg[axIndexed]] = b.String()
		} else if b.String() != want {
			return h.fail("agreement", d.cfg, "the first configuration of its kind", "the dumps differ")
		}
	}
	if h.reopens == 0 && slices.ContainsFunc(h.configs, func(c diffConfig) bool { return c[axDurable] }) {
		return h.fail("setup", "the recovered configurations", "the workload", "no step closed and recovered them")
	}
	if slices.ContainsFunc(h.configs, func(c diffConfig) bool { return c[axSealed] }) && !(h.fEncs[segEncFloat] && h.fEncs[segEncRaw]) {
		return h.fail("setup", "the sealed configurations", "the workload", "t1.f sealed as a decimal stream %v, raw %v: it must seal both",
			h.fEncs[segEncFloat], h.fEncs[segEncRaw])
	}
	for _, d := range h.dbs {
		if st := d.db.Stats(); d.cfg[axSealed] && !d.cfg[axDurable] && (st.SegmentsSealed == 0 || st.DecodedBlocks == 0 || rehydrations(d.db) == 0) {
			return h.fail("setup", d.cfg, "the workload", "sealed %d blocks, decoded %d and rehydrated %d: it must do all three",
				st.SegmentsSealed, st.DecodedBlocks, rehydrations(d.db))
		}
	}
	return nil
}

// diffSteps is the length of a run.
const diffSteps = 80

func TestDifferential(t *testing.T) {
	for a := 0; a < diffAxes; a++ {
		for b := a + 1; b < diffAxes; b++ {
			seen := map[[2]bool]bool{}
			for _, c := range diffConfigs {
				seen[[2]bool{c[a], c[b]}] = true
			}
			if len(seen) != 4 {
				t.Fatalf("the configurations cover %d of the 4 value pairs of %s and %s", len(seen), diffAxisNames[a], diffAxisNames[b])
			}
		}
	}
	lowerMorselMinRows(t, 8)
	t.Run("clean", func(t *testing.T) {
		for _, seed := range []int64{1, 7} {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				counts, err := runDifferential(seed, diffSteps, diffFocus{})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("comparisons by oracle: %v", counts)
			})
		}
	})
	for _, m := range diffMutations {
		t.Run("mutation/"+m.name, func(t *testing.T) {
			debugFault = m.fault
			defer func() { debugFault = noFault }()
			_, err := runDifferential(1, diffSteps, diffFocus{mutate: m.mutate})
			var f *diffFailure
			if !errors.As(err, &f) || f.oracle == "" || f.a == "" || f.b == "" {
				t.Fatalf("the harness did not name an oracle and two sides: %v", err)
			}
			t.Log(err)
		})
	}
	assertNoWorkerLeak(t)
}

// diffMutations is the mutation table: each row breaks one thing — a fault
// in the engine, or a cached statement changed the way a careless executor
// would change it — and the harness must fail.
var diffMutations = []struct {
	name   string
	fault  fault
	mutate func(sql string, st Statement, params []any) bool
}{
	{name: "inverted vector kernel", fault: faultVectorKernel},
	{name: "tombstones not skipped", fault: faultTombstoneSkip},
	{name: "stale ordered views and dropped live keys", fault: faultOrdMaintain},
	{name: "top-K retains lent rows", fault: faultRowCopy},
	// A bound parameter folded into the shared INSERT: a semantic change.
	{name: "cached INSERT folds a parameter", mutate: func(sql string, st Statement, params []any) bool {
		if ins, ok := st.(*InsertStmt); ok && sql == "INSERT INTO t1 VALUES (?, ?, ?, ?, ?, ?)" {
			ins.Rows[0][0] = &Literal{Val: GoValue(params[0])}
			return true
		}
		return false
	}},
	// A column reference respelled: no answer changes, only the render.
	{name: "cached GROUP BY respells a column", mutate: func(sql string, st Statement, _ []any) bool {
		if sql == diffAggQueries[1] { // GROUP BY a % 7
			st.(*SelectStmt).GroupBy[0].(*BinaryOp).Left.(*ColumnRef).Column = "A"
			return true
		}
		return false
	}},
}

// The focused runs below put one question to the harness: the same
// workload on the two or three configurations the question is about, with
// only its oracles checking. Each clean run must have made a comparison by
// every oracle it names; each fault must be named by one of them alone.

// diffCfg is the configuration with the given axes on.
func diffCfg(axes ...int) diffConfig {
	var c diffConfig
	for _, a := range axes {
		c[a] = true
	}
	return c
}

// diffFocusSteps is the length of a focused run.
const diffFocusSteps = 60

// diffFocused runs the workload from seed focused as f and fails t on a
// failure, or if one of f's oracles compared nothing.
func diffFocused(t *testing.T, seed int64, f diffFocus) {
	t.Helper()
	counts, err := runDifferential(seed, diffFocusSteps, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range f.oracles {
		if counts[o] == 0 {
			t.Fatalf("the %s oracle compared nothing: %v", o, counts)
		}
	}
	t.Logf("comparisons by oracle: %v", counts)
	assertNoWorkerLeak(t)
}

// diffCatches runs the workload from seed with fl set, focused as f, and
// fails t unless one of f's oracles fails the run and names two sides.
func diffCatches(t *testing.T, fl fault, seed int64, f diffFocus) {
	t.Helper()
	debugFault = fl
	defer func() { debugFault = noFault }()
	_, err := runDifferential(seed, diffSteps, f)
	var df *diffFailure
	if !errors.As(err, &df) || !slices.Contains(f.oracles, df.oracle) || df.a == "" || df.b == "" {
		t.Fatalf("no oracle of %v named the fault and two sides: %v", f.oracles, err)
	}
	t.Log(err)
	assertNoWorkerLeak(t)
}

func TestCompiledMatchesInterpretedExecutor(t *testing.T) {
	diffFocused(t, 99, diffFocus{configs: []diffConfig{diffCfg()}, oracles: []string{"refSelect"}})
}

// Ordered-index walks, maintained through DML, against the plain
// configuration's scans and sorts, the reference and a bulk build.
func TestDMLInterleavedWithOrderedQueries(t *testing.T) {
	diffFocused(t, 31, diffFocus{configs: []diffConfig{diffCfg(), diffCfg(axIndexed)},
		oracles: []string{"agreement", "refSelect", "exact indexes"}})
}

// The same, with the legs by statement on one side and by Txn on the
// other: rolled-back DML, and the index entries it left, stay invisible.
func TestDMLInterleavedWithOrderedQueriesInTransactions(t *testing.T) {
	diffFocused(t, 32, diffFocus{configs: []diffConfig{diffCfg(axFresh), diffCfg(axIndexed)},
		oracles: []string{"agreement", "rollback", "exact indexes"}})
}

func TestDMLWithSubqueriesMatchesSnapshotReference(t *testing.T) {
	diffFocused(t, 117, diffFocus{configs: []diffConfig{diffCfg(axIndexed, axSealed), diffCfg()},
		oracles: []string{"agreement", "refSelect"}})
}

func TestIndexMaintenanceExact(t *testing.T) {
	for _, seed := range []int64{7, 8} {
		diffFocused(t, seed, diffFocus{configs: []diffConfig{diffCfg(axIndexed), diffCfg(axIndexed, axSealed, axDurable)},
			oracles: []string{"exact indexes"}})
	}
}

func TestMetamorphicNoRECAndTLP(t *testing.T) {
	diffFocused(t, 47, diffFocus{configs: []diffConfig{diffCfg(), diffCfg(axIndexed)}, oracles: []string{"NoREC", "TLP"}})
}

func TestMetamorphicNoRECAndTLPInTransactions(t *testing.T) {
	diffFocused(t, 53, diffFocus{configs: []diffConfig{diffCfg(axIndexed, axFresh), diffCfg(axLent)},
		oracles: []string{"NoREC", "TLP", "rollback"}})
}

func TestMetamorphicNoRECAndTLPParallel(t *testing.T) {
	lowerMorselMinRows(t, 8)
	diffFocused(t, 47, diffFocus{configs: []diffConfig{diffCfg(axPooled), diffCfg(axPooled, axIndexed)},
		oracles: []string{"NoREC", "TLP"}})
}

// One worker: every statement reads on the scan's own goroutine, with no
// pool to hide a serial-driver bug behind.
func TestMetamorphicNoRECAndTLPRowEngine(t *testing.T) {
	diffFocused(t, 61, diffFocus{configs: []diffConfig{diffCfg(), diffCfg(axSealed)}, oracles: []string{"NoREC", "TLP"}})
}

// The pool's gate lowered to one row: every statement the pool may take
// runs there, over sealed blocks and the heap.
func TestMetamorphicNoRECAndTLPVectorized(t *testing.T) {
	lowerMorselMinRows(t, 1)
	diffFocused(t, 61, diffFocus{configs: []diffConfig{diffCfg(axPooled, axSealed), diffCfg(axPooled, axLent)},
		oracles: []string{"NoREC", "TLP"}})
}

// Partial aggregation merged against the serial fold, and the serial fold
// against the row loop.
func TestParallelAggEquivalence(t *testing.T) {
	lowerMorselMinRows(t, 8)
	diffFocused(t, 11, diffFocus{configs: []diffConfig{diffCfg(), diffCfg(axPooled)}, oracles: []string{"agreement", "row loop"}})
}

// Index scans, index joins and flipped build sides against seq scans and
// hash joins.
func TestPlanChoicesAgree(t *testing.T) {
	diffFocused(t, 7, diffFocus{configs: []diffConfig{diffCfg(axIndexed), diffCfg()}, oracles: []string{"agreement"}})
}

// A pooled, a serial and an unindexed pooled configuration over sealed
// blocks that DML rehydrates.
func TestSerialParallelEquivalence(t *testing.T) {
	lowerMorselMinRows(t, 8)
	diffFocused(t, 2025, diffFocus{configs: []diffConfig{
		diffCfg(axPooled, axIndexed, axSealed), diffCfg(axIndexed, axSealed), diffCfg(axPooled, axSealed),
	}, oracles: []string{"agreement"}})
}

func TestStatementCacheMatchesFreshParse(t *testing.T) {
	diffFocused(t, 31, diffFocus{configs: []diffConfig{diffCfg(), diffCfg(axFresh)}, oracles: []string{"agreement", "cached AST"}})
}

// DISTINCT aggregates gathered from the pool in completion order against
// the serial fold.
func TestUnorderedGatherAggEquivalence(t *testing.T) {
	lowerMorselMinRows(t, 8)
	diffFocused(t, 13, diffFocus{configs: []diffConfig{diffCfg(axPooled, axLent), diffCfg()}, oracles: []string{"agreement", "row loop"}})
}

// diffDrivers are the two ways a scan over sealed blocks and the heap is
// driven: on its own goroutine, or by the pool.
var diffDrivers = []struct {
	name string
	cfg  diffConfig
}{{"serial", diffCfg(axSealed)}, {"pooled", diffCfg(axPooled, axSealed)}}

// The scan, driven either way, against the interpreted reference.
func TestVectorRowEquivalence(t *testing.T) {
	lowerMorselMinRows(t, 8)
	for _, driver := range diffDrivers {
		t.Run(driver.name, func(t *testing.T) {
			cfg := driver.cfg
			diffFocused(t, 21, diffFocus{configs: []diffConfig{cfg}, oracles: []string{"refSelect"}})
		})
	}
}

func TestVectorEquivalenceCatchesBrokenKernel(t *testing.T) {
	lowerMorselMinRows(t, 8)
	for _, driver := range diffDrivers {
		t.Run(driver.name, func(t *testing.T) {
			cfg := driver.cfg
			diffCatches(t, faultVectorKernel, 21, diffFocus{configs: []diffConfig{cfg}, oracles: []string{"refSelect"}})
		})
	}
}

// Deleted rows reappear alike on every configuration until a vacuum
// reclaims them; the sealed configuration vacuums when it seals, and the
// two must be seen to diverge.
func TestMetamorphicCatchesBrokenTombstoneSkip(t *testing.T) {
	diffCatches(t, faultTombstoneSkip, 47, diffFocus{configs: []diffConfig{diffCfg(), diffCfg(axSealed)},
		oracles: []string{"agreement", "NoREC", "TLP"}})
}

func TestPropertySuiteCatchesBrokenTombstoneSkip(t *testing.T) {
	diffCatches(t, faultTombstoneSkip, 31, diffFocus{configs: []diffConfig{diffCfg(axIndexed)}, oracles: []string{"refSelect"}})
}

// Stale ordered views answer ORDER BY and range walks out of date.
func TestPropertySuiteCatchesBrokenOrdMaintenance(t *testing.T) {
	diffCatches(t, faultOrdMaintain, 31, diffFocus{configs: []diffConfig{diffCfg(), diffCfg(axIndexed)},
		oracles: []string{"agreement", "refSelect"}})
}

// A vacuum that drops the key of a surviving version: the exact oracle
// alone must report it.
func TestIndexMaintenanceCatchesDroppedLiveKey(t *testing.T) {
	diffCatches(t, faultOrdMaintain, 9, diffFocus{configs: []diffConfig{diffCfg(axIndexed)}, oracles: []string{"exact indexes"}})
}
