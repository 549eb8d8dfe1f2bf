package sqldb

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// SQLancer-style metamorphic properties over a generated query corpus,
// interleaved with random DML so the incremental index maintenance
// (in-place ordered-view splices, tombstone skipping, compaction) is
// exercised at every step. Unlike the plan-equivalence tests, these need
// no second engine or reference executor: each property rewrites a query
// into a form the optimizer cannot serve the same way and demands the
// same answer.
//
//   - NoREC (Non-optimizing Reference Engine Construction): the number of
//     rows satisfying WHERE P must equal the number of TRUE values of
//     SELECT (P) over the unfiltered table. The filtered form goes
//     through access-path selection (equality/range index, tombstone
//     skipping); the projected form evaluates P row by row over a heap
//     scan. Any divergence is an optimizer bug — this property found the
//     `col = NULL` equality-index bug pinned in ordidx_test.go.
//   - TLP (Ternary Logic Partitioning): every row satisfies exactly one
//     of P, NOT P, P IS NULL, so the three partitions' multiset union
//     must equal the unfiltered result.
//
// Both run over an indexed and a plain database executing the same DML,
// so the properties hold on every access path the planner can choose.

// metamorphicDBs builds the mutable corpus table with and without
// indexes. Options (e.g. WithMaxWorkers) apply to both databases.
func metamorphicDBs(opts ...Option) (indexed, plain *Database) {
	indexed = NewDatabase(opts...)
	plain = NewDatabase(opts...)
	indexed.MustExec("CREATE TABLE m (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, c TEXT)")
	indexed.MustExec("CREATE INDEX idx_m_a ON m (a)")
	plain.MustExec("CREATE TABLE m (id INTEGER, a INTEGER, b INTEGER, c TEXT)")
	return indexed, plain
}

// metamorphicPred generates a random predicate over m's columns: NULL-prone
// comparisons, equality and range shapes over the indexed column (so the
// filtered form takes index access paths), IS NULL, LIKE, IN, and
// NULL-comparand equalities, composed with AND/OR/NOT.
func metamorphicPred(r *rand.Rand) string {
	atoms := []string{
		fmt.Sprintf("a = %d", r.Intn(30)),
		fmt.Sprintf("a > %d", r.Intn(30)),
		fmt.Sprintf("a BETWEEN %d AND %d", r.Intn(15), 15+r.Intn(15)),
		fmt.Sprintf("a <= %d AND a >= %d", 20+r.Intn(10), r.Intn(10)),
		"a = NULL", // never true; the index path must agree
		"a IS NULL",
		"a IS NOT NULL",
		fmt.Sprintf("b > %d", r.Intn(50)),
		fmt.Sprintf("b * 2 < %d", r.Intn(60)),
		"b IS NULL",
		fmt.Sprintf("c LIKE '%%%c%%'", 'a'+rune(r.Intn(5))),
		fmt.Sprintf("c IN ('ant', 'bee', '%c')", 'a'+rune(r.Intn(5))),
		fmt.Sprintf("id %% %d = %d", 2+r.Intn(5), r.Intn(3)),
	}
	p := atoms[r.Intn(len(atoms))]
	for r.Intn(3) == 0 {
		op := "AND"
		if r.Intn(2) == 0 {
			op = "OR"
		}
		next := atoms[r.Intn(len(atoms))]
		if r.Intn(4) == 0 {
			next = "NOT (" + next + ")"
		}
		p = fmt.Sprintf("(%s %s %s)", p, op, next)
	}
	return p
}

// checkNoREC asserts the NoREC property for predicate p on db.
func checkNoREC(db *Database, pred string) error {
	filtered, err := db.Query("SELECT COUNT(*) FROM m WHERE " + pred)
	if err != nil {
		return fmt.Errorf("NoREC filtered query (%s): %v", pred, err)
	}
	optimized := filtered.Rows[0][0].AsInt()
	projected, err := db.Query("SELECT (" + pred + ") FROM m")
	if err != nil {
		return fmt.Errorf("NoREC projected query (%s): %v", pred, err)
	}
	var unoptimized int64
	for _, row := range projected.Rows {
		if !row[0].IsNull() && row[0].AsBool() {
			unoptimized++
		}
	}
	if optimized != unoptimized {
		return fmt.Errorf("NoREC violated for %q: WHERE count %d != per-row count %d",
			pred, optimized, unoptimized)
	}
	return nil
}

// rowMultiset renders a result as a sorted multiset of row strings.
func rowMultiset(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		s := ""
		for j, v := range r {
			if j > 0 {
				s += "|"
			}
			if v.IsNull() {
				s += "NULL"
			} else {
				s += v.AsText()
			}
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// checkTLP asserts the ternary-logic-partitioning property for p on db.
func checkTLP(db *Database, pred string) error {
	full, err := db.Query("SELECT id, a, b, c FROM m")
	if err != nil {
		return fmt.Errorf("TLP full query: %v", err)
	}
	var parts []string
	for _, where := range []string{
		"(" + pred + ")",
		"NOT (" + pred + ")",
		"(" + pred + ") IS NULL",
	} {
		res, err := db.Query("SELECT id, a, b, c FROM m WHERE " + where)
		if err != nil {
			return fmt.Errorf("TLP partition %q: %v", where, err)
		}
		parts = append(parts, rowMultiset(res)...)
	}
	sort.Strings(parts)
	want := rowMultiset(full)
	if len(parts) != len(want) {
		return fmt.Errorf("TLP violated for %q: partitions sum to %d rows, table has %d",
			pred, len(parts), len(want))
	}
	for i := range want {
		if parts[i] != want[i] {
			return fmt.Errorf("TLP violated for %q: partition union diverges at %q vs %q",
				pred, parts[i], want[i])
		}
	}
	return nil
}

// metamorphicProperty runs the interleaved DML + NoREC/TLP loop and
// reports the first violation. Exported to the fault-injection tests
// below via its error return.
func metamorphicProperty(r *rand.Rand, steps int, opts ...Option) error {
	indexed, plain := metamorphicDBs(opts...)
	return metamorphicRun(r, steps, indexed, plain)
}

// metamorphicRun is metamorphicProperty over databases the caller built.
func metamorphicRun(r *rand.Rand, steps int, indexed, plain *Database) error {
	words := []string{"ant", "bee", "cat", "dge", "eel"}
	nextID := 0
	for i := 0; i < 60; i++ { // seed rows so early predicates see data
		var a any = r.Intn(30)
		if r.Intn(7) == 0 {
			a = nil
		}
		for _, db := range []*Database{indexed, plain} {
			db.MustExec("INSERT INTO m VALUES (?, ?, ?, ?)", nextID, a, r.Intn(50), words[r.Intn(len(words))])
		}
		nextID++
	}
	for step := 0; step < steps; step++ {
		// One random mutation, applied identically to both databases, so
		// every property check below runs against freshly maintained
		// indexes (spliced inserts, moved updates, tombstoned deletes).
		var dml string
		var params []any
		switch r.Intn(5) {
		case 0, 1:
			var a any = r.Intn(30)
			if r.Intn(7) == 0 {
				a = nil
			}
			dml, params = "INSERT INTO m VALUES (?, ?, ?, ?)",
				[]any{nextID, a, r.Intn(50), words[r.Intn(len(words))]}
			nextID++
		case 2:
			dml = fmt.Sprintf("UPDATE m SET a = %d WHERE id %% 7 = %d", r.Intn(30), r.Intn(7))
		case 3:
			dml, params = "DELETE FROM m WHERE id = ?", []any{r.Intn(nextID + 1)}
		default:
			dml = fmt.Sprintf("DELETE FROM m WHERE a BETWEEN %d AND %d", r.Intn(28), r.Intn(4))
		}
		ni, erri := indexed.Exec(dml, params...)
		np, errp := plain.Exec(dml, params...)
		if (erri == nil) != (errp == nil) || ni != np {
			return fmt.Errorf("step %d: DML diverged on %q: indexed (%d, %v) vs plain (%d, %v)",
				step, dml, ni, erri, np, errp)
		}
		pred := metamorphicPred(r)
		for _, db := range []*Database{indexed, plain} {
			if err := checkNoREC(db, pred); err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
			if err := checkTLP(db, pred); err != nil {
				return fmt.Errorf("step %d: %v", step, err)
			}
		}
	}
	return nil
}

// metamorphicTxnProperty runs the NoREC/TLP checks inside explicit
// transactions. Each step picks a commit or rollback leg, applies one
// mutation under BEGIN on both databases, and asserts the properties
// MID-TRANSACTION — reads inside the transaction must see its own
// uncommitted writes coherently on every access path. The rollback leg
// additionally pins bit-identical abort: the table's full multiset after
// ROLLBACK equals the one captured before BEGIN.
func metamorphicTxnProperty(r *rand.Rand, steps int, opts ...Option) error {
	indexed, plain := metamorphicDBs(opts...)
	words := []string{"ant", "bee", "cat", "dge", "eel"}
	nextID := 0
	for i := 0; i < 60; i++ {
		var a any = r.Intn(30)
		if r.Intn(7) == 0 {
			a = nil
		}
		for _, db := range []*Database{indexed, plain} {
			db.MustExec("INSERT INTO m VALUES (?, ?, ?, ?)", nextID, a, r.Intn(50), words[r.Intn(len(words))])
		}
		nextID++
	}
	fullSet := func(db *Database) ([]string, error) {
		res, err := db.Query("SELECT id, a, b, c FROM m")
		if err != nil {
			return nil, err
		}
		return rowMultiset(res), nil
	}
	for step := 0; step < steps; step++ {
		rollback := r.Intn(2) == 0
		wasInsert := false
		var dml string
		var params []any
		switch r.Intn(4) {
		case 0, 1:
			var a any = r.Intn(30)
			if r.Intn(7) == 0 {
				a = nil
			}
			dml, params = "INSERT INTO m VALUES (?, ?, ?, ?)",
				[]any{nextID, a, r.Intn(50), words[r.Intn(len(words))]}
			nextID++
			wasInsert = true
		case 2:
			dml = fmt.Sprintf("UPDATE m SET a = %d WHERE id %% 5 = %d", r.Intn(30), r.Intn(5))
		default:
			dml = fmt.Sprintf("DELETE FROM m WHERE a BETWEEN %d AND %d", r.Intn(28), r.Intn(6))
		}
		pred := metamorphicPred(r)
		for _, db := range []*Database{indexed, plain} {
			before, err := fullSet(db)
			if err != nil {
				return fmt.Errorf("step %d: pre-BEGIN read: %v", step, err)
			}
			if _, err := db.Exec("BEGIN"); err != nil {
				return fmt.Errorf("step %d: BEGIN: %v", step, err)
			}
			if _, err := db.Exec(dml, params...); err != nil {
				return fmt.Errorf("step %d: DML %q in txn: %v", step, dml, err)
			}
			// The properties must hold mid-transaction: these reads join
			// the session transaction and see its uncommitted writes.
			if err := checkNoREC(db, pred); err != nil {
				return fmt.Errorf("step %d (in txn): %v", step, err)
			}
			if err := checkTLP(db, pred); err != nil {
				return fmt.Errorf("step %d (in txn): %v", step, err)
			}
			if rollback {
				if _, err := db.Exec("ROLLBACK"); err != nil {
					return fmt.Errorf("step %d: ROLLBACK: %v", step, err)
				}
				after, err := fullSet(db)
				if err != nil {
					return fmt.Errorf("step %d: post-ROLLBACK read: %v", step, err)
				}
				if len(after) != len(before) {
					return fmt.Errorf("step %d: ROLLBACK left %d rows, had %d before BEGIN",
						step, len(after), len(before))
				}
				for i := range before {
					if after[i] != before[i] {
						return fmt.Errorf("step %d: ROLLBACK not bit-identical: %q vs %q",
							step, after[i], before[i])
					}
				}
			} else {
				if _, err := db.Exec("COMMIT"); err != nil {
					return fmt.Errorf("step %d: COMMIT: %v", step, err)
				}
			}
			// The properties must also hold after the transaction ends.
			if err := checkNoREC(db, pred); err != nil {
				return fmt.Errorf("step %d (post txn): %v", step, err)
			}
		}
		if rollback && wasInsert {
			nextID-- // an insert that was rolled back may reuse its id
		}
	}
	return nil
}

// TestMetamorphicNoRECAndTLPInTransactions runs the metamorphic suite
// through explicit-transaction commit and rollback legs.
func TestMetamorphicNoRECAndTLPInTransactions(t *testing.T) {
	if err := metamorphicTxnProperty(rand.New(rand.NewSource(53)), 120); err != nil {
		t.Fatal(err)
	}
}

func TestMetamorphicNoRECAndTLP(t *testing.T) {
	if err := metamorphicProperty(rand.New(rand.NewSource(47)), 400); err != nil {
		t.Fatal(err)
	}
}

// TestMetamorphicNoRECAndTLPParallel re-runs the NoREC/TLP suite with a
// forced worker pool and the parallel threshold lowered below the corpus
// size, so the filtered/projected/partitioned queries take the pooled
// batch scan and partial aggregation (COUNT(*) goes through
// runAggregationBatch) while the same DML churns the table.
func TestMetamorphicNoRECAndTLPParallel(t *testing.T) {
	lowerMorselMinRows(t, 8)
	if err := metamorphicProperty(rand.New(rand.NewSource(47)), 400, WithMaxWorkers(4)); err != nil {
		t.Fatal(err)
	}
}

// TestMetamorphicCatchesBrokenTombstoneSkip: with tombstone skipping
// disabled, every read shows a deleted row until the vacuum reclaims it —
// consistently, so with no vacuum the fault hides. The plain database's
// background vacuum is held off (its single-flight latch stays taken): it
// shows every row it ever deleted, the indexed one stops showing them once
// its vacuum has run, whenever the scheduler runs it, and the suite must
// notice the two diverge.
func TestMetamorphicCatchesBrokenTombstoneSkip(t *testing.T) {
	debugDisableTombstoneSkip = true
	defer func() { debugDisableTombstoneSkip = false }()
	detects := func(opts ...Option) bool {
		indexed, plain := metamorphicDBs(opts...)
		plain.vacuuming.Store(true)
		return metamorphicRun(rand.New(rand.NewSource(47)), 400, indexed, plain) != nil
	}
	if !detects() {
		t.Fatal("metamorphic suite did not detect disabled tombstone skipping")
	}
	// The same fault read through the batch source by pool workers: the
	// one visibility function is shared, so the one switch must break
	// this configuration too.
	lowerMorselMinRows(t, 8)
	if !detects(WithMaxWorkers(4)) {
		t.Fatal("metamorphic suite did not detect disabled tombstone skipping on the pooled batch scan")
	}
}
