package pgwire

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"tag/internal/server/pgwire/pgwiretest"
	"tag/internal/sqldb"
)

// The engine's SQLancer-style metamorphic oracles (NoREC, TLP, interleaved
// DML — TestDifferential in internal/sqldb), re-run through a wire
// connection against the same database, with two additional demands:
//
//   - Every query's wire result is bit-identical to in-process execution
//     of the same SQL at the same moment (both render via Value.AsText
//     with explicit NULL flags, so any divergence is a wire bug).
//   - The properties also hold for queries executed mid-transaction over
//     the wire, where only the wire session can see the uncommitted
//     writes (compared wire-vs-wire), and after COMMIT the in-process
//     view converges.

// wirePred draws a predicate over m's columns: NULL-prone comparisons,
// range shapes over the indexed column, IS NULL, LIKE, IN and modulo.
func wirePred(r *rand.Rand) string {
	atoms := []string{
		fmt.Sprintf("a = %d", r.Intn(30)),
		fmt.Sprintf("a > %d", r.Intn(30)),
		fmt.Sprintf("a BETWEEN %d AND %d", r.Intn(15), 15+r.Intn(15)),
		"a = NULL",
		"a IS NULL",
		"a IS NOT NULL",
		fmt.Sprintf("b > %d", r.Intn(50)),
		fmt.Sprintf("b * 2 < %d", r.Intn(60)),
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

// wireQuery runs sql over the wire and returns the rendered rows,
// failing the test on any error.
func wireQuery(t *testing.T, c *pgwiretest.Conn, sql string) []string {
	t.Helper()
	return wireRows(mustQuery(t, c, sql))
}

// multiset sorts a rendered row list into multiset form.
func multiset(rows []string) []string {
	out := append([]string(nil), rows...)
	sort.Strings(out)
	return out
}

// checkWireNoREC asserts NoREC through the wire: the WHERE-filtered count
// equals the per-row TRUE count of the projected predicate.
func checkWireNoREC(t *testing.T, c *pgwiretest.Conn, pred string) {
	t.Helper()
	filtered := wireQuery(t, c, "SELECT COUNT(*) FROM m WHERE "+pred)
	optimized, err := strconv.ParseInt(filtered[0], 10, 64)
	if err != nil {
		t.Fatalf("NoREC count not an int: %q", filtered[0])
	}
	projected := wireQuery(t, c, "SELECT ("+pred+") FROM m")
	var unoptimized int64
	for _, row := range projected {
		if row == "true" {
			unoptimized++
		}
	}
	if optimized != unoptimized {
		t.Fatalf("NoREC violated over wire for %q: WHERE count %d != per-row count %d",
			pred, optimized, unoptimized)
	}
}

// checkWireTLP asserts TLP through the wire: the three partitions union
// to the unfiltered table.
func checkWireTLP(t *testing.T, c *pgwiretest.Conn, pred string) {
	t.Helper()
	full := multiset(wireQuery(t, c, "SELECT id, a, b, c FROM m"))
	var parts []string
	for _, where := range []string{
		"(" + pred + ")",
		"NOT (" + pred + ")",
		"(" + pred + ") IS NULL",
	} {
		parts = append(parts, wireQuery(t, c, "SELECT id, a, b, c FROM m WHERE "+where)...)
	}
	if got := multiset(parts); !reflect.DeepEqual(got, full) {
		t.Fatalf("TLP violated over wire for %q: partitions %d rows vs table %d",
			pred, len(got), len(full))
	}
}

// assertWireMatchesEngine runs sql both ways and demands bit-identical
// multisets.
func assertWireMatchesEngine(t *testing.T, c *pgwiretest.Conn, db *sqldb.Database, sql string) {
	t.Helper()
	wire := multiset(wireQuery(t, c, sql))
	engine := multiset(engineRows(t, db, sql))
	if !reflect.DeepEqual(wire, engine) {
		t.Fatalf("wire diverges from engine on %q:\nwire   = %q\nengine = %q", sql, wire, engine)
	}
}

func seedMetamorphic(t *testing.T, c *pgwiretest.Conn, r *rand.Rand, nextID *int) {
	t.Helper()
	mustQuery(t, c, "CREATE TABLE m (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, c TEXT)")
	mustQuery(t, c, "CREATE INDEX idx_m_a ON m (a)")
	words := []string{"ant", "bee", "cat", "dge", "eel"}
	for i := 0; i < 60; i++ {
		a := "NULL"
		if r.Intn(7) != 0 {
			a = strconv.Itoa(r.Intn(30))
		}
		mustQuery(t, c, fmt.Sprintf("INSERT INTO m VALUES (%d, %s, %d, '%s')",
			*nextID, a, r.Intn(50), words[r.Intn(len(words))]))
		*nextID++
	}
}

func metamorphicDML(r *rand.Rand, nextID *int) string {
	words := []string{"ant", "bee", "cat", "dge", "eel"}
	switch r.Intn(5) {
	case 0, 1:
		a := "NULL"
		if r.Intn(7) != 0 {
			a = strconv.Itoa(r.Intn(30))
		}
		sql := fmt.Sprintf("INSERT INTO m VALUES (%d, %s, %d, '%s')",
			*nextID, a, r.Intn(50), words[r.Intn(len(words))])
		*nextID++
		return sql
	case 2:
		return fmt.Sprintf("UPDATE m SET a = %d WHERE id %% 7 = %d", r.Intn(30), r.Intn(7))
	case 3:
		return fmt.Sprintf("DELETE FROM m WHERE id = %d", r.Intn(*nextID+1))
	default:
		return fmt.Sprintf("DELETE FROM m WHERE a BETWEEN %d AND %d", r.Intn(28), r.Intn(4))
	}
}

// TestWireMetamorphicNoRECAndTLP: DML applied over the wire, properties
// checked over the wire, and every check's inputs verified bit-identical
// to in-process execution.
func TestWireMetamorphicNoRECAndTLP(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	c := dial(t, addr)
	r := rand.New(rand.NewSource(7))
	nextID := 0
	seedMetamorphic(t, c, r, &nextID)

	steps := 25
	if testing.Short() {
		steps = 6
	}
	for step := 0; step < steps; step++ {
		mustQuery(t, c, metamorphicDML(r, &nextID))
		pred := wirePred(r)
		checkWireNoREC(t, c, pred)
		checkWireTLP(t, c, pred)
		assertWireMatchesEngine(t, c, db, "SELECT id, a, b, c FROM m")
		assertWireMatchesEngine(t, c, db, "SELECT COUNT(*) FROM m WHERE "+pred)
	}
}

// TestWireMetamorphicInTransactions runs the same properties with the
// DML inside explicit wire transactions: mid-transaction the wire session
// is the only observer of its own writes (the engine's autocommit view
// must NOT see them); after COMMIT the views converge bit-identically;
// after ROLLBACK the table's multiset is exactly the pre-BEGIN one.
func TestWireMetamorphicInTransactions(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	c := dial(t, addr)
	r := rand.New(rand.NewSource(11))
	nextID := 0
	seedMetamorphic(t, c, r, &nextID)

	steps := 15
	if testing.Short() {
		steps = 4
	}
	for step := 0; step < steps; step++ {
		before := multiset(engineRows(t, db, "SELECT id, a, b, c FROM m"))
		commit := r.Intn(2) == 0

		mustQuery(t, c, "BEGIN")
		dml := metamorphicDML(r, &nextID)
		res := mustQuery(t, c, dml)
		changed := len(res.Tags) == 1 && res.Tags[0] != "UPDATE 0" &&
			res.Tags[0] != "DELETE 0" && res.Tags[0] != "INSERT 0 0"

		// Mid-transaction: properties hold on the wire view (which
		// includes the uncommitted write)...
		pred := wirePred(r)
		checkWireNoREC(t, c, pred)
		checkWireTLP(t, c, pred)
		// ...while the engine's autocommit view still sees the old state.
		outside := multiset(engineRows(t, db, "SELECT id, a, b, c FROM m"))
		if !reflect.DeepEqual(outside, before) {
			t.Fatalf("step %d: uncommitted wire write leaked to autocommit view", step)
		}

		if commit {
			mustQuery(t, c, "COMMIT")
			assertWireMatchesEngine(t, c, db, "SELECT id, a, b, c FROM m")
			after := multiset(engineRows(t, db, "SELECT id, a, b, c FROM m"))
			if changed && reflect.DeepEqual(after, before) {
				// A mutating DML that committed must be visible; a no-op
				// (e.g. DELETE matching nothing) legitimately is not.
				if res.Tags[0][0] != 'U' { // UPDATE can rewrite equal values
					t.Fatalf("step %d: committed %s (%s) invisible after COMMIT", step, dml, res.Tags[0])
				}
			}
		} else {
			mustQuery(t, c, "ROLLBACK")
			after := multiset(engineRows(t, db, "SELECT id, a, b, c FROM m"))
			if !reflect.DeepEqual(after, before) {
				t.Fatalf("step %d: ROLLBACK did not restore table\nbefore = %q\nafter  = %q",
					step, before, after)
			}
			assertWireMatchesEngine(t, c, db, "SELECT id, a, b, c FROM m")
		}
	}
}

// TestWireMetamorphicExtendedProtocol re-checks NoREC through the
// extended protocol with the predicate's comparison value bound as a
// parameter — the prepared-statement path must agree with the simple
// path and with in-process execution.
func TestWireMetamorphicExtendedProtocol(t *testing.T) {
	_, db, addr := startServer(t, Options{})
	c := dial(t, addr)
	r := rand.New(rand.NewSource(13))
	nextID := 0
	seedMetamorphic(t, c, r, &nextID)

	steps := 20
	if testing.Short() {
		steps = 5
	}
	for step := 0; step < steps; step++ {
		mustQuery(t, c, metamorphicDML(r, &nextID))
		bound := r.Intn(30)

		c.SendParse("", "SELECT COUNT(*) FROM m WHERE a > ?", []int32{23})
		c.SendBind("", "", []*string{pgwiretest.Str(strconv.Itoa(bound))})
		c.SendExecute("", 0)
		c.SendSync()
		res, err := c.Collect()
		if err != nil || res.Err != nil {
			t.Fatalf("step %d: extended count: %v / %v", step, err, res.Err)
		}
		extRows := wireRows(res)

		simple := wireQuery(t, c, fmt.Sprintf("SELECT COUNT(*) FROM m WHERE a > %d", bound))
		engine := engineRows(t, db, "SELECT COUNT(*) FROM m WHERE a > ?", bound)
		if !reflect.DeepEqual(extRows, simple) || !reflect.DeepEqual(extRows, engine) {
			t.Fatalf("step %d: a > %d diverges: extended %q simple %q engine %q",
				step, bound, extRows, simple, engine)
		}
	}
}
