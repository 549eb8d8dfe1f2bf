package sqldb

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The statement cache (prepare.go) hands one parsed AST to every execution
// of a text, so its contract is that nothing downstream writes to one.
// TestDifferential holds it to that — cached against fresh-parsed, every
// cached statement rendered after each execution, and mutation rows that
// must fail it; the tests here run shared ASTs concurrently under -race and
// pin the retention bound and the allocation ceilings that say the
// text-dependent work is really gone from a repeated statement.

// renderAll is the statements' String() forms, one a line.
func renderAll(stmts []Statement) string {
	var b strings.Builder
	for _, s := range stmts {
		b.WriteString(s.String() + "\n")
	}
	return b.String()
}

// TestStatementCacheConcurrent runs the same cached UPDATE / INSERT / SELECT
// texts from four goroutines at once — every execution reads one shared AST —
// while a fifth sends never-repeated literal texts, enough of them that
// entries are evicted and recycled throughout. Meant for -race; the totals
// are checked either way.
func TestStatementCacheConcurrent(t *testing.T) {
	db := NewDatabase()
	db.MustExec("CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, bal INTEGER)")
	db.MustExec("CREATE TABLE log (id INTEGER PRIMARY KEY, who INTEGER)")
	const accounts, workers, rounds = 16, 4, 300
	for i := 0; i < accounts; i++ {
		db.MustExec("INSERT INTO acct VALUES (?, ?, ?)", i, fmt.Sprint("o", i), 100)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := (g + i) % accounts
				if n, err := db.Exec("UPDATE acct SET bal = bal + ? WHERE id = ?", g+1, id); err != nil || n != 1 {
					errs <- fmt.Errorf("update: %d, %v", n, err)
					return
				}
				if n, err := db.Exec("INSERT INTO log VALUES (?, ?)", g*rounds+i, g); err != nil || n != 1 {
					errs <- fmt.Errorf("insert: %d, %v", n, err)
					return
				}
				if res, err := db.Query("SELECT bal FROM acct WHERE id = ?", id); err != nil || len(res.Rows) != 1 {
					errs <- fmt.Errorf("select: %v, %v", res, err)
					return
				}
			}
		}(g)
	}
	oneShots := 2 * planCacheBudget / planEntryCost
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < oneShots; i++ {
			if res, err := db.Query(fmt.Sprintf("SELECT owner FROM acct WHERE id = %d AND %d >= 0", i%accounts, i)); err != nil || len(res.Rows) != 1 {
				errs <- fmt.Errorf("one-shot %d: %v, %v", i, res, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := fmt.Sprint(accounts*100 + rounds*(1+2+3+4))
	if got := queryStrings(t, db, "SELECT SUM(bal) FROM acct")[0][0]; got != want {
		t.Errorf("SUM(bal) = %s, want %s", got, want)
	}
	if got := queryStrings(t, db, "SELECT COUNT(*) FROM log")[0][0]; got != fmt.Sprint(workers*rounds) {
		t.Errorf("COUNT(log) = %s, want %d", got, workers*rounds)
	}
	if entries := len(db.plans.m); db.plans.held > planCacheBudget || entries >= oneShots {
		t.Errorf("cache holds %d entries charged %d after %d one-shot texts; budget %d", entries, db.plans.held, oneShots, planCacheBudget)
	}
}

// TestStatementCacheBounded: what the cache retains is under its constant
// whatever passes through. A 20,000-row dump loaded by LoadScript — one text
// of some 800 KB whose AST is twenty times that — leaves nothing behind, and
// 10,000 distinct one-shot SELECT texts leave at most the budget's worth of
// entries; the heap they pin is measured, not just the bookkeeping.
func TestStatementCacheBounded(t *testing.T) {
	src := NewDatabase()
	src.MustExec("CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, bal INTEGER)")
	rows := make([][]any, 20000)
	for i := range rows {
		rows[i] = []any{i, fmt.Sprint("owner-", i), i % 997}
	}
	if err := src.InsertRows("acct", rows); err != nil {
		t.Fatal(err)
	}
	var script bytes.Buffer
	if err := src.Dump(&script); err != nil {
		t.Fatal(err)
	}

	db := NewDatabase()
	if err := db.LoadScript(script.String()); err != nil {
		t.Fatal(err)
	}
	if len(db.plans.m) != 0 || db.plans.held != 0 {
		t.Fatalf("LoadScript of a %d-byte script left %d entries charged %d in the cache", script.Len(), len(db.plans.m), db.plans.held)
	}
	base := liveHeap()
	for i := 0; i < 10000; i++ {
		res, err := db.Query(fmt.Sprintf("SELECT bal FROM acct WHERE id = %d", i))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("one-shot %d: %v, %v", i, res, err)
		}
	}
	entries, held := len(db.plans.m), db.plans.held
	if held > planCacheBudget || entries > planCacheBudget/planEntryCost || entries < 100 {
		t.Errorf("after 10,000 one-shot texts the cache holds %d entries charged %d; budget %d", entries, held, planCacheBudget)
	}
	// ~780 entries of ~1 KB (text, AST, entry, map slot) measure 0.9 MB.
	if grown := int64(liveHeap()) - int64(base); grown > 2<<20 {
		t.Errorf("the cache pins %d bytes of heap after 10,000 one-shot texts, want under 2 MiB", grown)
	}
	runtime.KeepAlive(db)
}

// acctDB is oltp_durable's table at 1,000 rows.
func acctDB(t testing.TB) *Database {
	db := NewDatabase()
	db.MustExec("CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, bal INTEGER)")
	db.MustExec("CREATE INDEX idx_acct_bal ON acct (bal)")
	rows := make([][]any, 1000)
	for i := range rows {
		rows[i] = []any{i, fmt.Sprint("owner-", i), 1000}
	}
	if err := db.InsertRows("acct", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCachedExecAllocatesNoParse: a repeated parameterised UPDATE / INSERT /
// DELETE through Exec(text) allocates exactly what handing execAll the
// already-parsed statement allocates — nothing in lex, nothing in the parser
// — and stays under a ceiling: 14 / 11 / 6 allocations an Exec, where a
// parser per text and name maps to plan it spent 43 / 32 / 19, and a
// statement-end closure 15 / 12 / 7.
func TestCachedExecAllocatesNoParse(t *testing.T) {
	db := acctDB(t)
	next := 1 << 20
	for _, c := range []struct {
		sql     string
		params  func() []any
		ceiling float64
	}{
		{"UPDATE acct SET bal = bal + ? WHERE id = ?", func() []any { return []any{1, 7} }, 14},
		{"INSERT INTO acct VALUES (?, ?, ?)", func() []any { next++; return []any{next, "o", 5} }, 11},
		{"DELETE FROM acct WHERE id = ?", func() []any { return []any{-1} }, 6},
	} {
		stmt, err := Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ { // past the first writes' one-time index set-up
			db.MustExec(c.sql, c.params()...)
		}
		run := func(exec func(params []any) (int, error)) float64 {
			return testing.AllocsPerRun(50, func() {
				if _, err := exec(c.params()); err != nil {
					t.Fatal(err)
				}
			})
		}
		parsed := run(func(p []any) (int, error) {
			return db.execAll(context.Background(), []Statement{stmt}, bindParams(p), nil)
		})
		text := run(func(p []any) (int, error) { return db.Exec(c.sql, p...) })
		if text > parsed || text > c.ceiling {
			t.Errorf("%s: Exec(text) allocates %.0f, the parsed statement %.0f; want no more than it and at most %.0f", c.sql, text, parsed, c.ceiling)
		}
	}
}

// TestParseHoldsNoTokens: the parser scans the text as it reads and holds
// at most two tokens, so a statement's parse costs its AST and nothing per
// byte of text: 64 KiB of trailing whitespace or comment adds not one
// allocation or byte. The parent lexed the whole text into a token slice
// sized at a third of its length first: 35 allocations for this text, and
// about 700 KB more with either tail.
func TestParseHoldsNoTokens(t *testing.T) {
	const sql = `SELECT a.owner, "b".bal, COUNT(*) FROM acct a JOIN acct AS "b" ON a.id = b.id ` +
		`WHERE a.owner LIKE 'own%' AND b.bal >= 10.5 OR a.id IN (1, 2, ?) GROUP BY a.owner ORDER BY 2 DESC LIMIT 5;`
	cost := func(src string) (float64, uint64) {
		parse := func() {
			if _, err := ParseAll(src); err != nil {
				t.Fatal(err)
			}
		}
		n := testing.AllocsPerRun(100, parse)
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			parse()
		}
		runtime.ReadMemStats(&after)
		return n, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	n, b := cost(sql)
	if n != 34 {
		t.Errorf("ParseAll allocates %.0f times, want 34", n)
	}
	for _, tail := range []string{strings.Repeat(" ", 64<<10), "/*" + strings.Repeat("x", 64<<10) + "*/"} {
		if tn, tb := cost(sql + tail); tn != n || tb != b {
			t.Errorf("with a %d-byte tail: %.0f allocations and %d B, want %.0f and %d B", len(tail), tn, tb, n, b)
		}
	}
	toks, err := lex(`SELECT 'it''s'`)
	if err != nil || toks[1].text != "it's" {
		t.Errorf("doubled quote lexed as %q, %v", toks[1].text, err)
	}
}

// TestOpenAllocatesNoNameMap: planning a point lookup and a two-table join
// resolves its handful of column references by comparison. The parent built
// a map of lower-cased names per scope: 28 and 88 allocations to run these,
// 20 and 47 once it did not, 15 and 36 since a cursor's queryCtx is part of
// its Rows and autocommit reads share a snapshot (19 and 41 before). Their
// bytes are pinned too, at what they measure plus 2 %: a point read pays
// for no pipeline it does not run.
func TestOpenAllocatesNoNameMap(t *testing.T) {
	db := acctDB(t)
	db.MustExec("CREATE TABLE branch (id INTEGER PRIMARY KEY, city TEXT)")
	db.MustExec("INSERT INTO branch VALUES (7, 'x'), (8, 'y')")
	// One P, as AllocsPerRun runs: a scan's batch goes back to the pool slot
	// of the P it ran on, and a run moved to another P would grow a batch
	// of some other size into its 1,000-row one (+190 B a run).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		sql     string
		ceiling float64
		bytes   uint64
	}{
		{"SELECT bal FROM acct WHERE id = ?", 15, 1250},
		{"SELECT a.bal, b.city FROM acct a JOIN branch b ON a.id = b.id WHERE b.id = ?", 36, 3650},
		// An ordered walk the LIMIT stops after one row: the run it read is
		// the row, and the batch goes back to the pool at Close.
		{"SELECT bal FROM acct WHERE id > ? ORDER BY id LIMIT 1", 17, 1600},
	} {
		sel, err := db.plans.selectStmt(c.sql, "test")
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			rows, err := db.queryRows(context.Background(), sel, bindParams([]any{7}), nil, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			for rows.Next() {
			}
			if err := rows.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(50, run); n > c.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", c.sql, n, c.ceiling)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > c.bytes {
			t.Errorf("%s: %d B a run, ceiling %d B", c.sql, b, c.bytes)
		}
	}
}

// TestCheckpointAllocsIndependentOfRows: a checkpoint encodes each row as
// an op into the writer's one buffer and writes it to the new log
// generation a record at a time, so ten times the rows cost the same
// allocations (within 5 %): 38 at either size. Both sizes hold sealed
// blocks, which a checkpoint reads into one more reused row and seek
// position: two allocations more.
func TestCheckpointAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		db, err := Open(filepath.Join(t.TempDir(), fmt.Sprint("db", n)))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		db.MustExec("CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, bal REAL)")
		rows := make([][]any, n)
		for i := range rows {
			rows[i] = []any{i, fmt.Sprint("o'", i), float64(i) / 4}
		}
		if err := db.InsertRows("acct", rows); err != nil {
			t.Fatal(err)
		}
		db.Seal()       // ahead of the background sealer the load woke,
		db.vacWG.Wait() // and past it: no other goroutine allocates meanwhile
		return testing.AllocsPerRun(3, func() {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(2000), allocs(20000)
	// Under -race the runtime books three allocations more at the larger
	// size (none under checkpoint in a heap profile), past 5 % of 53: allow
	// four. One allocation per thousand rows would still show as nine.
	if large > math.Max(small*1.05, small+4) || small > 60 {
		t.Errorf("checkpoint allocates %.0f at 2,000 rows and %.0f at 20,000; want within 5 %% and under 60", small, large)
	}
}
