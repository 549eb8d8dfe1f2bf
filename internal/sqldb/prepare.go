package sqldb

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file implements the database's statement cache and prepared
// statements. The rule: work that depends only on a statement's text
// happens once per text. Lexing and parsing are that work; everything after
// them reads the schema, the bound values and the snapshot (join build sides
// materialise during planning, the access path is picked from the bound
// values), so it runs per execution. Every entry point that is handed text
// reaches the parser through one cache of text -> []Statement: Exec and
// Txn.Exec of any statement kind (execSQL), Query*/Prepare/Explain*
// (selectStmt) and the wire server's Query and Parse messages (ParseCached).
//
// Execution never mutates a parsed statement — statement_cache_test.go runs
// cached against fresh-parsed step by step and renders every cached
// statement before and after — so one AST serves any number of concurrent
// executions and a Stmt is safe for concurrent use.

// Stmt is a prepared SELECT statement: parsed once, executable many times
// with different parameters.
type Stmt struct {
	db  *Database
	sel *SelectStmt
	sql string
}

// Prepare parses a SELECT statement for repeated execution.
func (db *Database) Prepare(sql string) (*Stmt, error) {
	sel, err := db.plans.selectStmt(sql, "Prepare")
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, sel: sel, sql: sql}, nil
}

// Query executes the prepared statement with the given parameters,
// materialising the result.
func (s *Stmt) Query(params ...any) (*Result, error) {
	return s.QueryContext(context.Background(), params...)
}

// QueryContext is Query under a context.
func (s *Stmt) QueryContext(ctx context.Context, params ...any) (*Result, error) {
	return collect(s.QueryRows(ctx, params...))
}

// QueryRows executes the prepared statement and returns a streaming
// cursor (see Database.QueryRows).
func (s *Stmt) QueryRows(ctx context.Context, params ...any) (*Rows, error) {
	return s.db.queryRows(ctx, s.sel, bindParams(params), s.db.currentTxn(), nil, false)
}

// SQL returns the statement's original text.
func (s *Stmt) SQL() string { return s.sql }

// What the cache retains is bounded by constants, however long a text is
// and however many arrive: an entry is charged its text plus planEntryCost
// (a short statement's AST and the entry) and the least recently used go
// once the charges pass planCacheBudget. A text over planCacheMaxText — a
// script for LoadScript, a recovered snapshot, a bulk INSERT — is parsed and
// not kept: its AST, some twenty times its text, must not outlive the call.
const (
	planCacheBudget  = 1 << 17
	planCacheMaxText = 1 << 12
	planEntryCost    = 128
)

// planCache is an LRU of SQL text -> the statements ParseAll returns for it.
// Only successful parses are kept; the parser re-reports an error each time.
// The entries form a ring through lru: next is the most recently used.
type planCache struct {
	mu     sync.Mutex
	m      map[string]*planEntry
	lru    planEntry
	held   int // sum of the entries' charges
	hits   atomic.Uint64
	misses atomic.Uint64
}

type planEntry struct {
	sql        string
	stmts      []Statement
	prev, next *planEntry
}

func newPlanCache() *planCache {
	c := &planCache{m: make(map[string]*planEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

func (e *planEntry) unlink() { e.prev.next, e.next.prev = e.next, e.prev }

// statements returns the parse of sql, from the cache or into it. The
// result is shared: callers read it and never write.
func (c *planCache) statements(sql string) ([]Statement, error) {
	c.mu.Lock()
	if e := c.m[sql]; e != nil {
		e.unlink()
		c.link(e)
		stmts := e.stmts // read under mu: an evicted entry is reused
		c.mu.Unlock()
		c.hits.Add(1)
		return stmts, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	// Parse outside the lock; of two misses on one text the first in stays.
	stmts, err := ParseAll(sql)
	if err != nil || len(sql) > planCacheMaxText {
		return stmts, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.m[sql]; e != nil {
		return e.stmts, nil
	}
	// Make room; the last entry evicted carries the new statements, so a
	// stream of never-repeated texts inserts without allocating.
	var e *planEntry
	for c.held += len(sql) + planEntryCost; c.held > planCacheBudget; {
		e = c.lru.prev
		e.unlink()
		delete(c.m, e.sql)
		c.held -= len(e.sql) + planEntryCost
	}
	if e == nil {
		e = new(planEntry)
	}
	e.sql, e.stmts = sql, stmts
	c.link(e)
	c.m[sql] = e
	return stmts, nil
}

// link makes e, which is in no ring, the most recently used entry.
func (c *planCache) link(e *planEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// selectStmt is statements for the callers that run one SELECT: Parse's
// single-statement rule, then the kind. verb names the calling API in the
// non-SELECT error message.
func (c *planCache) selectStmt(sql, verb string) (*SelectStmt, error) {
	stmts, err := c.statements(sql)
	if err != nil {
		return nil, err
	}
	stmt, err := oneStatement(stmts, sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, errf(ErrMisuse, "sql: %s requires a SELECT statement, got %T", verb, stmt)
	}
	return sel, nil
}
