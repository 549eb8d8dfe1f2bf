package sqldb

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
)

// This file implements prepared statements and the database's plan cache.
//
// Parsing is by far the most expensive statement-independent step of
// Query (planning proper is data-dependent — join build sides materialise
// during it — so it runs per execution). A Stmt pins the parsed AST so
// repeated executions skip the parser, and Database.Query consults an LRU
// cache keyed by SQL text so even callers that re-submit raw strings —
// the TAG benchmark harness re-runs its 80 queries every pass — parse each
// statement once. Parsed ASTs are never mutated by execution, so a single
// Stmt is safe for concurrent use.

// Stmt is a prepared SELECT statement: parsed once, executable many times
// with different parameters.
type Stmt struct {
	db  *Database
	sel *SelectStmt
	sql string
}

// Prepare parses a SELECT statement for repeated execution.
func (db *Database) Prepare(sql string) (*Stmt, error) {
	sel, err := db.plans.lookup(sql, "Prepare")
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
	rows, err := s.QueryRows(ctx, params...)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// QueryRows executes the prepared statement and returns a streaming
// cursor (see Database.QueryRows).
func (s *Stmt) QueryRows(ctx context.Context, params ...any) (*Rows, error) {
	return s.db.queryRows(ctx, s.sel, bindParams(params), s.db.currentTxn(), nil)
}

// SQL returns the statement's original text.
func (s *Stmt) SQL() string { return s.sql }

// planCacheCap bounds the number of parsed statements a database retains.
// TAG-Bench's full workload (80 queries plus truth/table probes) fits with
// room to spare; busier callers recycle via LRU.
const planCacheCap = 512

// planCache is an LRU of SQL text -> parsed SELECT. Only successful SELECT
// parses are cached; parse errors are re-reported by the parser each time,
// and non-SELECT statements do not come through here at all — every Exec
// runs ParseAll (execSQL, db.go), which on a write-heavy workload (perf's
// oltp_durable is 45 % DML) is a parse per statement still to be saved
// (ROADMAP, perf ledger: "DML through the plan cache").
type planCache struct {
	mu     sync.Mutex
	m      map[string]*list.Element
	lru    *list.List // front = most recently used
	hits   atomic.Uint64
	misses atomic.Uint64
}

type planEntry struct {
	sql string
	sel *SelectStmt
}

func newPlanCache() *planCache {
	return &planCache{m: make(map[string]*list.Element), lru: list.New()}
}

// lookup returns the cached parse of sql, parsing and inserting on miss.
// verb names the calling API in the non-SELECT error message.
func (c *planCache) lookup(sql, verb string) (*SelectStmt, error) {
	c.mu.Lock()
	if el, ok := c.m[sql]; ok {
		c.lru.MoveToFront(el)
		sel := el.Value.(*planEntry).sel
		c.mu.Unlock()
		c.hits.Add(1)
		return sel, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)

	// Parse outside the lock; concurrent misses on the same text just
	// parse twice and the second insert wins the front slot.
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, errf(ErrMisuse, "sql: %s requires a SELECT statement, got %T", verb, stmt)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[sql]; ok { // lost the race: keep the incumbent
		c.lru.MoveToFront(el)
		return el.Value.(*planEntry).sel, nil
	}
	c.m[sql] = c.lru.PushFront(&planEntry{sql: sql, sel: sel})
	for c.lru.Len() > planCacheCap {
		last := c.lru.Back()
		c.lru.Remove(last)
		delete(c.m, last.Value.(*planEntry).sql)
	}
	return sel, nil
}

// counters reports the cache's cumulative hit/miss counts (Stats).
func (c *planCache) counters() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// len reports the number of cached plans (for tests).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
