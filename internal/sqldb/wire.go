package sqldb

// This file is the engine's surface for the wire-protocol server
// (internal/server/pgwire). A wire session gets each text's statements from
// ParseCached (Parse message or simple-query split) and runs them through
// its Session (session.go), which holds the connection's transaction, so
// portals never re-parse. The probes below are what the wire test layer
// pins leak-freedom with: after every disconnect, at every protocol state,
// live snapshots, open cursors, and parallel workers must all return to
// zero.

// ParseCached is ParseAll through the database's statement cache
// (prepare.go): a text any session or embedded caller has sent before is
// not parsed again. The statements are shared — read, never written.
func (db *Database) ParseCached(sql string) ([]Statement, error) {
	return db.plans.statements(sql)
}

// LiveSnapshots reports the number of registered MVCC snapshots currently
// pinning the vacuum horizon. An idle database with no open cursors or
// transactions reports zero; the wire disconnect matrix asserts it
// returns to zero after killing connections at every protocol state.
func (db *Database) LiveSnapshots() int { return db.tm.liveSnapshots() }

// LiveParallelWorkers reports engine-wide live worker goroutines of the
// pool. A pool is spawned and joined inside one pull (runFold) or one
// sealing pass, so it is zero whenever no statement is inside Next, Collect
// or Query — an open cursor included — and no table is being sealed. Like
// LiveSnapshots it exists for leak assertions, however the connection died.
func LiveParallelWorkers() int64 { return parallelWorkersActive.Load() }

// NumParams reports the number of positional ? parameters stmt references
// (max index + 1), descending into subqueries and derived tables. The
// wire server answers Describe's ParameterDescription with it and uses it
// to bind NULL placeholders when planning a result-shape probe.
func NumParams(stmt Statement) int {
	n := 0
	var visitExpr func(e Expr)
	var visitSel func(s *SelectStmt)
	visitExpr = func(e Expr) {
		walkExpr(e, func(x Expr) bool {
			switch t := x.(type) {
			case *Param:
				if t.Index+1 > n {
					n = t.Index + 1
				}
			case *Subquery:
				visitSel(t.Select)
			case *ExistsExpr:
				visitSel(t.Select)
			case *InList:
				if t.Sub != nil {
					visitSel(t.Sub)
				}
			}
			return true
		})
	}
	visitSel = func(s *SelectStmt) {
		if s == nil {
			return
		}
		for _, it := range s.Items {
			visitExpr(it.Expr)
		}
		if s.From != nil {
			visitSel(s.From.Sub)
		}
		for _, j := range s.Joins {
			visitSel(j.Table.Sub)
			visitExpr(j.On)
		}
		visitExpr(s.Where)
		for _, g := range s.GroupBy {
			visitExpr(g)
		}
		visitExpr(s.Having)
		for _, o := range s.OrderBy {
			visitExpr(o.Expr)
		}
		visitExpr(s.Limit)
		visitExpr(s.Offset)
	}
	switch t := stmt.(type) {
	case *SelectStmt:
		visitSel(t)
	case *InsertStmt:
		for _, row := range t.Rows {
			for _, e := range row {
				visitExpr(e)
			}
		}
		visitSel(t.Select)
	case *UpdateStmt:
		for _, sc := range t.Set {
			visitExpr(sc.Expr)
		}
		visitExpr(t.Where)
	case *DeleteStmt:
		visitExpr(t.Where)
	}
	return n
}
