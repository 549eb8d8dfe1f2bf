package sqldb

import "context"

// This file is the engine's surface for the wire-protocol server
// (internal/server/pgwire). A wire session gets each text's statements from
// ParseCached (Parse message or simple-query split), dispatches
// BEGIN/COMMIT/ROLLBACK onto its own *Txn handle, and runs everything else
// through the two entry points below — so portals never re-parse. Both
// run in exactly the tx they are handed, nil meaning autocommit: the
// database's SQL-level session transaction (db.Exec("BEGIN")) belongs to
// single-connection embedded use and is never resolved, joined or opened
// from here, whatever an embedded caller has open beside N sockets. The
// probes at the bottom are what the wire test layer pins leak-freedom
// with: after every disconnect, at every protocol state, live snapshots,
// open cursors, and parallel workers must all return to zero.

// ParseCached is ParseAll through the database's statement cache
// (prepare.go): a text any session or embedded caller has sent before is
// not parsed again. The statements are shared — read, never written.
func (db *Database) ParseCached(sql string) ([]Statement, error) {
	return db.plans.statements(sql)
}

// ExecStmtTx executes one already-parsed statement inside tx; a nil tx
// runs it as an autocommit statement. It is the exec loop Txn.Exec runs,
// over one statement: COMMIT/ROLLBACK finish a live tx, and BEGIN is
// rejected either way (inside a tx as nested, outside one because there is
// no session to open — callers owning their own transaction state machine,
// like the wire session, intercept those kinds and use Database.Begin).
func (db *Database) ExecStmtTx(ctx context.Context, stmt Statement, tx *Txn, params ...any) (int, error) {
	return db.execAll(ctx, []Statement{stmt}, bindParams(params), tx, false)
}

// QueryRowsStmt opens a streaming cursor over an already-parsed SELECT
// inside tx (nil = autocommit read with its own fresh snapshot). The
// cursor holds its own snapshot reference; Close releases it — a wire
// portal maps one-to-one onto this cursor and must Close it on every
// exit path (Execute completion, portal close, Sync teardown, session
// death). The cursor lends its rows: each is built in a reused buffer and
// valid until the next Next, so a caller encodes it first (Collect copies).
func (db *Database) QueryRowsStmt(ctx context.Context, sel *SelectStmt, tx *Txn, params ...any) (*Rows, error) {
	return db.queryRows(ctx, sel, bindParams(params), tx, nil, true)
}

// LiveSnapshots reports the number of registered MVCC snapshots currently
// pinning the vacuum horizon. An idle database with no open cursors or
// transactions reports zero; the wire disconnect matrix asserts it
// returns to zero after killing connections at every protocol state.
func (db *Database) LiveSnapshots() int { return db.tm.liveSnapshots() }

// LiveParallelWorkers reports engine-wide live parallel-scan worker
// goroutines (zero when no query is mid-flight). Like LiveSnapshots it
// exists for leak assertions: workers must be stopped and joined before a
// cursor's snapshot is released, no matter how the connection died.
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
