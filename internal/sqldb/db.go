package sqldb

import (
	"context"
	"fmt"
	"slices"
	"strings"
)

// Result is a fully materialised query result — what Rows.Collect
// returns. Callers that consume rows incrementally (or stop early) should
// prefer Database.QueryRows. Its rows are read-only: a row may be the
// table's own storage, and Rows may be a full sort's own slice.
type Result struct {
	Columns []string
	Rows    []Row
}

// ColumnIndex returns the ordinal of the named result column
// (case-insensitive), or -1.
func (r *Result) ColumnIndex(name string) int {
	return slices.IndexFunc(r.Columns, func(c string) bool { return strings.EqualFold(c, name) })
}

// Value returns the value at (row, named column). Missing columns or
// out-of-range rows return NULL.
func (r *Result) Value(row int, col string) Value {
	i := r.ColumnIndex(col)
	if i < 0 || row < 0 || row >= len(r.Rows) {
		return Null
	}
	return r.Rows[row][i]
}

// String renders the result as an aligned text table (for the CLI shell and
// for debugging): the column names, a rule under each, then the rows.
func (r *Result) String() string {
	lines := make([][]string, 2, 2+len(r.Rows))
	lines[0], lines[1] = r.Columns, r.Columns // lines[1] is the rule, drawn below
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		line := make([]string, len(row))
		for i, v := range row {
			if line[i] = v.AsText(); v.IsNull() {
				line[i] = "NULL"
			}
			widths[i] = max(widths[i], len(line[i]))
		}
		lines = append(lines, line)
	}
	var b strings.Builder
	for li, line := range lines {
		for i, s := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			if li == 1 {
				s = strings.Repeat("-", widths[i])
			}
			b.WriteString(s + strings.Repeat(" ", widths[i]-len(s)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Query executes a SELECT statement, materialising its rows. It is
// Collect over QueryRows: parses are served from the database's LRU plan
// cache, so a text run many times is parsed once, and callers that consume
// rows incrementally should use QueryRows directly.
func (db *Database) Query(sql string, params ...any) (*Result, error) {
	return db.QueryContext(context.Background(), sql, params...)
}

// QueryContext is Query under a context: cancellation or deadline expiry
// stops the scan mid-flight with an ErrCanceled error.
func (db *Database) QueryContext(ctx context.Context, sql string, params ...any) (*Result, error) {
	rows, err := db.QueryRows(ctx, sql, params...)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Exec parses and executes any statement. For SELECT it streams rows to
// /dev/null and returns their count; for DML it returns the number of
// affected rows; for DDL it returns 0.
func (db *Database) Exec(sql string, params ...any) (int, error) {
	return db.ExecContext(context.Background(), sql, params...)
}

// ExecContext is Exec under a context: long scans and DML loops observe
// cancellation mid-flight. Each statement runs as its own autocommit; a
// transaction is opened by Database.Begin, never by a statement.
func (db *Database) ExecContext(ctx context.Context, sql string, params ...any) (int, error) {
	return db.execSQL(ctx, sql, params, nil)
}

// execSQL runs the statements of sql, parsed through the statement cache:
// the text form of every Exec, Database's and Txn's.
func (db *Database) execSQL(ctx context.Context, sql string, params []any, tx *Txn) (int, error) {
	stmts, err := db.plans.statements(sql)
	if err != nil {
		return 0, err
	}
	return db.execAll(ctx, stmts, bindParams(params), tx)
}

// execAll is the one exec loop: Database.ExecContext, Txn.ExecContext and
// Session.Exec all run their statements here, under one query context whose
// counters fold into Stats when the loop ends. Every statement, of every
// kind, runs in the handle the entry point was called on — tx, nil meaning
// autocommit — and is admitted against it before it runs. A statement is all
// or nothing: one that fails is undone (endWrite) and adds nothing to the
// count of those before it.
func (db *Database) execAll(ctx context.Context, stmts []Statement, vals []Value, tx *Txn) (int, error) {
	qc := new(queryCtx).init(ctx, db)
	defer qc.flush()
	total := 0
	for _, stmt := range stmts {
		if err := qc.admit(tx); err != nil {
			return total, err
		}
		n, err := db.execStmt(qc, stmt, vals, tx)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// MustExec is Exec that panics on error — intended for test fixtures and
// generated data loading where failure is a programming bug.
func (db *Database) MustExec(sql string, params ...any) {
	if _, err := db.Exec(sql, params...); err != nil {
		panic(fmt.Sprintf("sqldb: MustExec(%.80q): %v", sql, err))
	}
}

func bindParams(params []any) []Value {
	vals := make([]Value, len(params))
	for i, p := range params {
		vals[i] = GoValue(p)
	}
	return vals
}

// execStmt executes one admitted statement in tx (nil = autocommit). BEGIN,
// COMMIT and ROLLBACK are refused: Database.Begin opens a transaction and
// only its handle, Txn.Commit or Txn.Rollback, ends it.
func (db *Database) execStmt(qc *queryCtx, stmt Statement, params []Value, tx *Txn) (int, error) {
	if sel, ok := stmt.(*SelectStmt); ok {
		// Count the cursor's rows: each is built in a reused buffer and
		// dropped, a LIMIT stops the scan early, and the cursor bills itself
		// when Next closes it.
		rows, err := db.queryRows(qc.ctx, sel, params, tx, nil, true)
		if err != nil {
			return 0, err
		}
		n := 0
		for rows.Next() {
			n++
		}
		return n, rows.Err()
	}
	qc.execs++
	switch t := stmt.(type) {
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return 0, errf(ErrMisuse, "sql: a statement cannot begin or end a transaction; use Database.Begin and Txn.Commit or Txn.Rollback")
	case *CreateTableStmt, *CreateIndexStmt, *DropTableStmt:
		wtx, err := db.beginWrite(qc, tx)
		if err != nil {
			return 0, err
		}
		return 0, db.endWrite(qc, wtx, db.ddl(stmt, wtx))
	case *InsertStmt:
		return db.execInsert(t, params, qc, tx)
	case *UpdateStmt:
		return db.mutate(t.Table, t.Where, t.Set, params, qc, tx)
	case *DeleteStmt:
		return db.mutate(t.Table, t.Where, nil, params, qc, tx)
	default:
		return 0, errf(ErrMisuse, "sql: cannot execute %T", stmt)
	}
}

// ddl applies one schema change in tx, which holds the single-writer
// latch: a statement's (execStmt) or recovery's. The change is published
// copy-on-write, so lock-free readers always observe a complete table map;
// it is undone by an explicit transaction's rollback and logged as an op
// of the unit's WAL record.
func (db *Database) ddl(stmt Statement, tx *Txn) error {
	switch t := stmt.(type) {
	case *CreateTableStmt:
		return db.createTable(t, tx)
	case *CreateIndexStmt:
		return db.createIndex(t, tx)
	case *DropTableStmt:
		return db.dropTable(t, tx)
	}
	return errf(ErrMisuse, "sql: %T is not a schema change", stmt)
}

func (db *Database) createTable(stmt *CreateTableStmt, tx *Txn) error {
	key := strings.ToLower(stmt.Name)
	if _, exists := db.tableMap()[key]; exists {
		if stmt.IfNotExists {
			return nil
		}
		return errf(ErrSchema, "sql: table %s already exists", stmt.Name)
	}
	t, err := newTable(stmt)
	if err != nil {
		return err
	}
	db.publishTables(func(m map[string]*Table) { m[key] = t })
	tx.record(undoRec{kind: undoCreateTable, table: t})
	tx.logWALOp(walOp{kind: 'S', sql: stmt.String()})
	return nil
}

func (db *Database) createIndex(stmt *CreateIndexStmt, tx *Txn) error {
	t, err := db.lookupTable(stmt.Table)
	if err != nil {
		return err
	}
	ci := t.ColumnIndex(stmt.Column)
	if ci < 0 {
		return errf(ErrNoColumn, "sql: no such column %s.%s", stmt.Table, stmt.Column)
	}
	if t.idxs()[ci] != nil {
		return nil // idempotent: one index per column is all we support
	}
	idx := newIndex(stmt.Name, ci, stmt.Unique)
	// Index every surviving version of every chain (the superset contract:
	// snapshots older than the statement must find their rows through the
	// new index too). The UNIQUE duplicate check runs on latest rows only.
	if err := t.reachable(ci, func(v Value, id int) { idx.addEntry(v, id) }); err != nil {
		return err
	}
	var seek blockSeek
	for id := 0; stmt.Unique && id < int(t.n.Load()); id++ {
		v, ok, err := t.visibleValue(id, nil, ci, &seek)
		held := 0
		if err == nil && ok && !v.IsNull() {
			held, err = t.liveKeyCount(idx, v)
		}
		if err != nil {
			return err
		}
		if held > 1 {
			return errf(ErrConstraint, "sql: cannot create UNIQUE index %s: duplicate value %s", stmt.Name, v)
		}
	}
	t.setIndex(ci, idx)
	tx.record(undoRec{kind: undoCreateIndex, table: t, id: ci})
	tx.logWALOp(walOp{kind: 'S', sql: stmt.String()})
	return nil
}

func (db *Database) dropTable(stmt *DropTableStmt, tx *Txn) error {
	key := strings.ToLower(stmt.Name)
	t, exists := db.tableMap()[key]
	if !exists {
		if stmt.IfExists {
			return nil
		}
		return errf(ErrNoTable, "sql: no such table: %s", stmt.Name)
	}
	db.publishTables(func(m map[string]*Table) { delete(m, key) })
	tx.record(undoRec{kind: undoDropTable, table: t})
	tx.logWALOp(walOp{kind: 'S', sql: stmt.String()})
	return nil
}

func (db *Database) execInsert(stmt *InsertStmt, params []Value, qc *queryCtx, tx *Txn) (n int, err error) {
	wtx, err := db.beginWrite(qc, tx)
	if err != nil {
		return 0, err
	}
	defer func() { err = db.endWrite(qc, wtx, err) }()
	t, err := db.lookupTable(stmt.Table)
	if err != nil {
		return 0, err
	}
	// Map the statement's column list to table ordinals.
	colOrder := make([]int, 0, len(t.Columns))
	if len(stmt.Columns) == 0 {
		for i := range t.Columns {
			colOrder = append(colOrder, i)
		}
	} else {
		for _, name := range stmt.Columns {
			ci := t.ColumnIndex(name)
			if ci < 0 {
				return 0, errf(ErrNoColumn, "sql: table %s has no column named %s", t.Name, name)
			}
			colOrder = append(colOrder, ci)
		}
	}

	// Every source row is evaluated before the first is inserted, so a
	// VALUES subquery or an INSERT ... SELECT over the target table reads
	// the pre-statement state.
	var sourceRows []Row
	if stmt.Select != nil {
		if _, sourceRows, _, err = execSelect(stmt.Select, db, params, nil, qc); err != nil {
			return 0, err
		}
	} else {
		for _, exprs := range stmt.Rows {
			row := make(Row, len(exprs))
			for i, e := range exprs {
				if row[i], err = evalConst(e, db, params, qc); err != nil {
					return 0, err
				}
			}
			sourceRows = append(sourceRows, row)
		}
	}

	return len(sourceRows), t.insertRows(len(sourceRows), func(i int, full Row) error {
		if len(sourceRows[i]) != len(colOrder) {
			return errf(ErrMisuse, "sql: table %s expects %d values, got %d", t.Name, len(colOrder), len(sourceRows[i]))
		}
		for j, ci := range colOrder {
			full[ci] = sourceRows[i][j]
		}
		return nil
	}, qc, wtx)
}

// dmlTarget is one row an UPDATE or DELETE is about to change: its slot,
// its current row and the row replacing it (nil = delete).
type dmlTarget struct {
	id       int
	old, row Row
}

// mutate runs an UPDATE (set non-empty) or a DELETE (set nil) over the rows
// of table that satisfy where. It is the one loop both statements share:
// the access path is the one SELECT would take for the same WHERE
// (chooseIndexAccess: an index serves what it can, the residual conjuncts
// and the SET expressions compile once and run per row), the rows come
// from SELECT's scan in ascending id order, and each qualifying row
// becomes a target, NOT NULL checked. The scan finishes before the first
// change, so every evaluation — a subquery over the very table included —
// sees the pre-statement state (no Halloween problem); UNIQUE is then
// checked once over the statement's final state, and only then are the
// targets applied. An error at any step is undone by endWrite.
func (db *Database) mutate(table string, where Expr, set []SetClause, params []Value, qc *queryCtx, tx *Txn) (n int, err error) {
	wtx, err := db.beginWrite(qc, tx)
	if err != nil {
		return 0, err
	}
	defer func() { err = db.endWrite(qc, wtx, err) }()
	t, err := db.lookupTable(table)
	if err != nil {
		return 0, err
	}
	sets := make([]struct {
		col int
		val compiledExpr
	}, len(set))
	for i, sc := range set {
		if sets[i].col = t.ColumnIndex(sc.Column); sets[i].col < 0 {
			return 0, errf(ErrNoColumn, "sql: table %s has no column named %s", t.Name, sc.Column)
		}
	}

	// Under the writer latch the statement snapshot sees exactly the latest
	// versions, so the scan SELECT runs is the scan DML runs: access path,
	// the rest of WHERE, counters and cancellation included. Names bind
	// here, once, whether or not any row qualifies.
	scan := scanOp{batchPlan: batchPlan{table: t, qual: t.Name, cols: t.cols}, scanPipe: tableRows, qc: qc}
	if where != nil {
		if scan.indexAccess, scan.preds, err = chooseIndexAccess(t, t.Name, splitConjuncts(where), params, qc.snap); err != nil {
			return 0, err
		}
	}
	if err := scan.compile(db, params, nil); err != nil {
		return 0, err
	}
	var env *evalEnv
	if len(set) > 0 {
		env = newEvalEnv(scan.cols, db, params, nil, qc)
		for i, sc := range set {
			if sets[i].val, err = compileExpr(sc.Expr, env); err != nil {
				return 0, err
			}
		}
	}

	var one [1]dmlTarget // a one-row statement's targets stay on the stack
	targets := one[:0]
	for {
		r, ok, err := scan.next()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		var updated Row
		if env != nil {
			env.row, updated = r, r.Clone()
			for _, s := range sets {
				v, err := s.val()
				if err != nil {
					return 0, err
				}
				updated[s.col] = coerce(v, t.Columns[s.col].Type)
			}
			for i, c := range t.Columns {
				if c.NotNull && updated[i].IsNull() {
					return 0, errf(ErrConstraint, "sql: NOT NULL constraint failed: %s.%s", t.Name, c.Name)
				}
			}
		}
		targets = append(targets, dmlTarget{id: scan.rowID(), old: r, row: updated})
	}
	if len(set) > 0 {
		if err := t.checkUnique(targets); err != nil {
			return 0, err
		}
	}
	for _, p := range targets {
		if p.row == nil {
			err = t.deleteRow(p.id, wtx)
		} else {
			err = t.updateRow(p.id, p.row, qc, wtx)
		}
		if err != nil {
			return 0, err
		}
	}
	return len(targets), nil
}

// checkUnique enforces UNIQUE over the state an UPDATE's targets leave,
// before any of them is applied: for each unique index, a key's final
// occupancy is its current rows minus the targets vacating it plus the
// targets moving in. For one target that is insertRow's check (is the new
// key held by another current row?); for many it admits the key shifts and
// rotations only the final state permits (SET id = id + 1, SET id =
// maxid+1-id), which a per-row check during application would reject.
// Application is then unchecked: transient duplicates mid-application are
// fine.
func (t *Table) checkUnique(pend []dmlTarget) error {
	// check fails when v's current rows, moved by delta, would be more than one.
	check := func(idx *Index, v Value, delta int) error {
		held, err := t.liveKeyCount(idx, v)
		if err == nil && held+delta > 1 {
			err = errf(ErrConstraint, "sql: UNIQUE constraint failed: %s.%s = %s",
				t.Name, t.Columns[idx.Column].Name, v)
		}
		return err
	}
	for _, idx := range t.idxs() {
		if idx == nil || !idx.Unique {
			continue
		}
		if len(pend) == 1 { // a one-row statement: no tallies to keep
			old, v := pend[0].old[idx.Column], pend[0].row[idx.Column]
			if !v.IsNull() && !v.Equal(old) {
				if err := check(idx, v, 1); err != nil {
					return err
				}
			}
			continue
		}
		// The keys moved, by Compare class as the index files them, and by
		// class the rows vacating it (moves[2c]) and moving in (moves[2c+1]).
		var keys TupleSet
		var moves []int
		tally := func(v Value, in int) {
			c, fresh := keys.Add([]Value{v})
			if fresh {
				moves = append(moves, 0, 0)
			}
			moves[2*c+in]++
		}
		for _, p := range pend {
			if old, v := p.old[idx.Column], p.row[idx.Column]; !old.Equal(v) {
				if tally(old, 0); !v.IsNull() {
					tally(v, 1)
				}
			}
		}
		for _, p := range pend {
			v := p.row[idx.Column]
			if c, ok := keys.Find([]Value{v}); ok && moves[2*c+1] > 0 {
				if err := check(idx, v, moves[2*c+1]-moves[2*c]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// InsertRows bulk-loads rows (Go values, table column order) into a table
// as one autocommit write, through the path and the checks of INSERT. It is
// the fast path used by the benchmark data generators.
func (db *Database) InsertRows(table string, rows [][]any) (err error) {
	qc := new(queryCtx).init(context.Background(), db)
	defer qc.flush()
	wtx, err := db.beginWrite(qc, nil)
	if err != nil {
		return err
	}
	defer func() { err = db.endWrite(qc, wtx, err) }()
	t, err := db.lookupTable(table)
	if err != nil {
		return err
	}
	return t.insertRows(len(rows), func(i int, r Row) error {
		if len(rows[i]) != len(r) {
			return errf(ErrMisuse, "sql: table %s expects %d values, got %d", t.Name, len(r), len(rows[i]))
		}
		for c, x := range rows[i] {
			r[c] = GoValue(x)
		}
		return nil
	}, qc, wtx)
}
