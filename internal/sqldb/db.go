package sqldb

import (
	"context"
	"fmt"
	"strings"
)

// Result is a fully materialised query result — what Rows.Collect
// returns. Callers that consume rows incrementally (or stop early) should
// prefer Database.QueryRows.
type Result struct {
	Columns []string
	Rows    []Row
}

// ColumnIndex returns the ordinal of the named result column
// (case-insensitive), or -1.
func (r *Result) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
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
// for debugging).
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.AsText()
			if v.IsNull() {
				s = "NULL"
			}
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(pad(c, widths[i]))
	}
	b.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(s, widths[i]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Query executes a SELECT statement, materialising its rows. It is
// Collect over QueryRows: parses are served from the database's LRU plan
// cache, so repeated queries skip the parser; callers executing one
// statement many times can also hold a *Stmt from Prepare, and callers
// that consume rows incrementally should use QueryRows directly.
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

// QueryStmt executes an already parsed SELECT, materialising its rows.
func (db *Database) QueryStmt(sel *SelectStmt, params ...any) (*Result, error) {
	return db.QueryStmtContext(context.Background(), sel, params...)
}

// QueryStmtContext is QueryStmt under a context.
func (db *Database) QueryStmtContext(ctx context.Context, sel *SelectStmt, params ...any) (*Result, error) {
	return db.querySelect(ctx, sel, bindParams(params), nil)
}

// querySelect runs an already parsed SELECT to a materialised Result,
// optionally inside a transaction.
func (db *Database) querySelect(ctx context.Context, sel *SelectStmt, vals []Value, tx *Txn) (*Result, error) {
	rows, err := db.queryRows(ctx, sel, vals, tx)
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
// cancellation mid-flight.
func (db *Database) ExecContext(ctx context.Context, sql string, params ...any) (int, error) {
	stmts, err := ParseAll(sql)
	if err != nil {
		return 0, err
	}
	qc := newQueryCtx(ctx, db)
	defer qc.flush()
	vals := bindParams(params)
	total := 0
	for _, stmt := range stmts {
		if err := qc.cancelled(); err != nil {
			return total, err
		}
		n, err := db.execStmt(qc, stmt, vals, nil)
		// DML applies partially on a mid-loop error or cancellation (the
		// in-place paths keep their documented early-exit invariants), so
		// the affected-row count is accumulated even when err != nil.
		total += n
		if err != nil {
			return total, err
		}
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

// execStmt executes one statement. tx is the explicit transaction handle
// when called through Txn methods, nil for bare Exec calls — which join
// the open session transaction, if any (currentTxn resolves inside the
// per-kind entry points).
func (db *Database) execStmt(qc *queryCtx, stmt Statement, params []Value, tx *Txn) (int, error) {
	switch t := stmt.(type) {
	case *SelectStmt:
		// Stream the plan and count: rows are never materialised, and a
		// LIMIT stops the scan early. Parallel-scan workers (if any) are
		// stopped before the snapshot is released — defers run LIFO.
		qc.queries++
		snap, release := db.beginRead(tx)
		qc.snap = snap
		defer func() {
			qc.snap = nil
			release()
		}()
		defer qc.stopWorkers()
		root, _, err := buildSelectPlan(t, db, params, nil, true, qc)
		if err != nil {
			return 0, err
		}
		n := 0
		for {
			_, ok, err := root.next()
			if err != nil {
				return n, err
			}
			if !ok {
				return n, nil
			}
			n++
			qc.rowsEmitted++
		}
	case *BeginStmt:
		qc.execs++
		if tx != nil {
			return 0, errf(ErrMisuse, "sql: cannot start a transaction within a transaction")
		}
		return 0, db.beginSession()
	case *CommitStmt:
		qc.execs++
		if tx != nil {
			return 0, tx.Commit()
		}
		stx, err := db.takeSession()
		if err != nil {
			return 0, err
		}
		return 0, stx.Commit()
	case *RollbackStmt:
		qc.execs++
		if tx != nil {
			return 0, tx.Rollback()
		}
		stx, err := db.takeSession()
		if err != nil {
			return 0, err
		}
		return 0, stx.Rollback()
	case *CreateTableStmt:
		qc.execs++
		return 0, db.createTable(t, tx)
	case *CreateIndexStmt:
		qc.execs++
		return 0, db.createIndex(t, tx)
	case *DropTableStmt:
		qc.execs++
		return 0, db.dropTable(t, tx)
	case *InsertStmt:
		qc.execs++
		return db.execInsert(t, params, qc, tx)
	case *UpdateStmt:
		qc.execs++
		return db.execUpdate(t, params, qc, tx)
	case *DeleteStmt:
		qc.execs++
		return db.execDelete(t, params, qc, tx)
	default:
		return 0, errf(ErrMisuse, "sql: cannot execute %T", stmt)
	}
}

// DDL takes the single-writer latch for the statement (or rides an open
// transaction's latch span) and publishes the schema change
// copy-on-write, so lock-free readers always observe a complete table
// map. Inside an explicit transaction DDL is transactional: rollback
// unpublishes it, and the WAL records it inside the transaction's frame;
// autocommit DDL is logged as a standalone self-committed record.
func (db *Database) createTable(stmt *CreateTableStmt, tx *Txn) error {
	tx, unlock := db.acquireWrite(tx)
	defer unlock()
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
	if tx != nil {
		tx.recordDDL(undoCreateTable, t, key)
		tx.logWALOp(walOp{kind: 'S', sql: stmt.String()})
		return nil
	}
	return db.logAutocommitDDL(stmt.String())
}

// logAutocommitDDL appends one standalone DDL record to the WAL (no-op
// in memory-only mode or while recovery replays). An ErrIO here follows
// the commit-path contract: the schema change stands in memory, the WAL
// is poisoned.
func (db *Database) logAutocommitDDL(sql string) error {
	if w := db.wal; w != nil && w.armed.Load() {
		return w.appendDDL(sql)
	}
	return nil
}

func (db *Database) createIndex(stmt *CreateIndexStmt, tx *Txn) error {
	tx, unlock := db.acquireWrite(tx)
	defer unlock()
	t, err := db.lookupTable(stmt.Table)
	if err != nil {
		return err
	}
	ci := t.ColumnIndex(stmt.Column)
	if ci < 0 {
		return errf(ErrNoColumn, "sql: no such column %s.%s", stmt.Table, stmt.Column)
	}
	key := strings.ToLower(stmt.Column)
	if _, exists := t.idxs()[key]; exists {
		return nil // idempotent: one index per column is all we support
	}
	idx := &Index{Name: stmt.Name, Column: ci, Unique: stmt.Unique, m: make(map[string]posting)}
	// Index every surviving version of every chain (the superset contract:
	// snapshots older than the statement must find their rows through the
	// new index too). The UNIQUE duplicate check runs on latest rows only.
	arr, n := t.loadSlots()
	var seen map[string]bool
	if stmt.Unique {
		seen = make(map[string]bool, n)
	}
	for id := 0; id < n; id++ {
		head := arr[id].head.Load()
		if head == nil {
			continue
		}
		if stmt.Unique {
			if r := latestRow(head); r != nil && !r[ci].IsNull() {
				k := r[ci].Key()
				if seen[k] {
					return errf(ErrConstraint, "sql: cannot create UNIQUE index %s: duplicate value %s", stmt.Name, r[ci])
				}
				seen[k] = true
			}
		}
		for v := head; v != nil; v = v.next.Load() {
			if v.xmin == invalidXID || v.row == nil {
				continue
			}
			val := v.row[ci]
			k := val.Key()
			p := idx.m[k]
			if p.ids == nil {
				p.val = val
			}
			p.ids = spliceID(p.ids, id)
			idx.m[k] = p
		}
	}
	t.publishIndexes(func(m map[string]*Index) { m[key] = idx })
	if tx != nil {
		tx.recordDDL(undoCreateIndex, t, key)
		tx.logWALOp(walOp{kind: 'S', sql: stmt.String()})
		return nil
	}
	return db.logAutocommitDDL(stmt.String())
}

func (db *Database) dropTable(stmt *DropTableStmt, tx *Txn) error {
	tx, unlock := db.acquireWrite(tx)
	defer unlock()
	key := strings.ToLower(stmt.Name)
	t, exists := db.tableMap()[key]
	if !exists {
		if stmt.IfExists {
			return nil
		}
		return errf(ErrNoTable, "sql: no such table: %s", stmt.Name)
	}
	db.publishTables(func(m map[string]*Table) { delete(m, key) })
	if tx != nil {
		tx.recordDDL(undoDropTable, t, key)
		tx.logWALOp(walOp{kind: 'S', sql: stmt.String()})
		return nil
	}
	return db.logAutocommitDDL(stmt.String())
}

func (db *Database) execInsert(stmt *InsertStmt, params []Value, qc *queryCtx, tx *Txn) (n int, err error) {
	wtx, end, err := db.beginWrite(qc, tx)
	if err != nil {
		return 0, err
	}
	// end() publishes the autocommit statement; on a durable database it
	// also appends the WAL record, whose failure must surface as the
	// statement's error even over an engine error — an I/O failure poisons
	// the log, and a statement whose partial work was applied but not made
	// durable must report that.
	defer func() {
		if e := end(); e != nil {
			err = e
		}
	}()
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

	var sourceRows []Row
	if stmt.Select != nil {
		rows, _, err := execSelect(stmt.Select, db, params, nil, qc)
		if err != nil {
			return 0, err
		}
		sourceRows = rows
	} else {
		env := newEvalEnv(nil, db, params, nil, qc)
		for _, exprs := range stmt.Rows {
			row := make(Row, len(exprs))
			for i, e := range exprs {
				v, err := evalExpr(e, env)
				if err != nil {
					return 0, err
				}
				row[i] = v
			}
			sourceRows = append(sourceRows, row)
		}
	}

	for _, src := range sourceRows {
		if len(src) != len(colOrder) {
			return n, errf(ErrMisuse, "sql: table %s expects %d values, got %d", t.Name, len(colOrder), len(src))
		}
		full := make(Row, len(t.Columns))
		for i := range full {
			full[i] = Null
		}
		for i, ci := range colOrder {
			full[ci] = src[i]
		}
		if err := t.insertRow(full, qc, wtx); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// hasSubquery reports whether any of the expressions contains a subquery
// (scalar, EXISTS, or IN (SELECT ...)) at any depth. DML uses it to pick
// snapshot evaluation: a subquery may read the very table being mutated.
func hasSubquery(exprs ...Expr) bool {
	found := false
	for _, e := range exprs {
		if e == nil {
			continue
		}
		walkExpr(e, func(x Expr) bool {
			if isSubqueryNode(x) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func (db *Database) execUpdate(stmt *UpdateStmt, params []Value, qc *queryCtx, tx *Txn) (n int, err error) {
	wtx, end, err := db.beginWrite(qc, tx)
	if err != nil {
		return 0, err
	}
	defer func() {
		if e := end(); e != nil {
			err = e
		}
	}()
	t, err := db.lookupTable(stmt.Table)
	if err != nil {
		return 0, err
	}
	setCols := make([]int, len(stmt.Set))
	for i, sc := range stmt.Set {
		ci := t.ColumnIndex(sc.Column)
		if ci < 0 {
			return 0, errf(ErrNoColumn, "sql: table %s has no column named %s", t.Name, sc.Column)
		}
		setCols[i] = ci
	}
	cols := make([]colInfo, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = colInfo{qual: t.Name, name: c.Name}
	}
	env := newEvalEnv(cols, db, params, nil, qc)
	// A WHERE or SET expression containing a subquery may read the table
	// being updated. The one-pass loop below mutates rows in place and
	// defers the index rebuild to the end, so such a subquery would probe
	// stale index keys over already-updated rows — or lazily build an
	// ordered view over a half-mutated heap (the Halloween problem).
	// Those statements take the snapshot path: every evaluation sees the
	// pre-statement state, and mutation happens only after the last one.
	setExprs := make([]Expr, 0, len(stmt.Set)+1)
	setExprs = append(setExprs, stmt.Where)
	for _, sc := range stmt.Set {
		setExprs = append(setExprs, sc.Expr)
	}
	if hasSubquery(setExprs...) {
		return execUpdateSnapshot(t, stmt, setCols, env, qc, wtx)
	}
	// Each qualifying row is updated through updateRow, which keeps the
	// hash maps and any live ordered view exactly current — so any exit
	// (success, an evaluation error, cancellation) leaves the indexes
	// consistent with the rows updated so far, with no rebuild.
	update := func(id int, r Row) error {
		env.row = r
		updated := r.Clone()
		for i, sc := range stmt.Set {
			v, err := evalExpr(sc.Expr, env)
			if err != nil {
				return err
			}
			updated[setCols[i]] = coerce(v, t.Columns[setCols[i]].Type)
		}
		for i, c := range t.Columns {
			if c.NotNull && updated[i].IsNull() {
				return errf(ErrConstraint, "sql: NOT NULL constraint failed: %s.%s", t.Name, c.Name)
			}
		}
		if err := t.checkUpdateUnique(id, updated); err != nil {
			return err
		}
		t.updateRow(id, updated, qc, wtx)
		return nil
	}
	// Fast path: an `UPDATE ... WHERE col = <literal/param>` over an
	// indexed column touches exactly the index bucket, and a range-shaped
	// WHERE (col > x, BETWEEN) over one is served from the index's ordered
	// view — no heap walk and no per-row WHERE evaluation either way.
	if ids, ok := dmlWhereIDs(t, stmt.Where, params, qc); ok {
		for _, id := range ids {
			if err := qc.tickCancelled(); err != nil {
				return n, err
			}
			if err := update(id, latestRow(t.head(id))); err != nil {
				return n, err
			}
			n++
		}
		return n, nil
	}
	arr, nSlots := t.loadSlots()
	for id := 0; id < nSlots; id++ {
		r := latestRow(arr[id].head.Load())
		if r == nil {
			continue
		}
		if err := qc.tickCancelled(); err != nil {
			return n, err
		}
		if stmt.Where != nil {
			env.row = r
			v, err := evalExpr(stmt.Where, env)
			if err != nil {
				return n, err
			}
			if v.IsNull() || !v.AsBool() {
				continue
			}
		}
		if err := update(id, r); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// dmlEqualityIDs serves a DML statement's WHERE clause from an equality
// index when it has exactly the shape `col = <literal or ? parameter>`
// over an indexed column of the mutated table. The returned ids are
// precisely the rows the statement snapshot sees the predicate holding
// for, ascending — the order the heap walk would visit them — and are
// private to the caller (the posting list is copied and filtered). A NULL
// comparand matches nothing (`col = NULL` is never true of any row). Any
// other WHERE shape reports ok=false and the caller walks the heap.
func dmlEqualityIDs(t *Table, where Expr, params []Value, qc *queryCtx) ([]int, bool) {
	b, ok := where.(*BinaryOp)
	if !ok || b.Op != "=" {
		return nil, false
	}
	cr, v, _ := asColValue(b, params)
	if cr == nil {
		return nil, false
	}
	if cr.Table != "" && !strings.EqualFold(cr.Table, t.Name) {
		return nil, false
	}
	idx, ok := t.idxs()[strings.ToLower(cr.Column)]
	if !ok {
		return nil, false
	}
	v = coerce(v, t.Columns[idx.Column].Type)
	if v.IsNull() {
		return []int{}, true
	}
	return visibleEqIDs(t, idx, v, qc.snap), true
}

// dmlWhereIDs resolves a DML WHERE to the exact live row ids it holds
// for, when an index can serve it without a heap walk: equality first,
// then range shapes over one indexed column.
func dmlWhereIDs(t *Table, where Expr, params []Value, qc *queryCtx) ([]int, bool) {
	if ids, ok := dmlEqualityIDs(t, where, params, qc); ok {
		return ids, true
	}
	return dmlRangeIDs(t, where, params, qc)
}

// dmlRangeIDs serves a DML WHERE whose conjuncts are all range-shaped
// over the same indexed column (`col > x`, `x <= col`, `col BETWEEN lo
// AND hi`, with literal or parameter bounds) from the index's ordered
// view: the conjuncts tighten into one key range and collectRangeIDs
// yields exactly the live ids the heap walk would match, ascending — the
// order the walk would visit them. Bounds stay uncoerced on purpose: the
// heap walk compares raw values via Value.Compare and the ordered view
// sorts by the same Compare, so raw bounds reproduce its semantics
// exactly. A NULL bound makes the WHERE NULL for every row, so it
// matches nothing.
func dmlRangeIDs(t *Table, where Expr, params []Value, qc *queryCtx) ([]int, bool) {
	if where == nil {
		return nil, false
	}
	var col *ColumnRef
	var spec rangeSpec
	nullBound := false
	for _, c := range splitConjuncts(where) {
		cr, cs, nullB, ok := rangeConjunct(c, params)
		if !ok {
			return nil, false
		}
		if cr.Table != "" && !strings.EqualFold(cr.Table, t.Name) {
			return nil, false
		}
		if col == nil {
			col = cr
		} else if !strings.EqualFold(col.Column, cr.Column) {
			return nil, false
		}
		if nullB {
			nullBound = true
			continue
		}
		spec.lo = tightenLo(spec.lo, cs.lo)
		spec.hi = tightenHi(spec.hi, cs.hi)
	}
	idx, ok := t.idxs()[strings.ToLower(col.Column)]
	if !ok {
		return nil, false
	}
	if nullBound {
		return []int{}, true
	}
	ids, skipped := collectRangeIDs(t, idx, spec, qc.snap)
	if qc != nil {
		qc.indexRangeScans++
		qc.tombstonesSkipped += skipped
	}
	return ids, true
}

// execUpdateSnapshot is the two-phase UPDATE path for statements whose
// WHERE or SET contains a subquery: phase one evaluates every row against
// the untouched table (so self-referential subqueries — equality-index
// probes, correlated probes, ordered scans — see a consistent
// pre-statement snapshot), phase two applies the collected updates
// through the incremental index maintenance. Any error or cancellation
// during phase one aborts with the table untouched, making these
// statements atomic.
func execUpdateSnapshot(t *Table, stmt *UpdateStmt, setCols []int, env *evalEnv, qc *queryCtx, wtx *Txn) (int, error) {
	type pendingUpdate struct {
		id  int
		old Row
		row Row
	}
	var pend []pendingUpdate
	arr, nSlots := t.loadSlots()
	for id := 0; id < nSlots; id++ {
		r := latestRow(arr[id].head.Load())
		if r == nil {
			continue
		}
		if err := qc.tickCancelled(); err != nil {
			return 0, err // phase one: nothing applied yet
		}
		env.row = r
		if stmt.Where != nil {
			v, err := evalExpr(stmt.Where, env)
			if err != nil {
				return 0, err
			}
			if v.IsNull() || !v.AsBool() {
				continue
			}
		}
		updated := r.Clone()
		for i, sc := range stmt.Set {
			v, err := evalExpr(sc.Expr, env)
			if err != nil {
				return 0, err
			}
			updated[setCols[i]] = coerce(v, t.Columns[setCols[i]].Type)
		}
		for i, c := range t.Columns {
			if c.NotNull && updated[i].IsNull() {
				return 0, errf(ErrConstraint, "sql: NOT NULL constraint failed: %s.%s", t.Name, c.Name)
			}
		}
		pend = append(pend, pendingUpdate{id: id, old: r, row: updated})
	}
	// UNIQUE pre-check over the statement's final state, so a violation
	// aborts with the table untouched (this path's atomicity guarantee):
	// for each unique index, a key's final occupancy is its current
	// posting list minus the pending rows vacating it plus the pending
	// rows moving in. Checking per-row during application instead would
	// both break atomicity and spuriously reject key rotations the final
	// state permits (e.g. SET id = maxid+1-id). Application below is then
	// unchecked: transient duplicates mid-application are fine.
	for _, idx := range t.idxs() {
		if !idx.Unique {
			continue
		}
		var removed, added map[string]int
		for _, p := range pend {
			oldKey := p.old[idx.Column].Key()
			newKey := p.row[idx.Column].Key()
			if oldKey == newKey {
				continue
			}
			if removed == nil {
				removed, added = make(map[string]int), make(map[string]int)
			}
			removed[oldKey]++
			if !p.row[idx.Column].IsNull() {
				added[newKey]++
			}
		}
		if added == nil {
			continue // no row changes this index's key
		}
		for _, p := range pend {
			v := p.row[idx.Column]
			key := v.Key()
			if add := added[key]; add > 0 && t.liveKeyCountExcept(idx, v, -1)-removed[key]+add > 1 {
				return 0, errf(ErrConstraint, "sql: UNIQUE constraint failed: %s.%s",
					t.Name, t.Columns[idx.Column].Name)
			}
		}
	}
	for _, p := range pend {
		t.updateRow(p.id, p.row, qc, wtx)
	}
	return len(pend), nil
}

func (db *Database) execDelete(stmt *DeleteStmt, params []Value, qc *queryCtx, tx *Txn) (n int, err error) {
	wtx, end, err := db.beginWrite(qc, tx)
	if err != nil {
		return 0, err
	}
	defer func() {
		if e := end(); e != nil {
			err = e
		}
	}()
	t, err := db.lookupTable(stmt.Table)
	if err != nil {
		return 0, err
	}
	cols := make([]colInfo, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = colInfo{qual: t.Name, name: c.Name}
	}
	env := newEvalEnv(cols, db, params, nil, qc)
	// Same Halloween hazard as execUpdate: a WHERE subquery over this
	// table would observe the rows already deleted by this very loop.
	// Subquery-bearing DELETEs evaluate against the untouched table
	// first, then apply.
	if hasSubquery(stmt.Where) {
		return execDeleteSnapshot(t, stmt, env, qc, wtx)
	}
	// Qualifying rows are xmax-stamped as the loop runs (ids stay stable),
	// so an early exit — cancellation or a WHERE evaluation error — leaves
	// exactly the examined-and-deleted rows gone and everything else
	// untouched. Reclamation is the background vacuum's job.
	// Fast path: `DELETE FROM t WHERE col = <literal/param>` over an
	// indexed column deletes exactly the index bucket; a range-shaped
	// WHERE over one deletes exactly the ordered view's window.
	if stmt.Where != nil {
		if ids, ok := dmlWhereIDs(t, stmt.Where, params, qc); ok {
			for _, id := range ids {
				if err := qc.tickCancelled(); err != nil {
					return n, err
				}
				t.deleteRow(id, wtx)
				n++
			}
			return n, nil
		}
	}
	arr, nSlots := t.loadSlots()
	for id := 0; id < nSlots; id++ {
		r := latestRow(arr[id].head.Load())
		if r == nil {
			continue
		}
		if err := qc.tickCancelled(); err != nil {
			return n, err
		}
		del := true
		if stmt.Where != nil {
			env.row = r
			v, err := evalExpr(stmt.Where, env)
			if err != nil {
				return n, err
			}
			del = !v.IsNull() && v.AsBool()
		}
		if del {
			t.deleteRow(id, wtx)
			n++
		}
	}
	return n, nil
}

// execDeleteSnapshot is the two-phase DELETE path for subquery-bearing
// statements: phase one evaluates WHERE for every row against the
// untouched table, phase two stamps the qualifying rows deleted. An error
// or cancellation during phase one leaves the table untouched.
func execDeleteSnapshot(t *Table, stmt *DeleteStmt, env *evalEnv, qc *queryCtx, wtx *Txn) (int, error) {
	var del []int
	arr, nSlots := t.loadSlots()
	for id := 0; id < nSlots; id++ {
		r := latestRow(arr[id].head.Load())
		if r == nil {
			continue
		}
		if err := qc.tickCancelled(); err != nil {
			return 0, err // phase one: nothing applied yet
		}
		env.row = r
		v, err := evalExpr(stmt.Where, env)
		if err != nil {
			return 0, err
		}
		if !v.IsNull() && v.AsBool() {
			del = append(del, id)
		}
	}
	for _, id := range del {
		t.deleteRow(id, wtx)
	}
	return len(del), nil
}

// InsertRows bulk-loads rows (Go values, table column order) into a table
// as one autocommit write. It is the fast path used by the benchmark data
// generators.
func (db *Database) InsertRows(table string, rows [][]any) (err error) {
	qc := newQueryCtx(context.Background(), db)
	defer qc.flush()
	wtx, end, err := db.beginWrite(qc, nil)
	if err != nil {
		return err
	}
	defer func() {
		if e := end(); e != nil {
			err = e
		}
	}()
	t, err := db.lookupTable(table)
	if err != nil {
		return err
	}
	for _, raw := range rows {
		row := make(Row, len(raw))
		for i, x := range raw {
			row[i] = GoValue(x)
		}
		if err := t.insertRow(row, qc, wtx); err != nil {
			return err
		}
	}
	return nil
}
