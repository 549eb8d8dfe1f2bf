package sqldb

import (
	"context"
	"io"
	"sort"
	"strings"
)

// Dump writes the database as a SQL script (CREATE TABLE + INSERT
// statements) that LoadScript can replay: every value is written as an
// expression that parses back to an Identical value. Indexes created by
// CREATE INDEX are re-emitted after the data so reloads rebuild them. The
// statements are walkState's ops, the ones a checkpoint logs: exactly the
// committed state as of the call, under a registered autocommit snapshot,
// so concurrent writers are neither blocked nor reflected mid-script.
// Output is deterministic for a given state — tables sorted by name, rows
// in storage order, secondary indexes sorted by name — so two dumps of
// identical states are bit-identical (the crash harness relies on this).
func (db *Database) Dump(w io.Writer) error {
	var buf []byte // one statement, rendered in place and reused
	table, insert := "", ""
	return db.walkState(func(op walOp) error {
		buf = append(buf[:0], op.sql...)
		if op.kind == 'I' {
			if op.table != table {
				table, insert = op.table, "INSERT INTO "+quoteIdent(op.table)+" VALUES ("
			}
			buf = append(buf, insert...)
			for i, v := range op.row {
				if i > 0 {
					buf = append(buf, ", "...)
				}
				buf = v.appendSQL(buf)
			}
			buf = append(buf, ')')
		}
		_, err := w.Write(append(buf, ";\n"...))
		return err
	})
}

// walkState hands emit the committed state as of one snapshot, as ops:
// each table's CREATE TABLE ('S'), tables sorted by name; then, table by
// table, an 'I' op for each live row in storage order, with its slot id,
// and the table's CREATE INDEX statements ('S') sorted. Dump renders these
// ops as SQL text, without the ids; a checkpoint logs them as its
// generation's first records. A row is valid only during its emit call.
func (db *Database) walkState(emit func(walOp) error) error {
	snap := db.beginRead(nil)
	defer db.tm.release(snap)
	tables := db.tableMap()
	names := make([]string, 0, len(tables))
	for _, t := range tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := tables[strings.ToLower(name)]
		ct := CreateTableStmt{Name: t.Name}
		for _, c := range t.Columns {
			ct.Columns = append(ct.Columns, ColumnDef{Name: c.Name, Type: c.DeclType, PrimaryKey: c.PrimaryKey,
				NotNull: c.NotNull && !c.PrimaryKey, Unique: c.Unique && !c.PrimaryKey})
		}
		if err := emit(walOp{kind: 'S', sql: ct.String()}); err != nil {
			return err
		}
	}
	for _, name := range names {
		t := tables[strings.ToLower(name)]
		sealed, seek := rowArena{reuse: true}, blockSeek{} // a sealed row, emitted and dropped
		for id, n := 0, int(t.n.Load()); id < n; id++ {
			row, err := t.visibleRow(id, snap, &sealed, &seek)
			if err == nil && row != nil {
				err = emit(walOp{kind: 'I', table: t.Name, id: id, row: row})
			}
			if err != nil {
				return err
			}
		}
		// Secondary (non-automatic) indexes, sorted by name for
		// deterministic output.
		var stmts []string
		for _, idx := range t.idxs() {
			if idx == nil || strings.HasPrefix(idx.Name, "auto_") {
				continue
			}
			ci := CreateIndexStmt{Name: idx.Name, Table: t.Name, Column: t.Columns[idx.Column].Name, Unique: idx.Unique}
			stmts = append(stmts, ci.String())
		}
		sort.Strings(stmts)
		for _, stmt := range stmts {
			if err := emit(walOp{kind: 'S', sql: stmt}); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadScript executes a multi-statement SQL script (as produced by Dump)
// atomically: the whole script runs inside one transaction, so a
// mid-script error leaves the database untouched. DDL participates in the
// transaction and is rolled back with everything else, and a BEGIN, COMMIT
// or ROLLBACK in the script is refused (ErrMisuse) like any failing
// statement. Each statement is parsed once the one before it has run,
// under one query context as execAll runs a parsed list, so a script's AST
// is never held whole; an error running a statement is therefore returned
// even when a later statement would not parse.
func (db *Database) LoadScript(src string) error {
	tx := db.Begin()
	qc := new(queryCtx).init(context.Background(), db)
	defer qc.flush()
	for p := newParser(src); ; {
		stmt, err := p.statement()
		if err == nil && stmt == nil {
			return tx.Commit()
		}
		if err == nil {
			err = qc.admit(tx)
		}
		if err == nil {
			_, err = db.execStmt(qc, stmt, nil, tx)
		}
		if err != nil {
			_ = tx.Rollback()
			return err
		}
	}
}
