package sqldb

import (
	"io"
	"sort"
	"strings"
)

// Dump writes the database as a SQL script (CREATE TABLE + INSERT
// statements) that LoadScript can replay — the engine's persistence story,
// and the checkpoint's snapshot file. Indexes created by CREATE INDEX are
// re-emitted after the data so reloads rebuild them. Dump iterates under a
// registered autocommit snapshot: it emits exactly the committed state as
// of the call, and concurrent writers are neither blocked nor reflected
// mid-script. Output is deterministic for a given state — tables sorted by
// name, rows in storage order, secondary indexes sorted by name — so two
// dumps of identical states are bit-identical (the crash harness and
// checkpointing rely on this).
func (db *Database) Dump(w io.Writer) error {
	snap := db.beginRead(nil)
	defer db.tm.release(snap)
	tables := db.tableMap()
	names := make([]string, 0, len(tables))
	for _, t := range tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	var buf []byte // one statement, rendered in place and reused
	for _, name := range names {
		t := tables[strings.ToLower(name)]
		ct := CreateTableStmt{Name: t.Name}
		for _, c := range t.Columns {
			ct.Columns = append(ct.Columns, ColumnDef{Name: c.Name, Type: c.DeclType, PrimaryKey: c.PrimaryKey,
				NotNull: c.NotNull && !c.PrimaryKey, Unique: c.Unique && !c.PrimaryKey})
		}
		buf = append(append(buf, ct.String()...), ";\n"...)
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	for _, name := range names {
		t := tables[strings.ToLower(name)]
		insert := "INSERT INTO " + quoteIdent(t.Name) + " VALUES ("
		sealed, seek := rowArena{reuse: true}, blockSeek{} // a sealed row, written out and dropped
		for id, n := 0, int(t.n.Load()); id < n; id++ {
			row, err := t.visibleRow(id, snap, &sealed, &seek)
			if err != nil {
				return err
			}
			if row == nil {
				continue
			}
			buf = append(buf[:0], insert...)
			for i, v := range row {
				if i > 0 {
					buf = append(buf, ", "...)
				}
				buf = v.appendSQL(buf)
			}
			buf = append(buf, ");\n"...)
			if _, err := w.Write(buf); err != nil {
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
			stmts = append(stmts, ci.String()+";\n")
		}
		sort.Strings(stmts)
		for _, stmt := range stmts {
			if _, err := io.WriteString(w, stmt); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadScript executes a multi-statement SQL script (as produced by Dump)
// atomically: the whole script runs inside one transaction, so a
// mid-script error leaves the database untouched. DDL participates in the
// transaction and is rolled back with everything else.
func (db *Database) LoadScript(src string) error {
	tx := db.Begin()
	if _, err := tx.Exec(src); err != nil {
		_ = tx.Rollback()
		return err
	}
	return tx.Commit()
}
