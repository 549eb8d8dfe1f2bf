package sqldb

import (
	"fmt"
	"io"
	"strings"
)

// Dump writes the database as a SQL script (CREATE TABLE + INSERT
// statements) that LoadScript can replay — the engine's persistence story.
// Tables are emitted in sorted order; rows in storage order. Indexes
// created by CREATE INDEX are re-emitted after the data so reloads rebuild
// them. Dump iterates under a registered MVCC snapshot: it emits exactly
// the committed state as of the call, and concurrent writers are neither
// blocked nor reflected mid-script.
func (db *Database) Dump(w io.Writer) error {
	snap, release := db.beginRead(db.currentTxn())
	defer release()
	return db.dumpSnapshot(w, snap)
}

// dumpSnapshot renders the state visible to snap as a SQL script. Output is
// deterministic for a given snapshot: tables sorted by name, rows in storage
// order, secondary indexes sorted by name — so two dumps of identical states
// are bit-identical (the crash harness and checkpointing rely on this).
func (db *Database) dumpSnapshot(w io.Writer, snap *snapshot) error {
	tables := db.tableMap()
	if _, err := io.WriteString(w, dumpSchemaSQL(tables)); err != nil {
		return err
	}
	for _, name := range sortedTableNames(tables) {
		t := tables[strings.ToLower(name)]
		arr, n := t.loadSlots()
		for id := 0; id < n; id++ {
			head := arr[id].head.Load()
			if head == nil {
				continue
			}
			row := visibleVersion(head, snap)
			if row == nil {
				continue
			}
			var b strings.Builder
			b.WriteString("INSERT INTO " + quoteIdent(t.Name) + " VALUES (")
			for i, v := range row {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(v.String())
			}
			b.WriteString(");\n")
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
		}
		// Secondary (non-automatic) indexes, sorted by name for
		// deterministic output.
		var stmts []string
		for _, idx := range t.idxs() {
			if strings.HasPrefix(idx.Name, "auto_") {
				continue
			}
			unique := ""
			if idx.Unique {
				unique = "UNIQUE "
			}
			stmts = append(stmts, fmt.Sprintf("CREATE %sINDEX %s ON %s (%s);\n",
				unique, quoteIdent(idx.Name), quoteIdent(t.Name),
				quoteIdent(t.Columns[idx.Column].Name)))
		}
		sortStrings(stmts)
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

// dumpSchemaSQL renders Dump's compact one-line CREATE TABLE form for a
// catalog snapshot.
func dumpSchemaSQL(tables map[string]*Table) string {
	names := sortedTableNames(tables)
	var b strings.Builder
	for _, n := range names {
		t := tables[strings.ToLower(n)]
		b.WriteString("CREATE TABLE " + quoteIdent(t.Name) + " (")
		for i, c := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(quoteIdent(c.Name) + " " + c.DeclType)
			if c.PrimaryKey {
				b.WriteString(" PRIMARY KEY")
			}
			if c.NotNull && !c.PrimaryKey {
				b.WriteString(" NOT NULL")
			}
			if c.Unique && !c.PrimaryKey {
				b.WriteString(" UNIQUE")
			}
		}
		b.WriteString(");\n")
	}
	return b.String()
}

func sortedTableNames(tables map[string]*Table) []string {
	names := make([]string, 0, len(tables))
	for _, t := range tables {
		names = append(names, t.Name)
	}
	sortStrings(names)
	return names
}

// sortStrings is a tiny insertion sort to avoid re-importing sort here.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
