package sqldb

// ScribbleSealedBlock damages the first sealed block of table, for the
// corruption test that runs over the wire (corrupt_wire_test.go).
func ScribbleSealedBlock(db *Database, table string) { scribble(db, table) }
