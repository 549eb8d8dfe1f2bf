package sqldb

import (
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one column of a table.
type Column struct {
	Name       string
	Type       Kind // affinity: values are coerced toward this kind on insert
	DeclType   string
	NotNull    bool
	PrimaryKey bool
	Unique     bool
}

// rowVersion is one version of a row. Versions of a slot form a
// newest-first chain: head is the most recent write, next leads to older
// versions. xmin (the creating transaction) is immutable once the version
// is published; xmax (the deleting or superseding transaction) and the
// chain link are atomic so readers walk chains with no lock held while
// writers stamp and vacuum unlinks.
type rowVersion struct {
	xmin uint64
	xmax atomic.Uint64
	next atomic.Pointer[rowVersion]
	row  Row
}

// slotRun holds the chain heads of one morsel's segBlockSlots row ids in
// one allocation. Runs are shared between successive published
// directories, so a reader holding a stale directory still observes head
// replacements and xmax stamps through the same run.
type slotRun [segBlockSlots]atomic.Pointer[rowVersion]

// Table is an in-memory versioned heap of rows plus secondary indexes.
//
// Row ids are slot positions and they are *stable*: DELETE stamps xmax on
// the head version instead of removing the slot, UPDATE prepends a new
// version at the same slot, so no surviving row is ever renumbered by DML
// and scan order without ORDER BY stays observable. Slots whose versions
// are all invisible are skipped by scans; the background vacuum
// (vacuum.go) empties them once no live snapshot can see any version.
//
// Readers never lock the table: the directory of runs, every head, the
// published slot count and every chain link are atomic, and all visibility
// decisions are made against the statement's snapshot (txn.go). Writers
// mutate only under the database's single-writer latch.
type Table struct {
	Name     string
	Columns  []Column
	colIndex map[string]int // lower-cased column name -> ordinal
	cols     []colInfo      // the schema under the table's own name (tableCols)

	slots atomic.Pointer[[]*slotRun] // directory: run by morsel, nil where the block is the only copy; COW
	n     atomic.Int64               // published slot count (ids < n are valid)

	liveRows atomic.Int64 // rows visible to a fresh snapshot

	indexes atomic.Pointer[[]*Index] // by column ordinal, nil where unindexed; COW on CREATE INDEX

	// segs holds the sealed blocks by morsel number, nil where the morsel is
	// in the heap (segment.go): the only copy of their rows, replaced
	// copy-on-write. touched holds the latest xid that wrote each morsel by
	// UPDATE, DELETE or rehydration.
	segs    atomic.Pointer[[]*segBlock]
	touched []uint64 // writeMu
}

// Index is a dual-structure secondary index over one column — a table holds
// at most one a column, in a slice by column ordinal (Table.indexes) —
// maintained as a *superset* of every row version still reachable. It holds
// row ids and no keys: the rows are the only copy of a key.
//
//   - The postings serve equality lookups and join probes. They file row ids
//     by *hash class* — hashKey of the indexKey of the column value (key.go)
//     — in two Go maps: first holds a class's lowest id, rest its others,
//     ascending (on a UNIQUE column nearly no class has any: 19 bytes a key).
//     Keys that differ share a class once in 2^32 pairs, so a class lists
//     every id that may carry the key and now and then one that does not.
//     DML only ever ADDS ids — INSERT adds the new id to its key's class,
//     UPDATE adds the id to the new key's class and leaves it in the old
//     one, DELETE leaves the postings untouched. Only the vacuum and
//     rollback remove ids, and exactly what they unlinked: an id leaves a
//     class when no surviving version of its slot hashes there (unindex).
//   - The ordered view ord (ordidx.go) — one entry per distinct value,
//     sorted by Value.Compare, in a copy-on-write directory of fixed-
//     capacity chunks — serves range scans and index-ordered ORDER BY.
//     It is built from the table's reachable versions on first
//     ordered access and from then on maintained by the calls that maintain
//     the postings, so it is never rebuilt; each change publishes a fresh
//     root, and a reader that loaded the view keeps a consistent one.
//
// There is one way to add an entry (addEntry) and one way to remove one
// (removeEntry); CREATE INDEX is the only bulk builder. Maintenance costs
// what the change costs, never what the table holds.
//
// Because both structures are supersets, every consumer re-checks each
// candidate: it fetches the row version visible to its snapshot and emits
// the id only if that version's indexed value has the probed key (or equals
// the entry's value, for ordered scans). The recheck makes lookups exact per
// snapshot — an id listed under its old and its new key, or beside a key
// that collides with its own, matches exactly one — and lets readers run
// without locks: mu latches only the momentary copy-out of a class and the
// first view build, never a cursor iteration.
type Index struct {
	Name   string
	Column int
	Unique bool

	mu    sync.Mutex              // latches the postings and every ord transition
	first map[uint32]uint32       // hash class -> its lowest row id
	rest  map[uint32][]uint32     // the other ids of a class that has more, ascending
	ord   atomic.Pointer[ordView] // nil until first ordered access, never after
}

func newIndex(name string, col int, unique bool) *Index {
	return &Index{Name: name, Column: col, Unique: unique, first: map[uint32]uint32{}, rest: map[uint32][]uint32{}}
}

// Database is an embedded in-memory SQL database, safe for concurrent
// use. Readers are lock-free (MVCC snapshots, txn.go); writers serialise
// on writeMu.
type Database struct {
	tables atomic.Pointer[map[string]*Table] // COW: replaced wholesale by DDL
	funcs  FuncSet                           // set once, by whoever opens the database (SetFuncs)
	plans  *planCache
	stats  dbStats // observability counters; snapshot via Stats()

	// maxWorkers bounds the per-query worker pool for parallel operators
	// (parallel.go). 1 disables intra-query parallelism entirely.
	maxWorkers int

	tm      *txnManager
	writeMu sync.Mutex // single-writer latch: DML, DDL, transaction write spans, vacuum

	sessionMu sync.Mutex
	session   *Txn // transaction opened by SQL BEGIN; bare statements join it

	garbage   atomic.Int64   // dead versions since the last vacuum
	vacuuming atomic.Bool    // single-flight latch for the background vacuum
	sealDebt  atomic.Int64   // rows inserted since the last sealing pass
	sealing   atomic.Bool    // single-flight latch for the background sealer
	sealH     uint64         // the horizon of the previous background sealing pass (writeMu)
	vacWG     sync.WaitGroup // joins background maintenance: vacuum, seal, checkpoint
	closeMu   sync.Mutex     // orders Close against a maintenance start (spawn)
	closed    bool           // set once, by Close (closeMu)

	// Durability (wal.go / recovery.go). wal is nil for an in-memory
	// database; set once by openWAL before the database is shared.
	wal           *walWriter
	checkpointing atomic.Bool // single-flight latch for background checkpoints
	// Test seams, set by an Option in the package's tests: walFS replaces
	// the OS filesystem under the WAL, ckptBytes the automatic checkpoint
	// threshold (0 = defaultCheckpointBytes, -1 = checkpoint on demand).
	walFS     walFS
	ckptBytes int64
}

// Option configures a Database at construction time.
type Option func(*Database)

// WithMaxWorkers sets the upper bound on worker goroutines a single query
// may use for parallel scans and aggregation. The default is GOMAXPROCS
// capped at 8; 1 forces fully serial execution.
func WithMaxWorkers(n int) Option {
	return func(db *Database) {
		if n < 1 {
			n = 1
		}
		db.maxWorkers = n
	}
}

// NewDatabase returns an empty database.
func NewDatabase(opts ...Option) *Database {
	db := &Database{
		plans:      newPlanCache(),
		maxWorkers: defaultMaxWorkers(),
		tm:         newTxnManager(),
	}
	empty := make(map[string]*Table)
	db.tables.Store(&empty)
	for _, opt := range opts {
		opt(db)
	}
	return db
}

// Close stops new background maintenance (vacuum, seal, checkpoint) from
// starting and waits for the runs in flight to finish. On a durable
// database it then syncs and closes the WAL, returning a typed ErrIO if
// that final sync fails. The database remains readable.
func (db *Database) Close() error {
	db.closeMu.Lock()
	was := db.closed
	db.closed = true
	db.closeMu.Unlock()
	if was {
		return nil
	}
	db.vacWG.Wait()
	if db.wal != nil {
		return db.wal.close()
	}
	return nil
}

// errClosed refuses a write to a closed database.
var errClosed = errf(ErrMisuse, "sql: database is closed")

// isClosed reports whether Close has begun.
func (db *Database) isClosed() bool {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	return db.closed
}

// SetFuncs gives the database the functions its statements may call beyond
// the built-ins (the TAG layer's LM functions) when their context binds
// none. It is for whoever opens the database, before statements run.
func (db *Database) SetFuncs(fs FuncSet) { db.funcs = fs }

// tableMap returns the current published catalog. The map is immutable;
// DDL publishes a replacement.
func (db *Database) tableMap() map[string]*Table { return *db.tables.Load() }

// publishTables applies a catalog mutation copy-on-write (writeMu held).
func (db *Database) publishTables(mutate func(map[string]*Table)) {
	old := db.tableMap()
	next := make(map[string]*Table, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	mutate(next)
	db.tables.Store(&next)
}

// Table returns the named table, or an error if it does not exist.
func (db *Database) Table(name string) (*Table, error) {
	return db.lookupTable(name)
}

func (db *Database) lookupTable(name string) (*Table, error) {
	t, ok := db.tableMap()[strings.ToLower(name)]
	if !ok {
		return nil, errf(ErrNoTable, "sql: no such table: %s", name)
	}
	return t, nil
}

// TableNames returns the names of all tables in sorted order.
func (db *Database) TableNames() []string {
	tabs := db.tableMap()
	names := make([]string, 0, len(tabs))
	for _, t := range tabs {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// SchemaSQL renders the CREATE TABLE statements for every table, in sorted
// order — the BIRD-style schema prompt fed to the LM during query synthesis.
func (db *Database) SchemaSQL() string {
	tabs := db.tableMap()
	var b strings.Builder
	for _, n := range slices.Sorted(maps.Keys(tabs)) {
		t := tabs[n]
		b.WriteString("CREATE TABLE " + quoteIdent(t.Name) + " (\n")
		for i, c := range t.Columns {
			b.WriteString("    " + quoteIdent(c.Name) + " " + c.DeclType)
			if c.PrimaryKey {
				b.WriteString(" PRIMARY KEY")
			}
			if c.NotNull && !c.PrimaryKey {
				b.WriteString(" NOT NULL")
			}
			if i < len(t.Columns)-1 {
				b.WriteString(",")
			}
			b.WriteString("\n")
		}
		b.WriteString(");\n")
	}
	return b.String()
}

// affinityKind maps a declared SQL type name to a storage kind, following
// SQLite's affinity rules loosely.
func affinityKind(decl string) Kind {
	d := strings.ToUpper(decl)
	switch {
	case strings.Contains(d, "INT"):
		return KindInt
	case strings.Contains(d, "BOOL"):
		return KindBool
	case strings.Contains(d, "REAL"), strings.Contains(d, "FLOA"),
		strings.Contains(d, "DOUB"), strings.Contains(d, "NUMERIC"),
		strings.Contains(d, "DECIMAL"):
		return KindFloat
	default:
		return KindText
	}
}

// coerce nudges a value toward the column's affinity, mirroring SQLite:
// numeric affinities parse numeric-looking text; TEXT affinity renders
// numbers to strings only when explicitly requested (we keep them as-is).
func coerce(v Value, k Kind) Value {
	if v.IsNull() {
		return v
	}
	switch k {
	case KindInt:
		if v.Kind() == KindText {
			// Only coerce when the text is actually numeric.
			if isNumericText(strings.TrimSpace(v.AsText())) {
				f := v.AsFloat()
				if f == float64(int64(f)) {
					return Int(int64(f))
				}
				return Float(f)
			}
			return v
		}
		if v.Kind() == KindFloat && v.AsFloat() == float64(int64(v.AsFloat())) {
			return Int(int64(v.AsFloat()))
		}
		return v
	case KindFloat:
		if v.Kind() == KindInt {
			return Float(float64(v.AsInt()))
		}
		if v.Kind() == KindText && isNumericText(strings.TrimSpace(v.AsText())) {
			return Float(v.AsFloat())
		}
		return v
	case KindBool:
		if v.Kind() == KindInt {
			return Bool(v.AsInt() != 0)
		}
		return v
	default:
		return v
	}
}

func isNumericText(s string) bool {
	if s == "" {
		return false
	}
	dot, digits := false, false
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
			digits = true
		case r == '.' && !dot:
			dot = true
		case (r == '-' || r == '+') && i == 0:
		default:
			return false
		}
	}
	return digits
}

// newTable builds a Table from a CREATE TABLE statement.
func newTable(stmt *CreateTableStmt) (*Table, error) {
	t := &Table{
		Name:     stmt.Name,
		colIndex: make(map[string]int, len(stmt.Columns)),
	}
	for i, cd := range stmt.Columns {
		lower := strings.ToLower(cd.Name)
		if _, dup := t.colIndex[lower]; dup {
			return nil, errf(ErrSchema, "sql: duplicate column %q in table %q", cd.Name, stmt.Name)
		}
		t.Columns = append(t.Columns, Column{
			Name:       cd.Name,
			Type:       affinityKind(cd.Type),
			DeclType:   cd.Type,
			NotNull:    cd.NotNull || cd.PrimaryKey,
			PrimaryKey: cd.PrimaryKey,
			Unique:     cd.Unique || cd.PrimaryKey,
		})
		t.colIndex[lower] = i
	}
	t.cols = tableCols(t, t.Name)
	// Primary keys and UNIQUE columns get an index automatically.
	idxs := make([]*Index, len(t.Columns))
	for i, c := range t.Columns {
		if c.PrimaryKey || c.Unique {
			idxs[i] = newIndex("auto_"+t.Name+"_"+c.Name, i, true)
		}
	}
	t.indexes.Store(&idxs)
	return t, nil
}

// idxs returns the published indexes by column ordinal, nil where a column
// has none (immutable; CREATE INDEX publishes a replacement).
func (t *Table) idxs() []*Index { return *t.indexes.Load() }

// setIndex publishes a copy of the indexes with idx on column col (writeMu
// held).
func (t *Table) setIndex(col int, idx *Index) {
	next := slices.Clone(t.idxs())
	next[col] = idx
	t.indexes.Store(&next)
}

// ColumnIndex returns the ordinal of the named column (case-insensitive)
// or -1 if absent.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIndex[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// liveCount is the number of rows a fresh snapshot's scan will emit.
func (t *Table) liveCount() int { return int(t.liveRows.Load()) }

// ---------------------------------------------------------------------------
// Version store

// loadSlots returns the published directory of runs and the valid slot
// count. Both are stable for a scan's lifetime: later appends land past n
// (invisible to the scan's snapshot anyway), and runs are shared across
// directories.
func (t *Table) loadSlots() ([]*slotRun, int) {
	dir := t.dir()
	return dir, min(int(t.n.Load()), len(dir)*segBlockSlots)
}

// dir returns the published directory of runs.
func (t *Table) dir() []*slotRun {
	if p := t.slots.Load(); p != nil {
		return *p
	}
	return nil
}

// run returns the published run of morsel m: nil when it is sealed.
func (t *Table) run(m int) *slotRun { return t.dir()[m] }

// head returns slot id's chain head (writeMu held, id < n, not sealed).
func (t *Table) head(id int) *rowVersion {
	return t.run(id / segBlockSlots)[id%segBlockSlots].Load()
}

// setHead replaces slot id's chain head (writeMu held, not sealed).
func (t *Table) setHead(id int, v *rowVersion) {
	t.run(id / segBlockSlots)[id%segBlockSlots].Store(v)
}

// appendSlot publishes a new slot holding v and returns its row id
// (writeMu held). A new morsel's run is published first and the head is
// stored before the count moves, so a reader that observes the new count
// observes the version too. Appending never writes an element a published
// directory covers.
func (t *Table) appendSlot(v *rowVersion) int {
	n, dir := int(t.n.Load()), t.dir()
	if n == len(dir)*segBlockSlots {
		next := append(dir, new(slotRun)) // only a new run's directory escapes
		t.slots.Store(&next)
		dir = next
	}
	dir[n/segBlockSlots][n%segBlockSlots].Store(v)
	t.n.Add(1)
	return n
}

// visibleRow returns the row of slot id visible to snap, or nil: the heap
// version's own, or the sealed row decoded into a row a gives (s: where a
// reader walking ids upward stands). A nil snapshot means "latest
// committed" — valid only under writeMu or for best-effort display paths
// (plain EXPLAIN).
func (t *Table) visibleRow(id int, snap *snapshot, a *rowArena, s *blockSeek) (Row, error) {
	head, blk := t.resolve(t.run(id/segBlockSlots), id)
	if blk == nil {
		return visible(head, snap), nil
	}
	r := a.alloc(len(t.Columns))
	return r, blk.row(id, r, s)
}

// visibleValue returns column col of the row of slot id visible to snap — a
// sealed row's read off its block alone — and whether there is such a row.
func (t *Table) visibleValue(id int, snap *snapshot, col int, s *blockSeek) (Value, bool, error) {
	head, blk := t.resolve(t.run(id/segBlockSlots), id)
	if blk != nil {
		v, err := blk.value(id, col, s)
		return v, err == nil, err
	}
	if r := visible(head, snap); r != nil {
		return r[col], true, nil
	}
	return Null, false, nil
}

// ---------------------------------------------------------------------------
// DML primitives (all under the database's single-writer latch)

// insertRow appends v, its row aligned to table order, as a new version
// chain stamped with the writing transaction, maintains every index, and
// enforces NOT NULL and UNIQUE constraints, in column order. WAL replay
// installs the logged row as it is: it is what coercion made of it when it
// was written, and the UPDATE/DELETE images logged after it match it bit for
// bit.
func (t *Table) insertRow(v *rowVersion, qc *queryCtx, tx *Txn) error {
	r := v.row
	if len(r) != len(t.Columns) {
		return errf(ErrMisuse, "sql: table %s expects %d values, got %d", t.Name, len(t.Columns), len(r))
	}
	for i, c := range t.Columns {
		if !tx.replay {
			r[i] = coerce(r[i], c.Type)
		}
		if c.NotNull && r[i].IsNull() {
			return errf(ErrConstraint, "sql: NOT NULL constraint failed: %s.%s", t.Name, c.Name)
		}
	}
	if t.n.Load() >= math.MaxUint32 {
		return errf(ErrInternal, "sql: table %s is full: an index holds row ids in 32 bits", t.Name)
	}
	idxs := t.idxs()
	for _, idx := range idxs {
		if idx == nil || !idx.Unique || r[idx.Column].IsNull() {
			continue
		}
		if held, err := t.liveKeyCount(idx, r[idx.Column]); err != nil {
			return err
		} else if held > 0 {
			return errf(ErrConstraint, "sql: UNIQUE constraint failed: %s.%s = %s",
				t.Name, t.Columns[idx.Column].Name, r[idx.Column])
		}
	}
	v.xmin = tx.xid
	id := t.appendSlot(v)
	t.liveRows.Add(1)
	tx.record(undoRec{kind: undoInsert, table: t, id: id})
	for _, idx := range idxs {
		if idx != nil && idx.addEntry(r[idx.Column], id) && qc != nil {
			qc.OrdMaintains++
		}
	}
	tx.logWALOp(walOp{kind: 'I', table: t.Name, row: r})
	tx.db.sealDebt.Add(1)
	return nil
}

// insertRows inserts n rows, each filled in table order by fill from all
// NULL, and returns how many it inserted (writeMu held). The rows are built
// in slabs, one of values and one of versions, cut at the table's block
// boundaries so that sealing a block frees its slabs whole; the log and an
// empty UNIQUE index's postings are sized for the n rows once.
func (t *Table) insertRows(n int, fill func(i int, r Row) error, qc *queryCtx, tx *Txn) (int, error) {
	if w := tx.db.wal; w != nil && w.armed.Load() {
		tx.walOps = slices.Grow(tx.walOps, n)
	}
	for _, idx := range t.idxs() {
		if idx != nil && idx.Unique && n > 1 {
			idx.mu.Lock()
			if len(idx.first) == 0 {
				idx.first = make(map[uint32]uint32, n)
			}
			idx.mu.Unlock()
		}
	}
	w := len(t.Columns)
	var vals []Value
	var vers []rowVersion
	for i := range n {
		if len(vers) == 0 {
			k := min(n-i, segBlockSlots-int(t.n.Load())%segBlockSlots)
			vals, vers = make([]Value, k*w), make([]rowVersion, k)
		}
		v := &vers[0]
		v.row, vals, vers = vals[:w:w], vals[w:], vers[1:]
		if err := fill(i, v.row); err != nil {
			return i, err
		}
		if err := t.insertRow(v, qc, tx); err != nil {
			return i, err
		}
	}
	return n, nil
}

// deleteRow stamps the current head with the deleting transaction. The
// slot, its versions and every index entry stay for older snapshots; the
// vacuum reclaims them once invisible to all. A sealed slot's block is
// rehydrated before the delete can publish.
func (t *Table) deleteRow(id int, tx *Txn) error {
	head, err := t.thaw(id, tx)
	if err != nil {
		return err
	}
	tx.logWALOp(walOp{kind: 'D', table: t.Name, row: head.row})
	head.xmax.Store(tx.xid)
	t.liveRows.Add(-1)
	tx.record(undoRec{kind: undoDelete, table: t, id: id})
	tx.db.garbage.Add(1)
	return nil
}

// updateRow prepends a new version at the same slot (row ids are stable;
// scan order without ORDER BY is preserved) and adds superset index
// entries for every key that changed, rehydrating a sealed slot's block
// first. Constraint checks happen in the caller (mutate, db.go), so this is
// pure mechanism.
func (t *Table) updateRow(id int, updated Row, qc *queryCtx, tx *Txn) error {
	head, err := t.thaw(id, tx)
	if err != nil {
		return err
	}
	old := head.row
	tx.logWALOp(walOp{kind: 'U', table: t.Name, row: old, row2: updated})
	nv := &rowVersion{xmin: tx.xid, row: updated}
	nv.next.Store(head)
	head.xmax.Store(tx.xid)
	t.setHead(id, nv)
	tx.record(undoRec{kind: undoUpdate, table: t, id: id})
	tx.db.garbage.Add(1)
	for _, idx := range t.idxs() {
		if idx == nil || old[idx.Column].Equal(updated[idx.Column]) {
			continue
		}
		if idx.addEntry(updated[idx.Column], id) && qc != nil {
			qc.OrdMaintains++
		}
	}
	return nil
}

// liveKeyCount counts current (latest-committed-or-own) rows whose indexed
// column carries exactly v. Under writeMu every chain head is committed or
// the running writer's, so "latest" is unambiguous.
func (t *Table) liveKeyCount(idx *Index, v Value) (int, error) {
	var ids [8]int // a unique key's class fits; a longer one spills to the heap
	held, err := visibleEqIDs(ids[:0], t, idx, v, nil)
	return len(held), err
}

// ---------------------------------------------------------------------------
// Index maintenance and lookups

// appendIDs appends a private copy of the ids (ascending) of v's hash class
// to dst — the caller's buffer, so a probe loop reuses one. The latch is
// momentary: never held across iteration.
func (idx *Index) appendIDs(dst []int, v Value) []int {
	h := hashKey(indexKey(v))
	idx.mu.Lock()
	if id, ok := idx.first[h]; ok {
		dst = append(dst, int(id))
		for _, id := range idx.rest[h] {
			dst = append(dst, int(id))
		}
	}
	idx.mu.Unlock()
	return dst
}

// addEntry adds id to the class of v's key and, when an ordered view is
// live, to the view. Reports whether ordered maintenance happened (the
// ordMaintains counter).
func (idx *Index) addEntry(v Value, id int) bool {
	key, nid := indexKey(v), uint32(id)
	h := hashKey(key)
	idx.mu.Lock()
	defer idx.mu.Unlock()
	switch low, ok := idx.first[h]; {
	case !ok:
		idx.first[h] = nid
	case nid != low:
		if nid < low {
			idx.first[h], nid = nid, low
		}
		if pos, found := slices.BinarySearch(idx.rest[h], nid); !found {
			idx.rest[h] = slices.Insert(idx.rest[h], pos, nid)
		}
	}
	return idx.ordAdd(key, id)
}

// removeEntry takes id out of v's entry in a live ordered view and — unless
// keepClass: another key a surviving version of the slot carries hashes
// where v's does — out of v's class, in place: readers only ever see copies
// made under the latch. An absent id is a no-op either side.
func (idx *Index) removeEntry(v Value, id int, keepClass bool) {
	key, nid := indexKey(v), uint32(id)
	h := hashKey(key)
	idx.mu.Lock()
	defer idx.mu.Unlock()
	idx.ordRemove(key, id)
	low, ok := idx.first[h]
	if keepClass || !ok {
		return
	}
	others, pos := idx.rest[h], 0
	switch {
	case low != nid:
		if pos, ok = slices.BinarySearch(others, nid); !ok {
			return
		}
	case len(others) == 0: // the class's last id
		delete(idx.first, h)
		return
	default: // the next lowest takes its place
		idx.first[h] = others[0]
	}
	if others = slices.Delete(others, pos, pos+1); len(others) == 0 {
		delete(idx.rest, h)
	} else {
		idx.rest[h] = others
	}
}

// reachable calls fn with the value column col has in every version still
// reachable from a slot's head — a sealed slot's one version read off its
// block — slots ascending: what an index over col lists — the one walk
// under its bulk build, its ordered view and the tests' oracle, safe beside
// the writer.
func (t *Table) reachable(col int, fn func(v Value, id int)) error {
	dir, n := t.loadSlots()
	var seek blockSeek
	for id := 0; id < n; id++ {
		head, blk := t.resolve(dir[id/segBlockSlots], id)
		if blk != nil {
			v, err := blk.value(id, col, &seek)
			if err != nil {
				return err
			}
			fn(v, id)
			continue
		}
		for v := head; v != nil; v = v.next.Load() {
			fn(v.row[col], id)
		}
	}
	return nil
}

// unindex removes from every index what the versions [dead, end) of slot
// id put there and no surviving version of the slot — whatever its head
// still reaches — keeps there: the id leaves a dead version's hash class
// when no survivor hashes to it, and the value's ordered entry when none
// carries the value (an update between two colliding keys leaves the class
// to the new one). Vacuum and rollback call it right after unlinking those
// versions (writeMu held): the indexes stay supersets of the reachable
// versions and nothing more. Neither reaches a sealed morsel — the vacuum
// passes nil runs by, and a rollback's heads were rehydrated by the writer
// it unwinds — so every version here is in the heap.
func (t *Table) unindex(id int, dead, end *rowVersion) {
	live := t.head(id)
	for _, idx := range t.idxs() {
		for w := dead; w != end && idx != nil; w = w.next.Load() {
			key := indexKey(w.row[idx.Column])
			h, carried, hashed := hashKey(key), false, false
			for s := live; s != nil && !carried && debugFault != faultOrdMaintain; s = s.next.Load() {
				sk := indexKey(s.row[idx.Column])
				carried = sk == key
				hashed = hashed || hashKey(sk) == h
			}
			if !carried {
				idx.removeEntry(key, id, hashed)
			}
		}
	}
}

// visibleEqIDs is the one probe and recheck under the equality lookups: it
// returns, ascending and in dst's storage, the row ids whose version visible
// to snap (nil: the latest, under writeMu) carries exactly value v in the
// indexed column. The class is a superset (superseded versions linger until
// vacuum, a colliding key shares it); visibility and the row's own key filter
// it exactly — a sealed row's key read off its block alone. Nil only if dst
// is, or on error: to a scan, no ids means no rows.
func visibleEqIDs(dst []int, t *Table, idx *Index, v Value, snap *snapshot) ([]int, error) {
	key := indexKey(v)
	ids := idx.appendIDs(dst[:0], key)
	out := ids[:0]
	for _, id := range ids {
		kv, ok, err := t.visibleValue(id, snap, idx.Column, nil)
		if err != nil {
			return nil, err
		}
		if ok && indexKey(kv) == key {
			out = append(out, id)
		}
	}
	return out, nil
}
