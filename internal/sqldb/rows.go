package sqldb

import "context"

// Rows is a streaming cursor over a SELECT's result: the database/sql-style
// pull API of this engine. Rows flow one at a time from the underlying
// operator tree, so a caller that stops early (LIMIT-like consumption,
// first-match probes) never pays for rows it does not read, and context
// cancellation stops an in-flight scan.
//
//	rows, err := db.QueryRows(ctx, "SELECT name, score FROM players WHERE score > ?", 10)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var name string
//		var score float64
//		if err := rows.Scan(&name, &score); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// The cursor holds an MVCC snapshot, not a lock: writers never wait for
// an open cursor, and commits that land mid-iteration are invisible to
// it — the cursor returns exactly the rows its snapshot saw. Still always
// Close (Next returning false closes automatically, and Close is
// idempotent): the snapshot reference pins the vacuum horizon until it is
// released. A Rows is not safe for concurrent use by multiple goroutines.
type Rows struct {
	db     *Database
	qc     queryCtx // the cursor's own: one allocation holds both
	root   operator
	cols   []string
	cur    Row
	err    error
	closed bool
	lent   bool // rows are built in reused buffers: Collect copies them
}

// QueryRows executes a SELECT and returns a streaming cursor positioned
// before the first row. Parses are served from the LRU plan cache.
func (db *Database) QueryRows(ctx context.Context, sql string, params ...any) (*Rows, error) {
	sel, err := db.plans.selectStmt(sql, "QueryRows")
	if err != nil {
		return nil, err
	}
	return db.queryRows(ctx, sel, bindParams(params), nil, nil, false)
}

// queryRows is the one place a SELECT is opened — every Query and
// QueryRows form, a SELECT handed to Exec (which counts its rows), EXPLAIN
// (which closes it unpulled) and EXPLAIN ANALYZE (which passes the rec its
// operators report to): the statement is admitted, reads the snapshot of
// the transaction it was called in (nil = a fresh one of its own),
// is planned, and owns its snapshot reference until Close bills it. On
// error everything is released here. lend says the entry point reads each
// row and drops it before the next Next, so the plan's head builds every
// row in one reused buffer (lendRows).
func (db *Database) queryRows(ctx context.Context, sel *SelectStmt, vals []Value, tx *Txn, rec *execRecorder, lend bool) (*Rows, error) {
	r := &Rows{db: db, lent: lend}
	qc := r.qc.init(ctx, db)
	qc.queries = 1 // counted into Database.Stats when the recorder flushes
	qc.rec = rec
	if err := qc.admit(tx); err != nil {
		qc.flush()
		return nil, err
	}
	qc.snap, qc.ownsSnap = db.beginRead(tx), true
	root, cols, err := buildSelectPlan(sel, db, vals, nil, true, qc)
	if err != nil {
		qc.flush() // flush releases the snapshot reference
		return nil, err
	}
	if lend {
		lendRows(root)
	}
	if rec != nil {
		root = instrument(root, rec)
	}
	r.root, r.cols = root, make([]string, len(cols))
	for i, c := range cols {
		r.cols[i] = c.name
	}
	db.stats.add(func(s *Stats) { s.OpenCursors++ })
	return r, nil
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row, reporting false at the end of the result
// or on error (check Err afterwards). Exhaustion, an execution error, and
// context cancellation all close the cursor.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	var row Row
	ok, err := false, r.qc.cancelled()
	if err == nil {
		row, ok, err = r.root.next()
	}
	if !ok {
		r.err, r.cur = err, nil
		r.Close()
		return false
	}
	r.cur = row
	r.qc.RowsEmitted++
	return true
}

// Row returns the current row (valid after a true Next). It is read-only:
// it may be the table's own storage, which SELECT * hands up unbuilt. A lent
// cursor's row (Session.Query) is valid until the next Next; copy what you
// keep.
func (r *Rows) Row() Row { return r.cur }

// Scan copies the current row into the destinations: one per column, each
// a *string, *int, *int64, *float64, *bool, *Value or *any (nil discards
// the column). Conversions follow the Value accessors (AsText, AsInt, …).
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return errf(ErrCursor, "sql: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return errf(ErrCursor, "sql: Scan expects %d destinations, got %d", len(r.cur), len(dest))
	}
	for i, d := range dest {
		v := r.cur[i]
		switch p := d.(type) {
		case nil:
			// discard
		case *Value:
			*p = v
		case *string:
			*p = v.AsText()
		case *int:
			*p = int(v.AsInt())
		case *int64:
			*p = v.AsInt()
		case *float64:
			*p = v.AsFloat()
		case *bool:
			*p = v.AsBool()
		case *any:
			switch v.Kind() {
			case KindNull:
				*p = nil
			case KindInt:
				*p = v.AsInt()
			case KindFloat:
				*p = v.AsFloat()
			case KindBool:
				*p = v.AsBool()
			default:
				*p = v.AsText()
			}
		default:
			return errf(ErrCursor, "sql: Scan destination %d has unsupported type %T", i, d)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any. It is nil
// after a result was exhausted normally.
func (r *Rows) Err() error { return r.err }

// Stats reports this query's own execution counters: rows scanned and
// emitted so far, access paths taken, subplan-cache behaviour, and
// elapsed wall time. Unlike Database.Stats it covers exactly this
// statement — mid-iteration it shows work done so far; after Close (or
// an exhausting Next loop) it is the query's final total, the precise
// amount this execution contributed to the engine-wide aggregate. Like
// the cursor itself, it is not safe for concurrent use with Next.
func (r *Rows) Stats() QueryStats { return r.qc.snapshot() }

// Close releases the cursor: the scan a LIMIT stopped pulling hands its
// batch back, then the snapshot reference is released — letting the vacuum
// horizon advance past it — and the execution's counters are folded into
// Database.Stats. No worker is left to stop: a pooled scan joins its
// workers inside the pull that spawned them (runFold). Idempotent; safe to
// defer alongside an exhaustive Next loop.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cur = nil
	for c := &r.root; c != nil; c = liveChild(*c) {
		if s, ok := (*c).(*scanOp); ok {
			s.release()
		}
	}
	r.db.stats.add(func(s *Stats) { s.OpenCursors-- })
	r.qc.flush() // releases the cursor's snapshot reference
	return nil
}

// collect is Collect over the cursor an entry point just opened: the
// materialising form of every Query.
func collect(rows *Rows, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Collect drains the cursor into a materialised Result and closes it —
// the bridge from the streaming API to the old eager one (Database.Query
// is QueryRows + Collect) — with the rows Next has not yet returned. They
// come from drain: a full sort's slice is adopted, a GROUP BY's rows are
// one slice of their final size, and so are the pooled scan's headers, cut
// from its morsels' runs of values; a lent cursor's rows are copied one at
// a time. The rows are read-only, as Row's are.
func (r *Rows) Collect() (*Result, error) {
	defer r.Close()
	var rows []Row
	if r.lent {
		for r.Next() {
			rows = appendDoubling(rows, r.cur.Clone())
		}
	} else if !r.closed && r.err == nil {
		if r.err = r.qc.cancelled(); r.err == nil {
			rows, r.err = drain(r.root)
			r.qc.RowsEmitted += uint64(len(rows))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	return &Result{Columns: r.cols, Rows: rows}, nil
}
