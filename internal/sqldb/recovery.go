package sqldb

import (
	"bytes"
	"cmp"
	"context"
	"hash/crc32"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// This file implements recovery-on-open: discover the newest complete
// snapshot generation, load it, replay every WAL generation at or above
// it in ascending order (applying only fully-committed units), truncate
// any torn tail off the active log, and arm the writer. The crash-point
// matrix in wal_crash_test.go drives every step of this code through
// every failure point a crashFS can inject.

// openWAL opens the durability layer on a freshly constructed database:
// recovery first (unarmed, so replay is not re-logged), then the writer
// is armed. Called from OpenContext with db.durPath/db.durOpts set.
func (db *Database) openWAL(ctx context.Context) error {
	opts := db.durOpts
	fs := opts.fs
	if fs == nil {
		fs = osFS{}
	}
	dir := db.durPath
	if err := fs.MkdirAll(dir); err != nil {
		return wrapIOErr(err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return wrapIOErr(err)
	}
	var snapGens, walGens []uint64
	for _, name := range names {
		if g, ok := parseGen(name, "snap-", ".sql"); ok {
			snapGens = append(snapGens, g)
		}
		if g, ok := parseGen(name, "wal-", ".log"); ok {
			walGens = append(walGens, g)
		}
		// A .tmp snapshot is an interrupted checkpoint that never reached
		// its commit point (the rename): discard it.
		if filepath.Ext(name) == ".tmp" {
			_ = fs.Remove(filepath.Join(dir, name))
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] < snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })

	// Load the newest snapshot. A snapshot file is complete by
	// construction (it is renamed into place only after an fsync), so a
	// failure to load it is corruption, not a crash artifact.
	var base uint64
	if len(snapGens) > 0 {
		base = snapGens[len(snapGens)-1]
		data, err := fs.ReadFile(walSnapName(dir, base))
		if err != nil {
			return wrapIOErr(err)
		}
		if err := db.LoadScript(string(data)); err != nil {
			return &Error{Code: ErrIO, Msg: "sql: corrupt snapshot generation " + walSnapName(dir, base) + ": " + err.Error(), Cause: err}
		}
	}

	// Replay WAL generations >= base, ascending. Generations below base
	// are superseded leftovers of a checkpoint whose cleanup did not
	// finish; they are already folded into the snapshot.
	activeGen := base
	activeValid := int64(len(walMagic))
	haveActive := false
	for _, g := range walGens {
		if g < base {
			continue
		}
		data, err := fs.ReadFile(walLogName(dir, g))
		if err != nil {
			return wrapIOErr(err)
		}
		validOff, torn, err := db.replayWAL(ctx, data)
		if err != nil {
			return err
		}
		if torn {
			db.stats.tornDropped.Add(1)
		}
		activeGen, activeValid, haveActive = g, validOff, true
	}

	// Open (or create) the active log for appending, dropping any torn
	// tail so the next append lands on a record boundary.
	w := &walWriter{db: db, fs: fs, dir: dir, opts: opts}
	w.syncCond = sync.NewCond(&w.syncMu)
	if haveActive {
		f, size, err := fs.OpenAppend(walLogName(dir, activeGen))
		if err != nil {
			return wrapIOErr(err)
		}
		if size > activeValid {
			if err := f.Truncate(activeValid); err != nil {
				_ = f.Close()
				return wrapIOErr(err)
			}
			size = activeValid
		}
		if size < int64(len(walMagic)) {
			// Created but never (fully) headed — e.g. a crash between
			// Create and the magic write. Start it fresh.
			if err := f.Truncate(0); err != nil {
				_ = f.Close()
				return wrapIOErr(err)
			}
			if _, err := f.Write(walMagic); err != nil {
				_ = f.Close()
				return wrapIOErr(err)
			}
			size = int64(len(walMagic))
		}
		w.f, w.gen, w.off = f, activeGen, size
	} else {
		f, err := fs.Create(walLogName(dir, activeGen))
		if err != nil {
			return wrapIOErr(err)
		}
		if _, err := f.Write(walMagic); err != nil {
			_ = f.Close()
			return wrapIOErr(err)
		}
		w.f, w.gen, w.off = f, activeGen, int64(len(walMagic))
	}
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return wrapIOErr(err)
	}
	w.sGen, w.synced = w.gen, w.off // the open sync made the prefix durable
	if opts.Sync == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	w.armed.Store(true)
	db.wal = w
	return nil
}

// replayWAL applies one WAL file's fully-committed units to the
// database. It returns the byte offset of the last applied unit's end
// (the valid truncation point), whether a torn tail was dropped, and a
// hard error for corruption that cannot be a crash artifact (a record
// whose checksum passes but whose content is malformed, a frame protocol
// violation in the middle of the file) or for context cancellation.
func (db *Database) replayWAL(ctx context.Context, data []byte) (validOff int64, torn bool, err error) {
	// Header.
	if len(data) < len(walMagic) {
		if bytes.HasPrefix(walMagic, data) {
			return 0, len(data) > 0, nil // torn magic write
		}
		return 0, false, errf(ErrIO, "sql: wal header corrupt")
	}
	if !bytes.Equal(data[:len(walMagic)], walMagic) {
		return 0, false, errf(ErrIO, "sql: wal header corrupt")
	}
	off := int64(len(walMagic))
	validOff = off

	var pending []walOp
	inFrame := false
	tornRec := false
	for int(off) < len(data) {
		if err := ctx.Err(); err != nil {
			return validOff, false, &Error{Code: ErrCanceled, Msg: "sql: recovery canceled: " + err.Error(), Cause: err}
		}
		rest := data[off:]
		if len(rest) < 8 {
			tornRec = true // torn header
			break
		}
		plen := int64(uint32(rest[0]) | uint32(rest[1])<<8 | uint32(rest[2])<<16 | uint32(rest[3])<<24)
		crc := uint32(rest[4]) | uint32(rest[5])<<8 | uint32(rest[6])<<16 | uint32(rest[7])<<24
		if plen > walMaxRecord || int64(len(rest)) < 8+plen {
			tornRec = true // torn length or payload
			break
		}
		payload := rest[8 : 8+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			tornRec = true // torn or corrupt record: drop the tail
			break
		}
		recEnd := off + 8 + plen

		d := &walDecoder{b: payload}
		kind := d.byte()
		switch kind {
		case 'S':
			if inFrame {
				return validOff, false, errf(ErrIO, "sql: wal frame protocol violation ('S' inside frame)")
			}
			sql := d.str()
			if d.err != nil {
				return validOff, false, d.err
			}
			if err := db.applyRecoveredUnit(ctx, []walOp{{kind: 'S', sql: sql}}); err != nil {
				return validOff, false, err
			}
			validOff = recEnd
		case 'T':
			if inFrame {
				return validOff, false, errf(ErrIO, "sql: wal frame protocol violation ('T' inside frame)")
			}
			d.u64() // seq
			n := int(d.u32())
			ops := make([]walOp, 0, n)
			for i := 0; i < n; i++ {
				ops = append(ops, d.op())
			}
			if d.err != nil {
				return validOff, false, d.err
			}
			if err := db.applyRecoveredUnit(ctx, ops); err != nil {
				return validOff, false, err
			}
			validOff = recEnd
		case 'B':
			if inFrame {
				return validOff, false, errf(ErrIO, "sql: wal frame protocol violation (nested 'B')")
			}
			d.u64() // seq
			if d.err != nil {
				return validOff, false, d.err
			}
			inFrame = true
			pending = pending[:0]
		case 'O':
			if !inFrame {
				return validOff, false, errf(ErrIO, "sql: wal frame protocol violation ('O' outside frame)")
			}
			op := d.op()
			if d.err != nil {
				return validOff, false, d.err
			}
			pending = append(pending, op)
		case 'C':
			if !inFrame {
				return validOff, false, errf(ErrIO, "sql: wal frame protocol violation ('C' outside frame)")
			}
			d.u64() // seq
			if d.err != nil {
				return validOff, false, d.err
			}
			if err := db.applyRecoveredUnit(ctx, pending); err != nil {
				return validOff, false, err
			}
			inFrame = false
			validOff = recEnd
		default:
			return validOff, false, errf(ErrIO, "sql: wal record kind %q unknown", kind)
		}
		off = recEnd
	}
	if inFrame {
		// The file ends inside a frame — at a clean EOF or at a torn
		// record, either way the transaction never committed. Drop it —
		// unless the test harness deliberately broke us.
		if debugFault == faultWALDanglingFrame {
			if err := db.applyRecoveredUnit(ctx, pending); err != nil {
				return validOff, false, err
			}
			return off, tornRec, nil
		}
		return validOff, true, nil
	}
	return validOff, tornRec, nil
}

// applyRecoveredUnit applies one committed unit (autocommit statement,
// transaction frame, or standalone DDL) under the single-writer latch,
// as an autocommit-style transaction. The writer is not yet armed, so
// nothing here is re-logged.
func (db *Database) applyRecoveredUnit(ctx context.Context, ops []walOp) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	xid := db.tm.begin()
	tx := &Txn{db: db, xid: xid, auto: true, wrote: true, replay: true}
	defer db.tm.finish(xid)
	for _, op := range ops {
		if err := ctx.Err(); err != nil {
			return &Error{Code: ErrCanceled, Msg: "sql: recovery canceled: " + err.Error(), Cause: err}
		}
		if err := db.applyRecoveredOp(op, tx); err != nil {
			return err
		}
	}
	db.stats.recoveredTxns.Add(1)
	return nil
}

// applyRecoveredOp applies one logical op. Row-image ops are content-
// addressed: the image matches the lowest-id current row equal to it,
// which reproduces the original slot assignment (DML visits matching
// rows in ascending id order, and compaction preserves relative live-row
// order — see wal.go).
func (db *Database) applyRecoveredOp(op walOp, tx *Txn) error {
	if op.kind == 'S' {
		return db.applyRecoveredDDL(op.sql, tx)
	}
	t, err := db.lookupTable(op.table)
	if err != nil {
		return recoveryCorrupt(err.Error())
	}
	switch op.kind {
	case 'I':
		if err := t.insertRow(op.row, nil, tx); err != nil {
			return recoveryCorrupt("replayed INSERT rejected: " + err.Error())
		}
		return nil
	case 'D':
		id, ok, err := findRowByImage(t, op.row)
		if err != nil || !ok {
			return cmp.Or(err, recoveryCorrupt("no row matches logged DELETE image in "+op.table))
		}
		return t.deleteRow(id, tx)
	case 'U':
		id, ok, err := findRowByImage(t, op.row)
		if err != nil || !ok {
			return cmp.Or(err, recoveryCorrupt("no row matches logged UPDATE image in "+op.table))
		}
		return t.updateRow(id, op.row2, nil, tx)
	default:
		return recoveryCorrupt("unknown op kind")
	}
}

func recoveryCorrupt(msg string) error {
	return errf(ErrIO, "sql: wal recovery: %s", msg)
}

// applyRecoveredDDL replays one logged DDL statement inside the recovery
// transaction.
func (db *Database) applyRecoveredDDL(sql string, tx *Txn) error {
	stmts, err := ParseAll(sql)
	if err != nil {
		return recoveryCorrupt("logged DDL does not parse: " + err.Error())
	}
	for _, stmt := range stmts {
		switch t := stmt.(type) {
		case *CreateTableStmt:
			err = db.createTable(t, tx)
		case *CreateIndexStmt:
			err = db.createIndex(t, tx)
		case *DropTableStmt:
			err = db.dropTable(t, tx)
		default:
			err = recoveryCorrupt("logged DDL has unexpected statement kind")
		}
		if err != nil {
			return wrapErr(ErrIO, err)
		}
	}
	return nil
}

// findRowByImage returns the lowest row id whose current row is exactly
// (kind- and bit-level) equal to img. Under writeMu, so "current" is
// unambiguous.
func findRowByImage(t *Table, img Row) (int, bool, error) {
	buf, seek := rowArena{reuse: true}, blockSeek{} // a sealed row, read and dropped
	match := func(id int) (bool, error) {
		r, err := t.visibleRow(id, nil, &buf, &seek)
		return r != nil && rowsExactEqual(r, img), err
	}
	// An indexed column can narrow the scan; correctness only needs
	// ascending ids, which both paths provide.
	for _, idx := range t.idxs() {
		if idx.Column >= len(img) {
			continue
		}
		for _, id := range idx.appendIDs(nil, img[idx.Column]) {
			if ok, err := match(id); ok || err != nil {
				return id, ok, err
			}
		}
		return 0, false, nil
	}
	for id, n := 0, int(t.n.Load()); id < n; id++ {
		if ok, err := match(id); ok || err != nil {
			return id, ok, err
		}
	}
	return 0, false, nil
}

// rowsExactEqual compares rows for exact (kind-sensitive, bit-level)
// equality — stricter than Value.Compare, which treats 1 and 1.0 as
// equal. Replay must match the very row the original statement touched.
func rowsExactEqual(a, b Row) bool {
	return slices.Equal(a, b) // struct identity is kind + bits: -0.0 is not 0.0
}
