package sqldb

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"hash/crc32"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// This file implements recovery-on-open: discover the newest complete
// snapshot generation, load it, replay every WAL generation at or above
// it in ascending order (applying every whole record), truncate
// any torn tail off the active log, and arm the writer. The crash-point
// matrix in wal_crash_test.go drives every step of this code through
// every failure point a crashFS can inject.

// openWAL opens the durability layer on a freshly constructed database:
// recovery first (unarmed, so replay is not re-logged), then the writer
// is armed. The WAL lives in the directory dir.
func (db *Database) openWAL(ctx context.Context, dir string) error {
	fs := db.walFS
	if fs == nil {
		fs = osFS{}
	}
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
			db.stats.add(func(s *Stats) { s.TornTailsDropped++ })
		}
		activeGen, activeValid, haveActive = g, validOff, true
	}

	// Open (or create) the active log for appending, dropping any torn
	// tail so the next append lands on a record boundary.
	w := &walWriter{db: db, fs: fs, dir: dir}
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
	w.armed.Store(true)
	db.wal = w
	return nil
}

// replayWAL applies one WAL file's records to the database. It returns the
// byte offset of the last applied record's end (the valid truncation
// point), whether a torn tail was dropped, and a hard error for corruption
// that cannot be a crash artifact (a record whose checksum passes but
// whose content is malformed) or for context cancellation.
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
	validOff = int64(len(walMagic))
	for int(validOff) < len(data) {
		if err := ctx.Err(); err != nil {
			return validOff, false, &Error{Code: ErrCanceled, Msg: "sql: recovery canceled: " + err.Error(), Cause: err}
		}
		rest := data[validOff:]
		if len(rest) < 8 {
			return validOff, true, nil // torn header
		}
		plen := int64(binary.LittleEndian.Uint32(rest))
		crc := binary.LittleEndian.Uint32(rest[4:])
		payload := rest[8:]
		if plen > walMaxRecord || int64(len(payload)) < plen || crc32.ChecksumIEEE(payload[:plen]) != crc {
			// A torn or corrupt record: drop the tail — unless the test
			// harness deliberately broke us.
			if debugFault == faultWALApplyTorn {
				ops, _ := decodeRecord(payload)
				err = db.applyRecoveredUnit(ctx, ops)
			}
			return validOff, true, err
		}
		ops, err := decodeRecord(payload[:plen])
		if err != nil {
			return validOff, false, err
		}
		if err := db.applyRecoveredUnit(ctx, ops); err != nil {
			return validOff, false, err
		}
		validOff += 8 + plen
	}
	return validOff, false, nil
}

// decodeRecord decodes one record's payload: its op count, then the ops.
// The count is bounded by the bytes left (every op takes at least one)
// before anything is allocated for it. On a decode error it returns the
// ops that decoded whole before it.
func decodeRecord(payload []byte) ([]walOp, error) {
	d := &walDecoder{b: payload}
	n := int(d.u32())
	if n > len(payload)-d.off {
		return nil, errf(ErrIO, "sql: wal record of %d bytes claims %d ops", len(payload), n)
	}
	ops := make([]walOp, 0, n)
	for d.err == nil && len(ops) < n {
		if op := d.op(); d.err == nil {
			ops = append(ops, op)
		}
	}
	return ops, d.err
}

// applyRecoveredUnit applies one committed unit (one record) under the
// single-writer latch, as an autocommit-style transaction. The writer is
// not yet armed, so nothing here is re-logged.
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
	db.stats.add(func(s *Stats) { s.RecoveredTxns++ })
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
		if err := t.insertRow(&rowVersion{row: op.row}, nil, tx); err != nil {
			return recoveryCorrupt("replayed INSERT rejected: " + err.Error())
		}
		return nil
	case 'D', 'U':
		id, ok, err := findRowByImage(t, op.row)
		if err != nil || !ok {
			return cmp.Or(err, recoveryCorrupt("no row matches logged "+map[byte]string{'D': "DELETE", 'U': "UPDATE"}[op.kind]+" image in "+op.table))
		}
		if op.kind == 'D' {
			return t.deleteRow(id, tx)
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
		if err := db.ddl(stmt, tx); err != nil {
			return wrapErr(ErrIO, err)
		}
	}
	return nil
}

// findRowByImage returns the lowest row id whose current row is Identical
// to img, value by value — stricter than Compare, which takes 1 for 1.0:
// replay must find the very row the original statement touched. Under
// writeMu, so "current" is unambiguous.
func findRowByImage(t *Table, img Row) (int, bool, error) {
	buf, seek := rowArena{reuse: true}, blockSeek{} // a sealed row, read and dropped
	match := func(id int) (bool, error) {
		r, err := t.visibleRow(id, nil, &buf, &seek)
		return r != nil && slices.EqualFunc(r, img, Value.Identical), err
	}
	// An indexed column can narrow the scan; correctness only needs
	// ascending ids, which both paths provide.
	for _, idx := range t.idxs() {
		if idx == nil || idx.Column >= len(img) {
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
