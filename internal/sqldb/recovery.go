package sqldb

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"sync"
)

// This file implements recovery-on-open: find the newest log generation,
// replay it (applying every whole record, the generation's state records
// first, each row op at the slot id it names), start the next generation
// from the recovered state, and arm the writer. Older generations and .tmp
// files are leftovers of a checkpoint that did not finish; they are removed
// unread. The crash-point matrix in wal_crash_test.go drives every step of
// this code through every failure point a crashFS can inject.

// openWAL opens the durability layer on a freshly constructed database:
// recovery first (unarmed, so replay is not re-logged), then the writer
// starts a fresh generation and is armed. The WAL lives in the directory
// dir.
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
	var next uint64 // the generation to start: 0 in an empty directory
	for _, name := range names {
		if g, ok := parseGen(name); ok && g >= next {
			next = g + 1
		}
	}
	if next > 0 {
		// A generation is renamed into place only after an fsync, so it is
		// whole but for a torn tail of commit records.
		data, err := fs.ReadFile(walLogName(dir, next-1))
		if err != nil {
			return wrapIOErr(err)
		}
		torn, err := db.replayWAL(ctx, data)
		if err != nil {
			return err
		}
		if torn {
			db.stats.add(func(s *Stats) { s.TornTailsDropped++ })
		}
	}
	w := &walWriter{db: db, fs: fs, dir: dir}
	w.syncCond = sync.NewCond(&w.syncMu)
	db.writeMu.Lock()
	err = w.startGen(next)
	db.writeMu.Unlock()
	if err != nil {
		return err
	}
	w.armed.Store(true)
	db.wal = w
	return nil
}

// replayWAL applies one log's records to the database. It reports whether
// a torn tail was dropped, and returns a hard error for a header that is
// not this format's, for corruption that cannot be a crash artifact (a
// record whose checksum passes but whose content is malformed), and for
// context cancellation.
func (db *Database) replayWAL(ctx context.Context, data []byte) (torn bool, err error) {
	if !bytes.HasPrefix(data, walMagic) {
		return false, errf(ErrIO, "sql: wal header corrupt")
	}
	for rest := data[len(walMagic):]; len(rest) > 0; {
		if err := ctx.Err(); err != nil {
			return false, &Error{Code: ErrCanceled, Msg: "sql: recovery canceled: " + err.Error(), Cause: err}
		}
		if len(rest) < 8 {
			return true, nil // torn header
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
			return true, err
		}
		ops, err := decodeRecord(payload[:plen])
		if err != nil {
			return false, err
		}
		if err := db.applyRecoveredUnit(ctx, ops); err != nil {
			return false, err
		}
		rest = payload[plen:]
	}
	return false, nil
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

// applyRecoveredOp applies one logical op. A row op goes to the slot it
// names, which is checked first, since the log comes from outside the
// program: an INSERT's id is at or past the table's slot count, which is
// padded up to it with empty slots, and below the 32-bit row-id limit
// insertRow enforces; a DELETE's or UPDATE's names a live row.
func (db *Database) applyRecoveredOp(op walOp, tx *Txn) error {
	if op.kind == 'S' {
		return db.applyRecoveredDDL(op.sql, tx)
	}
	t, err := db.lookupTable(op.table)
	if err != nil {
		return recoveryCorrupt(err.Error())
	}
	n := int(t.n.Load())
	if op.kind == 'I' && op.id >= n && op.id < math.MaxUint32 {
		for ; n < op.id; n++ {
			t.appendSlot(nil)
		}
		if err := t.insertRow(&rowVersion{row: op.row}, nil, tx); err != nil {
			return recoveryCorrupt("replayed INSERT rejected: " + err.Error())
		}
		return nil
	}
	if op.kind == 'I' || op.id >= n || !t.liveSlot(op.id) {
		return errf(ErrIO, "sql: wal recovery: logged %c names slot %d of %s, which has %d slots", op.kind, op.id, op.table, n)
	}
	if op.kind == 'D' {
		return t.deleteRow(op.id, tx)
	}
	if len(op.row) != len(t.Columns) {
		return recoveryCorrupt("replayed UPDATE has the wrong number of values")
	}
	return t.updateRow(op.id, op.row, nil, tx)
}

// liveSlot reports whether slot id holds a current row (writeMu held, id
// below the slot count): a sealed block's row, or a chain whose head is not
// deleted.
func (t *Table) liveSlot(id int) bool {
	head, blk := t.resolve(t.run(id/segBlockSlots), id)
	return blk != nil || latestRow(head) != nil
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
