package sqldb

import (
	"cmp"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the durability layer's write side: a checksummed,
// length-prefixed write-ahead log appended at COMMIT, and checkpointing,
// which starts the next log generation from the committed state. Recovery
// (the read side) lives in recovery.go; the filesystem seam in walfs.go.
//
// Log format. A generation's log, wal-g.log, is a magic header followed by
// records. Its first records hold the committed state as of the
// generation's start — an 'S' op for each CREATE TABLE and CREATE INDEX and
// an 'I' op for each live row, in Dump's order, cut into records of about
// walBufKeep bytes. After them comes one record per committed unit — an
// explicit transaction, an autocommit DML statement or an autocommit DDL
// statement:
//
//	record  = u32 payload-length | u32 CRC32(payload) | payload
//	payload = u32 op count | ops
//	op      = 'S' sql | 'I' table id row | 'D' table id | 'U' table id row
//
// An id is written as the zigzag varint of its distance from one past the
// previous row op's id in the same record (from 0 for the record's first
// row op), so a run of consecutive ids costs a byte an op and a decoder
// needs no state beyond the record; an id outside [0, 2³²) is corrupt. A
// string is a u32 length and its bytes, a row a u16 value count and the
// values.
//
// A record is whole or it is not there: recovery applies every record
// whose checksum holds and drops a torn tail.
//
// An op is a DDL statement, stored as SQL text, or a row change, which
// names its row by slot id: INSERT carries the id the heap gave the row and
// the row, DELETE the id alone, UPDATE the id and the new row. Replay puts
// every row at the id it had, padding with empty slots the ids that were
// rolled back or vacuumed, so a reopened heap is the heap that was logged,
// and a DELETE or UPDATE goes to its id directly. The state records carry
// each live row's id as well, so a checkpoint keeps the slots too.
//
// Write path invariants:
//
//   - Appends happen at commit, under the database's single-writer latch
//     and before the transaction's publication point (tm.finish), so log
//     order equals commit order and a transaction is never visible to new
//     snapshots without its record being in the log, and Commit returns
//     only once that record is fsynced.
//   - A failed append or fsync POISONS the writer: the tail is truncated
//     back to the last record boundary (best effort), the commit returns
//     a typed ErrIO, and every later commit fails fast with ErrIO. The
//     in-memory database stays consistent and queryable; the durable
//     prefix is exactly the transactions committed before the first
//     error. Reopen recovers that prefix.
//
// Checkpoint protocol (generation g -> g+1), all under writeMu:
//
//	write wal-(g+1).log.tmp, fsync  — magic, then the committed state
//	rename it to wal-(g+1).log      <- commit point
//	append to it from then on, remove older generations
//
// Recovery replays only the newest generation, and Open then starts the
// next one by the same protocol, so no file is appended to after a crash.
// A crash at any point of the protocol recovers exactly the pre- or
// post-checkpoint state, never a mix: before the rename the newest
// generation is g, after it g+1, which holds everything g did.

// walMagic identifies a WAL file and its format version.
var walMagic = []byte("TAGWAL5\n")

// walMaxRecord bounds a record's payload length; longer lengths in a
// header mean corruption (or a torn length field), not a real record.
const walMaxRecord = 1 << 30

// defaultCheckpointBytes is the automatic checkpoint threshold: a
// background checkpoint starts once this many bytes were appended since
// the last one.
const defaultCheckpointBytes = 1 << 20

// Open opens (creating if needed) a durable database stored in the
// directory at path: it recovers committed state from the newest log
// generation, then arms logging so every later commit is appended and
// fsynced before it returns.
func Open(path string, opts ...Option) (*Database, error) {
	return OpenContext(context.Background(), path, opts...)
}

// OpenContext is Open under a context: cancellation aborts recovery
// replay cleanly with a typed ErrCanceled error.
func OpenContext(ctx context.Context, path string, opts ...Option) (*Database, error) {
	if path == "" {
		return nil, errf(ErrMisuse, "sql: Open requires a database path")
	}
	db := NewDatabase(opts...)
	if err := db.openWAL(ctx, path); err != nil {
		_ = db.Close() // waits for maintenance the replay started; db.wal is nil, so no log to close
		return nil, err
	}
	return db, nil
}

// wrapIOErr classifies a filesystem error as a typed ErrIO.
func wrapIOErr(err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*Error); ok {
		return err
	}
	return &Error{Code: ErrIO, Msg: "sql: wal I/O error: " + err.Error(), Cause: err}
}

// walLogName names generation g's log inside dir.
func walLogName(dir string, gen uint64) string {
	return filepath.Join(dir, "wal-"+strconv.FormatUint(gen, 10)+".log")
}

// parseGen extracts the generation from a log's file name; ok=false for
// anything else (including .tmp leftovers).
func parseGen(name string) (uint64, bool) {
	mid, pre := strings.CutPrefix(name, "wal-")
	mid, suf := strings.CutSuffix(mid, ".log")
	g, err := strconv.ParseUint(mid, 10, 64)
	return g, pre && suf && err == nil
}

// ---------------------------------------------------------------------------
// Logical ops and their binary encoding

// walOp is one logical change captured at DML/DDL time and replayed at
// recovery.
type walOp struct {
	kind  byte   // 'I' insert, 'D' delete, 'U' update, 'S' DDL
	table string // I/D/U
	sql   string // S
	id    int    // I/D/U: the row's slot
	row   Row    // I: the inserted row; U: the new row
}

func appendWalString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendWalValue encodes one Value: kind byte + fixed/length-prefixed body.
func appendWalValue(b []byte, v Value) []byte {
	k := v.Kind()
	b = append(b, byte(k))
	switch k {
	case KindNull:
	case KindBool:
		b = append(b, byte(v.i64()))
	case KindInt, KindFloat:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.i64()))
	case KindText:
		b = appendWalString(b, v.str())
	}
	return b
}

// walValueLen is the length of appendWalValue's encoding of v.
func walValueLen(v Value) int {
	return 1 + [...]int{KindBool: 1, KindInt: 8, KindFloat: 8, KindText: 4}[v.Kind()] + len(v.str())
}

func appendWalRow(b []byte, r Row) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r)))
	for _, v := range r {
		b = appendWalValue(b, v)
	}
	return b
}

// appendWalOp encodes one op of a record; *next is one past the id of the
// record's previous row op (0 before the first), which a row op moves.
func appendWalOp(b []byte, op walOp, next *int) []byte {
	b = append(b, op.kind)
	if op.kind == 'S' {
		return appendWalString(b, op.sql)
	}
	b = appendWalString(b, op.table)
	b = binary.AppendVarint(b, int64(op.id-*next))
	*next = op.id + 1
	if op.kind != 'D' {
		b = appendWalRow(b, op.row)
	}
	return b
}

// walDecoder walks an encoded buffer with a sticky error.
type walDecoder struct {
	b     []byte
	off   int
	err   error
	table string // the last row op's table name, which the next one reuses
	next  int    // one past the last row op's id: where the next one's is counted from
}

func (d *walDecoder) fail() {
	if d.err == nil {
		d.err = errf(ErrIO, "sql: wal record decode error at byte %d", d.off)
	}
}

// uintN reads an n-byte (1, 2, 4 or 8) little-endian integer, 0 — setting
// the sticky error — once it is not all there.
func (d *walDecoder) uintN(n int) uint64 {
	if d.err != nil || n > len(d.b)-d.off {
		d.fail()
		return 0
	}
	b := d.b[d.off:][:n]
	d.off += n
	switch n {
	case 8:
		return binary.LittleEndian.Uint64(b)
	case 4:
		return uint64(binary.LittleEndian.Uint32(b))
	case 2:
		return uint64(binary.LittleEndian.Uint16(b))
	default:
		return uint64(b[0])
	}
}

func (d *walDecoder) byte() byte  { return byte(d.uintN(1)) }
func (d *walDecoder) u16() uint16 { return uint16(d.uintN(2)) }
func (d *walDecoder) u32() uint32 { return uint32(d.uintN(4)) }
func (d *walDecoder) u64() uint64 { return d.uintN(8) }

// bytes reads a length-prefixed string's bytes, in place.
func (d *walDecoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n > len(d.b)-d.off {
		d.fail()
		return nil
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

func (d *walDecoder) str() string { return string(d.bytes()) }

// id reads a row op's slot id, written as its distance from d.next; an id
// outside [0, 2³²) sets the sticky error.
func (d *walDecoder) id() int {
	if d.err != nil {
		return 0
	}
	delta, k := binary.Varint(d.b[d.off:])
	if k <= 0 || delta < -int64(d.next) || delta > math.MaxUint32-int64(d.next) {
		d.fail()
		return 0
	}
	d.off += k
	id := d.next + int(delta)
	d.next = id + 1
	return id
}

// name reads a row op's table name, copying it only when it is not the
// previous row op's: a record's rows mostly belong to one table.
func (d *walDecoder) name() string {
	if b := d.bytes(); string(b) != d.table {
		d.table = string(b)
	}
	return d.table
}

func (d *walDecoder) value() Value {
	k := Kind(d.byte())
	switch k {
	case KindNull:
		return Null
	case KindBool:
		return Bool(d.byte() != 0)
	case KindInt:
		return Int(int64(d.u64()))
	case KindFloat:
		return Float(math.Float64frombits(d.u64()))
	case KindText:
		return Text(d.str())
	default:
		d.fail()
		return Null
	}
}

func (d *walDecoder) row() Row {
	n := int(d.u16())
	if d.err != nil {
		return nil
	}
	r := make(Row, 0, n)
	for i := 0; i < n; i++ {
		r = append(r, d.value())
	}
	return r
}

// op decodes one walOp of a record.
func (d *walDecoder) op() walOp {
	op := walOp{kind: d.byte()}
	switch op.kind {
	case 'S':
		op.sql = d.str()
	case 'I', 'D', 'U':
		op.table, op.id = d.name(), d.id()
		if op.kind != 'D' {
			op.row = d.row()
		}
	default:
		d.fail()
	}
	return op
}

// ---------------------------------------------------------------------------
// The writer

// walWriter owns the active WAL file. All appends serialise on mu;
// commit-path callers additionally hold the database's single-writer
// latch, so log order equals commit order.
type walWriter struct {
	db  *Database
	fs  walFS
	dir string

	// armed gates op capture: recovery runs unarmed so replaying history
	// does not re-log it.
	armed atomic.Bool

	mu        sync.Mutex
	f         walFile
	gen       uint64
	off       int64 // last good record boundary (all bytes before it are whole records)
	poisoned  bool  // a commit append/fsync failed; all later commits fail fast
	sinceCkpt int64
	// buf is the record appendCommit encodes in place, kept while at most
	// walBufKeep; the holder of the single-writer latch owns it.
	buf []byte

	// Group commit. Appends happen under mu (and the single-writer
	// latch), but the fsync that makes a commit durable is performed by
	// waitSync AFTER the committer released both, against the
	// (gen, off) position its record ended at. One waiter elects itself
	// leader and fsyncs; every commit whose position the fsync covered is
	// released together — concurrent commits batch into one fsync instead
	// of one each. syncMu orders only this election state, never the file,
	// so appends and fsyncs overlap.
	syncMu   sync.Mutex
	syncCond *sync.Cond
	syncing  bool   // a leader's fsync is in flight
	sGen     uint64 // generation synced refers to
	synced   int64  // bytes of sGen known durable
	syncErr  error  // sticky fsync failure (writer is also poisoned)
}

// appendLocked writes one buffer of whole records; the caller makes them
// durable with waitSync. w.mu held.
func (w *walWriter) appendLocked(buf []byte) error {
	if w.poisoned {
		return errf(ErrIO, "sql: wal disabled by earlier I/O error (reopen to recover)")
	}
	if _, err := w.f.Write(buf); err != nil {
		// A short or failed write may have left a partial record; cut the
		// tail back to the last good boundary (best effort — recovery
		// drops a torn tail anyway) and poison the writer.
		w.poisoned = true
		_ = w.f.Truncate(w.off)
		return wrapIOErr(err)
	}
	w.off += int64(len(buf))
	w.sinceCkpt += int64(len(buf))
	w.db.stats.add(func(s *Stats) { s.WALAppends++; s.WALBytes += uint64(len(buf)) })
	return nil
}

// waitSync blocks until the log is durable through (gen, target) — the
// position a commit's record ended at — or the writer fails. It runs
// outside both mu and the single-writer latch, so concurrent commits group
// into shared fsyncs: the first arriving waiter becomes the leader and fsyncs once for everyone queued
// behind it; a commit released by someone else's fsync (or by a
// checkpoint retiring its generation) counts as a group commit.
func (w *walWriter) waitSync(gen uint64, target int64) error {
	if debugFault == faultWALSkipSync {
		return nil
	}
	led := false
	for {
		w.syncMu.Lock()
		for {
			if w.sGen > gen || (w.sGen == gen && w.synced >= target) {
				w.syncMu.Unlock()
				if !led {
					w.db.stats.add(func(s *Stats) { s.WALGroupCommits++ })
				}
				return nil
			}
			if w.syncErr != nil {
				err := w.syncErr
				w.syncMu.Unlock()
				return err
			}
			if !w.syncing {
				break
			}
			w.syncCond.Wait()
		}
		w.syncing = true
		led = true
		w.syncMu.Unlock()

		// Leader: capture the live file and its extent under mu, then
		// fsync without holding it — appends proceed during the fsync and
		// pile up for the next leader.
		w.mu.Lock()
		f, fgen, foff, poisoned := w.f, w.gen, w.off, w.poisoned
		w.mu.Unlock()
		var err error
		if poisoned {
			err = errf(ErrIO, "sql: wal disabled by earlier I/O error (reopen to recover)")
		} else if err = wrapIOErr(f.Sync()); err != nil {
			// A checkpoint may have rotated generations and closed this
			// file mid-fsync. The new generation, fsynced before it was
			// renamed in, holds every record of the old one, so a
			// stale-generation failure is discarded; a same-generation
			// failure is real and poisons the writer (bytes written,
			// durability unknown).
			w.mu.Lock()
			if w.gen > fgen {
				err = nil
			} else {
				w.poisoned = true
			}
			w.mu.Unlock()
		}
		w.syncMu.Lock()
		w.syncing = false
		if err != nil {
			w.syncErr = err
		} else if w.sGen == fgen {
			if w.synced < foff {
				w.synced = foff
			}
		} else if w.sGen < fgen {
			w.sGen, w.synced = fgen, foff
		}
		w.syncCond.Broadcast()
		w.syncMu.Unlock()
		// Loop to re-check our own position: the fsync (or a concurrent
		// checkpoint) normally covered it, but if a rotation intervened we
		// may need one more pass.
	}
}

// walBufKeep bounds the record buffer a writer keeps between commits: a
// bulk load's record is encoded in a buffer of its own size and dropped.
const walBufKeep = 64 << 10

// recordHead is the room a record's encoding starts with: the 8-byte
// frame and the op count, which frameRecord fills in once the ops follow.
const recordHead = 12

// frameRecord fills in the head of rec, a record of n ops encoded behind
// recordHead bytes: the op count, the payload length and its CRC32.
func frameRecord(rec []byte, n int) {
	binary.LittleEndian.PutUint32(rec[8:], uint32(n))
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-8))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
}

// keepBuf keeps buf's storage as w.buf while it is at most walBufKeep.
func (w *walWriter) keepBuf(buf []byte) {
	if w.buf = buf[:0]; cap(buf) > walBufKeep {
		w.buf = nil
	}
}

// appendCommit logs one committed unit as one record. Called at commit
// time under the database's single-writer latch, which owns w.buf: the
// ops are encoded behind the record's head, the head is filled in place,
// and the one slice is appended. Returns the (generation, offset) position
// the record ended at; the caller makes it durable with waitSync after
// releasing the latch, so concurrent commits share fsyncs.
func (w *walWriter) appendCommit(ops []walOp) (uint64, int64, error) {
	rec, next := append(w.buf[:0], make([]byte, recordHead)...), 0
	for _, op := range ops {
		rec = appendWalOp(rec, op, &next)
	}
	frameRecord(rec, len(ops))
	w.keepBuf(rec)
	w.mu.Lock()
	err := w.appendLocked(rec)
	gen, off := w.gen, w.off
	w.mu.Unlock()
	if err == nil {
		w.db.maybeCheckpoint()
	}
	return gen, off, err
}

// wantCheckpoint reports whether enough bytes accumulated since the last
// checkpoint (and automatic checkpointing is enabled and the writer
// healthy).
func (w *walWriter) wantCheckpoint() bool {
	threshold := cmp.Or(w.db.ckptBytes, defaultCheckpointBytes)
	if threshold < 0 {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return !w.poisoned && w.sinceCkpt >= threshold
}

// close syncs once more and closes the file.
func (w *walWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if !w.poisoned {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return wrapIOErr(err)
}

// ---------------------------------------------------------------------------
// Checkpointing

// Checkpoint starts a new log generation that opens with the committed
// state and retires the current one, so recovery replays that state and
// only the commits since. Runs under the single-writer latch (writers
// pause; lock-free readers do not). Returns ErrMisuse on an in-memory or
// closed database and ErrIO if the WAL is poisoned or the filesystem fails
// — in the failure cases the previous generation stays intact and active.
func (db *Database) Checkpoint() error {
	if db.wal == nil {
		return errf(ErrMisuse, "sql: database has no durability layer")
	}
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	if db.isClosed() {
		return errClosed
	}
	if err := db.wal.startGen(db.wal.gen + 1); err != nil {
		return err
	}
	db.stats.add(func(s *Stats) { s.Checkpoints++ })
	return nil
}

// startGen makes generation g the log, under writeMu: it writes the magic
// and the committed state to wal-g.log.tmp, fsyncs it and renames it into
// place — the commit point — then appends to that file and removes every
// older generation. On failure the previous generation stays active.
func (w *walWriter) startGen(g uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.poisoned {
		return errf(ErrIO, "sql: wal disabled by earlier I/O error (reopen to recover)")
	}
	name := walLogName(w.dir, g)
	tmp := name + ".tmp"
	f, err := w.fs.Create(tmp)
	if err != nil {
		return wrapIOErr(err)
	}
	off, err := w.writeState(f)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = w.fs.Rename(tmp, name)
	}
	if err != nil {
		_ = f.Close()
		_ = w.fs.Remove(tmp)
		return wrapIOErr(err)
	}
	if w.f != nil {
		_ = w.f.Close()
	}
	w.f, w.gen, w.off, w.sinceCkpt = f, g, off, 0
	// The fsynced generation holds every record of the one it retires,
	// including any a group-commit leader had not fsynced yet: advance the
	// durable horizon and release those waiters.
	w.syncMu.Lock()
	w.sGen, w.synced = g, off
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	w.removeObsolete(g)
	return nil
}

// writeState writes the magic, then the committed state as records of 'S'
// and 'I' ops in Dump's order, each cut once it reaches walBufKeep bytes
// and encoded in w.buf. It returns the bytes written.
func (w *walWriter) writeState(f walFile) (int64, error) {
	buf := append(slices.Grow(w.buf[:0], walBufKeep), walMagic...)
	rec, n, next, off := 0, 0, 0, int64(0) // the open record's start in buf, op count and id base
	flush := func() error {
		if n > 0 {
			frameRecord(buf[rec:], n)
		}
		_, err := f.Write(buf)
		buf, n, off = buf[:0], 0, off+int64(len(buf))
		return err
	}
	err := w.db.walkState(func(op walOp) error {
		if n == 0 {
			rec, buf, next = len(buf), append(buf, make([]byte, recordHead)...), 0
		}
		if buf, n = appendWalOp(buf, op, &next), n+1; len(buf) < walBufKeep {
			return nil
		}
		return flush()
	})
	if err == nil && (n > 0 || off == 0) {
		err = flush()
	}
	w.keepBuf(buf)
	return off, err
}

// removeObsolete deletes log generations below keep and .tmp leftovers of
// checkpoints that never reached their commit point. Best effort: recovery
// reads only the newest generation, and the next checkpoint retries.
func (w *walWriter) removeObsolete(keep uint64) {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if g, ok := parseGen(name); (ok && g < keep) || filepath.Ext(name) == ".tmp" {
			_ = w.fs.Remove(filepath.Join(w.dir, name))
		}
	}
}
