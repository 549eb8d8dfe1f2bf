package sqldb

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file implements the durability layer's write side: a checksummed,
// length-prefixed write-ahead log appended at COMMIT, plus checkpointing
// that snapshots committed state and retires the log. Recovery (the read
// side) lives in recovery.go; the filesystem seam in walfs.go.
//
// Log format. A WAL file is a magic header followed by records, one per
// committed unit — an explicit transaction, an autocommit DML statement
// or an autocommit DDL statement:
//
//	record  = u32 payload-length | u32 CRC32(payload) | payload
//	payload = u32 op count | ops
//
// A record is whole or it is not there: recovery applies every record
// whose checksum holds and drops a torn tail.
//
// An op is a DDL statement, stored as SQL text, or a row change. Row
// changes are logical row images, not slot ids: INSERT carries the new row,
// DELETE the deleted row's image, UPDATE both images. Recovery matches
// images against the lowest visible row, which reproduces the original
// slot assignment because DML always visits matching rows in ascending
// id order (index access and the heap walk both yield ascending ids) and
// checkpoint compaction preserves the relative order of live rows. Image
// ops survive checkpointing, where slot ids would not: reloading a
// snapshot compacts slots.
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
//	write snap-(g+1).sql.tmp, fsync     — full Dump of committed state
//	create wal-(g+1).log + magic, fsync — fresh empty log
//	rename snap-(g+1).sql.tmp -> snap-(g+1).sql   <- commit point
//	switch the writer to wal-(g+1), remove older generations
//
// Recovery picks the highest complete snapshot generation s, loads it,
// then replays every wal generation >= s in ascending order; a crash at
// any point of the protocol therefore recovers exactly the pre- or
// post-checkpoint state, never a mix (older generations are only removed
// after the rename commits the new one).

// walMagic identifies a WAL file and its format version.
var walMagic = []byte("TAGWAL2\n")

// walMaxRecord bounds a record's payload length; longer lengths in a
// header mean corruption (or a torn length field), not a real record.
const walMaxRecord = 1 << 30

// defaultCheckpointBytes is the automatic checkpoint threshold: a
// background checkpoint starts once this many bytes were appended since
// the last one.
const defaultCheckpointBytes = 1 << 20

// Open opens (creating if needed) a durable database stored in the
// directory at path: it recovers committed state from the latest
// snapshot plus the WAL, then arms logging so every later commit is
// appended and fsynced before it returns.
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

// walSnapName / walLogName name generation g's files inside dir.
func walSnapName(dir string, gen uint64) string {
	return filepath.Join(dir, "snap-"+strconv.FormatUint(gen, 10)+".sql")
}

func walLogName(dir string, gen uint64) string {
	return filepath.Join(dir, "wal-"+strconv.FormatUint(gen, 10)+".log")
}

// parseGen extracts the generation from a snap-/wal- file name; ok=false
// for anything else (including .tmp leftovers).
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	g, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// ---------------------------------------------------------------------------
// Logical ops and their binary encoding

// walOp is one logical change captured at DML/DDL time and replayed at
// recovery.
type walOp struct {
	kind  byte   // 'I' insert, 'D' delete, 'U' update, 'S' DDL
	table string // I/D/U
	sql   string // S
	row   Row    // I: new row; D: deleted image; U: old image
	row2  Row    // U: new image
}

func appendWalString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// appendWalValue encodes one Value: kind byte + fixed/length-prefixed body.
func appendWalValue(b []byte, v Value) []byte {
	b = append(b, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindBool:
		b = append(b, byte(v.n))
	case KindInt, KindFloat:
		b = binary.LittleEndian.AppendUint64(b, v.n)
	case KindText:
		b = appendWalString(b, v.s)
	}
	return b
}

// walValueLen is the length of appendWalValue's encoding of v.
func walValueLen(v Value) int {
	return 1 + [...]int{KindBool: 1, KindInt: 8, KindFloat: 8, KindText: 4}[v.kind] + len(v.s)
}

func appendWalRow(b []byte, r Row) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r)))
	for _, v := range r {
		b = appendWalValue(b, v)
	}
	return b
}

// appendWalOp encodes one op of a record.
func appendWalOp(b []byte, op walOp) []byte {
	b = append(b, op.kind)
	switch op.kind {
	case 'S':
		b = appendWalString(b, op.sql)
	case 'I', 'D', 'U':
		b = appendWalString(b, op.table)
		b = appendWalRow(b, op.row)
	}
	if op.kind == 'U' {
		b = appendWalRow(b, op.row2)
	}
	return b
}

// walDecoder walks an encoded buffer with a sticky error.
type walDecoder struct {
	b   []byte
	off int
	err error
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

func (d *walDecoder) str() string {
	n := int(d.u32())
	if d.err != nil || n > len(d.b)-d.off {
		d.fail()
		return ""
	}
	d.off += n
	return string(d.b[d.off-n : d.off])
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
	var op walOp
	op.kind = d.byte()
	switch op.kind {
	case 'S':
		op.sql = d.str()
	case 'I', 'D', 'U':
		op.table = d.str()
		op.row = d.row()
	default:
		d.fail()
	}
	if op.kind == 'U' {
		op.row2 = d.row()
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

	// armed gates op capture: recovery and snapshot loading run unarmed
	// so replaying history does not re-log it.
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
			// file mid-fsync. Its snapshot already made every record of
			// the old generation durable, so a stale-generation failure is
			// discarded; a same-generation failure is real and poisons the
			// writer (bytes written, durability unknown).
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

// appendCommit logs one committed unit as one record. Called at commit
// time under the database's single-writer latch, which owns w.buf: the
// ops are encoded behind an 8-byte header placeholder, the length and
// CRC32 are written into the header in place, and the one slice is
// appended. Returns the (generation, offset) position the record ended
// at; the caller makes it durable with waitSync after releasing the
// latch, so concurrent commits share fsyncs.
func (w *walWriter) appendCommit(ops []walOp) (uint64, int64, error) {
	rec := binary.LittleEndian.AppendUint32(append(w.buf[:0], make([]byte, 8)...), uint32(len(ops)))
	for _, op := range ops {
		rec = appendWalOp(rec, op)
	}
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-8))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(rec[8:]))
	if w.buf = rec[:0]; cap(rec) > walBufKeep {
		w.buf = nil
	}
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

// Checkpoint snapshots the committed state to a new generation and
// retires the current WAL: the log is effectively truncated, so recovery
// replays only commits since the snapshot. Runs under the single-writer
// latch (writers pause; lock-free readers do not). Returns ErrMisuse on
// an in-memory database and ErrIO if the WAL is poisoned or the
// filesystem fails — in the failure cases the previous generation stays
// intact and active.
func (db *Database) Checkpoint() error {
	if db.wal == nil {
		return errf(ErrMisuse, "sql: database has no durability layer")
	}
	return db.wal.checkpoint()
}

func (w *walWriter) checkpoint() error {
	db := w.db
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.poisoned {
		return errf(ErrIO, "sql: wal disabled by earlier I/O error (reopen to recover)")
	}
	g := w.gen + 1
	snapTmp := walSnapName(w.dir, g) + ".tmp"
	abort := func(err error, alsoLog bool) error {
		_ = w.fs.Remove(snapTmp)
		if alsoLog {
			_ = w.fs.Remove(walLogName(w.dir, g))
		}
		return wrapIOErr(err)
	}
	// 1. Stream the full committed state to a temp snapshot — rows rendered
	// one at a time, 64 KiB a write, so a smaller snapshot is still written
	// in one piece — and fsync it.
	// The snapshot is one of xid 0 (not via beginRead, which would join an
	// open session transaction and see its uncommitted writes).
	f, err := w.fs.Create(snapTmp)
	if err != nil {
		return wrapIOErr(err)
	}
	snap := db.tm.capture(0)
	bw := bufio.NewWriterSize(f, 1<<16)
	err = db.dumpSnapshot(bw, snap)
	db.tm.release(snap)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return abort(err, false)
	}
	// 2. Create the new generation's empty log and make it durable.
	nf, err := w.fs.Create(walLogName(w.dir, g))
	if err != nil {
		return abort(err, false)
	}
	if _, err = nf.Write(walMagic); err == nil {
		err = nf.Sync()
	}
	if err != nil {
		_ = nf.Close()
		return abort(err, true)
	}
	// 3. Commit point: publish the snapshot under its final name.
	if err := w.fs.Rename(snapTmp, walSnapName(w.dir, g)); err != nil {
		_ = nf.Close()
		return abort(err, true)
	}
	// 4. Switch the writer; retire superseded generations (best effort —
	// recovery ignores generations below the newest snapshot).
	old := w.f
	w.f, w.gen, w.off, w.sinceCkpt = nf, g, int64(len(walMagic)), 0
	_ = old.Close()
	// The fsynced snapshot covers every record of the retired generation,
	// including any a group-commit leader had not fsynced yet: advance the
	// durable horizon and release those waiters.
	w.syncMu.Lock()
	if w.sGen < g {
		w.sGen, w.synced = g, w.off
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	w.removeObsolete(g)
	db.stats.add(func(s *Stats) { s.Checkpoints++ })
	return nil
}

// removeObsolete deletes snapshot and log generations below keep.
// Best effort: leftovers are ignored by recovery and retried by the next
// checkpoint.
func (w *walWriter) removeObsolete(keep uint64) {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if g, ok := parseGen(name, "snap-", ".sql"); ok && g < keep {
			_ = w.fs.Remove(filepath.Join(w.dir, name))
		}
		if g, ok := parseGen(name, "wal-", ".log"); ok && g < keep {
			_ = w.fs.Remove(filepath.Join(w.dir, name))
		}
	}
}
