// Package pgwire implements enough of the PostgreSQL v3 wire protocol to
// serve the sqldb engine to stock Postgres clients: startup handshake
// (with SSL/GSS negotiation declined in the clear), simple Query, the
// extended Parse/Bind/Describe/Execute/Close/Flush/Sync flow, CancelRequest
// with per-session secret keys, and Terminate. One TCP connection maps to
// one session; sessions are isolated — each owns its transaction state,
// prepared statements, and portals, all backed by the engine's explicit
// Txn handles and streaming Rows cursors (never the engine's shared
// SQL-level session transaction).
//
// Documented divergences from PostgreSQL, chosen for a tighter resource
// contract (and pinned by the disconnect/leak tests):
//
//   - All result columns are sent in text format with the TEXT type OID;
//     binary format codes are rejected as feature_not_supported.
//   - Every portal is destroyed at Sync (PostgreSQL keeps named portals
//     until transaction end), so no cursor survives a protocol cycle.
//   - CancelRequest cancels the session's open portals as well as the
//     statement currently executing (PostgreSQL ignores cancels for idle
//     sessions; here a suspended portal counts as in-progress work).
//   - BEGIN inside a transaction and COMMIT/ROLLBACK outside one are
//     errors (PostgreSQL warns), matching the engine's strict semantics.
package pgwire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol constants (PostgreSQL v3).
const (
	protocolVersion = 196608   // 3.0
	cancelCode      = 80877102 // CancelRequest "version"
	sslCode         = 80877103 // SSLRequest
	gssEncCode      = 80877104 // GSSENCRequest

	// maxMessageLen bounds any regular frame; maxStartupLen bounds the
	// startup packet. Both exist so a hostile or corrupt length prefix
	// cannot make the server allocate unbounded memory — the fuzz harness
	// drives arbitrary bytes at these readers.
	maxMessageLen = 1 << 24
	maxStartupLen = 1 << 16
)

// Frontend message type bytes.
const (
	msgQuery     = 'Q'
	msgParse     = 'P'
	msgBind      = 'B'
	msgDescribe  = 'D'
	msgExecute   = 'E'
	msgClose     = 'C'
	msgFlush     = 'H'
	msgSync      = 'S'
	msgTerminate = 'X'
	msgPassword  = 'p'
)

// protocolError is a wire-level violation: bad framing, an unknown message
// type, an out-of-bounds length. It is fatal to the connection — the
// server reports it (when the handshake got far enough to speak the error
// format) and closes. The fuzz harnesses assert that arbitrary input
// produces these, never a panic.
type protocolError struct {
	sqlState string
	msg      string
}

func (e *protocolError) Error() string { return e.msg }

func protoErrf(format string, args ...any) *protocolError {
	return &protocolError{sqlState: "08P01", msg: fmt.Sprintf(format, args...)}
}

// readStartup reads one startup-phase packet: a 4-byte length (inclusive
// of itself) followed by a 4-byte code and the payload. SSLRequest,
// GSSENCRequest, CancelRequest, and StartupMessage all share this shape.
func readStartup(r io.Reader) (code uint32, payload []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < 8 || n > maxStartupLen {
		return 0, nil, protoErrf("invalid startup packet length %d", n)
	}
	body := make([]byte, n-4)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return binary.BigEndian.Uint32(body[:4]), body[4:], nil
}

// readMessage reads one regular frame: a type byte, a 4-byte length
// (inclusive of itself, exclusive of the type byte), and the payload.
func readMessage(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n < 4 || n > maxMessageLen {
		return 0, nil, protoErrf("invalid message length %d for %q", n, hdr[0])
	}
	body := make([]byte, n-4)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return hdr[0], body, nil
}

// msgReader decodes a frame payload field by field. The first decode
// error sticks; callers check err once after pulling every field, and
// a stuck reader yields zero values so decoding never panics on
// truncated input.
type msgReader struct {
	buf []byte
	pos int
	err error
}

func (r *msgReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = protoErrf(format, args...)
	}
}

func (r *msgReader) int8() byte {
	if r.err != nil || r.pos+1 > len(r.buf) {
		r.fail("truncated message: want 1 byte at %d", r.pos)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

func (r *msgReader) int16() int {
	if r.err != nil || r.pos+2 > len(r.buf) {
		r.fail("truncated message: want int16 at %d", r.pos)
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return int(v)
}

func (r *msgReader) int32() int32 {
	if r.err != nil || r.pos+4 > len(r.buf) {
		r.fail("truncated message: want int32 at %d", r.pos)
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return int32(v)
}

// cstring reads a NUL-terminated string.
func (r *msgReader) cstring() string {
	if r.err != nil {
		return ""
	}
	for i := r.pos; i < len(r.buf); i++ {
		if r.buf[i] == 0 {
			s := string(r.buf[r.pos:i])
			r.pos = i + 1
			return s
		}
	}
	r.fail("unterminated string at %d", r.pos)
	return ""
}

// bytes reads exactly n bytes (a Bind parameter value).
func (r *msgReader) bytes(n int) []byte {
	if n < 0 {
		r.fail("negative field length %d", n)
		return nil
	}
	if r.err != nil || r.pos+n > len(r.buf) {
		r.fail("truncated message: want %d bytes at %d", n, r.pos)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// msgWriter accumulates backend frames: each frame is opened with start,
// built field by field, and sealed by finish, which back-patches the
// 4-byte length (covering everything after the type byte, itself
// included). Frames never nest.
type msgWriter struct {
	buf   []byte
	frame int // offset of the current frame's type byte
}

func (w *msgWriter) start(typ byte) {
	w.frame = len(w.buf)
	w.buf = append(w.buf, typ, 0, 0, 0, 0)
}

func (w *msgWriter) finish() {
	binary.BigEndian.PutUint32(w.buf[w.frame+1:], uint32(len(w.buf)-w.frame-1))
}

func (w *msgWriter) byte1(b byte)     { w.buf = append(w.buf, b) }
func (w *msgWriter) int16(v int)      { w.buf = binary.BigEndian.AppendUint16(w.buf, uint16(v)) }
func (w *msgWriter) int32(v int32)    { w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v)) }
func (w *msgWriter) cstring(s string) { w.buf = append(append(w.buf, s...), 0) }
