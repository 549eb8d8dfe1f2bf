package pgwire

import (
	"bufio"
	"encoding/binary"
	"net"

	"tag/internal/sqldb"
)

// backend serializes server→client messages onto a connection. All
// writes go through the buffered writer; flush points follow the
// protocol's own rules (end of response cycle, Flush message) so a
// streaming result does not pay a syscall per row.
type backend struct {
	conn net.Conn
	bw   *bufio.Writer
	w    msgWriter
}

func newBackend(conn net.Conn) *backend {
	return &backend{conn: conn, bw: bufio.NewWriterSize(conn, 16<<10)}
}

// send seals the frame under construction and hands it to the buffered
// writer (flushing is separate).
func (b *backend) send() error {
	b.w.finish()
	_, err := b.bw.Write(b.w.buf)
	b.w.buf = b.w.buf[:0]
	return err
}

func (b *backend) flush() error { return b.bw.Flush() }

// textOID is the only result type this server declares: every column is
// rendered through Value.AsText, which is also exactly how the in-process
// API renders — the wire conformance suite leans on that to demand
// bit-identical results.
const textOID = 25

// Parameter type OIDs the binder understands (anything else, including 0
// for "unspecified", binds as text).
const (
	boolOID    = 16
	int8OID    = 20
	int2OID    = 21
	int4OID    = 23
	float4OID  = 700
	float8OID  = 701
	numericOID = 1700
)

func (b *backend) authenticationOk() error {
	b.w.start('R')
	b.w.int32(0)
	return b.send()
}

func (b *backend) authenticationCleartext() error {
	b.w.start('R')
	b.w.int32(3)
	return b.send()
}

func (b *backend) parameterStatus(key, val string) error {
	b.w.start('S')
	b.w.cstring(key)
	b.w.cstring(val)
	return b.send()
}

func (b *backend) backendKeyData(pid, secret int32) error {
	b.w.start('K')
	b.w.int32(pid)
	b.w.int32(secret)
	return b.send()
}

// readyForQuery carries the transaction status byte: 'I' idle, 'T' in a
// transaction, 'E' in a failed transaction.
func (b *backend) readyForQuery(status byte) error {
	b.w.start('Z')
	b.w.byte1(status)
	if err := b.send(); err != nil {
		return err
	}
	return b.flush()
}

func (b *backend) rowDescription(cols []string) error {
	b.w.start('T')
	b.w.int16(len(cols))
	for _, c := range cols {
		b.w.cstring(c)
		b.w.int32(0)       // table OID (none: results are computed)
		b.w.int16(0)       // attribute number
		b.w.int32(textOID) // type OID
		b.w.int16(-1)      // type length (variable)
		b.w.int32(-1)      // type modifier
		b.w.int16(0)       // format: text
	}
	return b.send()
}

// dataRow renders one engine row: NULL as length -1, everything else as
// its AsText bytes, appended straight into the frame with the length
// back-patched once they are there.
func (b *backend) dataRow(row sqldb.Row) error {
	b.w.start('D')
	b.w.int16(len(row))
	for _, v := range row {
		if v.IsNull() {
			b.w.int32(-1)
			continue
		}
		at := len(b.w.buf)
		b.w.int32(0)
		b.w.buf = v.AppendText(b.w.buf)
		binary.BigEndian.PutUint32(b.w.buf[at:], uint32(len(b.w.buf)-at-4))
	}
	return b.send()
}

func (b *backend) commandComplete(tag string) error {
	b.w.start('C')
	b.w.cstring(tag)
	return b.send()
}

func (b *backend) emptyQueryResponse() error {
	b.w.start('I')
	return b.send()
}

func (b *backend) parseComplete() error {
	b.w.start('1')
	return b.send()
}

func (b *backend) bindComplete() error {
	b.w.start('2')
	return b.send()
}

func (b *backend) closeComplete() error {
	b.w.start('3')
	return b.send()
}

func (b *backend) noData() error {
	b.w.start('n')
	return b.send()
}

func (b *backend) portalSuspended() error {
	b.w.start('s')
	return b.send()
}

func (b *backend) parameterDescription(oids []int32) error {
	b.w.start('t')
	b.w.int16(len(oids))
	for _, oid := range oids {
		b.w.int32(oid)
	}
	return b.send()
}

// errorResponse sends the S/V/C/M field set every client understands.
func (b *backend) errorResponse(severity, sqlState, msg string) error {
	b.w.start('E')
	b.w.byte1('S')
	b.w.cstring(severity)
	b.w.byte1('V')
	b.w.cstring(severity)
	b.w.byte1('C')
	b.w.cstring(sqlState)
	b.w.byte1('M')
	b.w.cstring(msg)
	b.w.byte1(0)
	return b.send()
}
