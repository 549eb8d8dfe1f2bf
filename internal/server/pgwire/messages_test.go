package pgwire

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"strings"
	"testing"

	"tag/internal/sqldb"
)

// sinkConn is the client end of a backend under test: it keeps what the
// backend flushed (or, with keep unset, only lets it go).
type sinkConn struct {
	net.Conn
	keep bool
	got  bytes.Buffer
}

func (c *sinkConn) Write(p []byte) (int, error) {
	if c.keep {
		c.got.Write(p)
	}
	return len(p), nil
}

// TestDataRowFrame reads a DataRow back field by field: every cell is its
// AsText bytes behind a length that counts exactly them, NULL is -1.
func TestDataRowFrame(t *testing.T) {
	row := sqldb.Row{sqldb.Int(math.MinInt64), sqldb.Null, sqldb.Float(2.5), sqldb.Float(3), sqldb.Text(""),
		sqldb.Text(strings.Repeat("é", 40)), sqldb.Bool(true), sqldb.Float(math.Inf(1))}
	conn := &sinkConn{keep: true}
	be := newBackend(conn)
	for i := 0; i < 2; i++ { // the second frame must not see the first
		if err := be.dataRow(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := be.flush(); err != nil {
		t.Fatal(err)
	}
	b := conn.got.Bytes()
	for frame := 0; frame < 2; frame++ {
		if b[0] != 'D' {
			t.Fatalf("frame %d: type %q", frame, b[0])
		}
		size := int(binary.BigEndian.Uint32(b[1:]))
		body := b[5 : 1+size]
		b = b[1+size:]
		if n := int(binary.BigEndian.Uint16(body)); n != len(row) {
			t.Fatalf("frame %d: %d fields, want %d", frame, n, len(row))
		}
		body = body[2:]
		for i, v := range row {
			n := int32(binary.BigEndian.Uint32(body))
			body = body[4:]
			if v.IsNull() {
				if n != -1 {
					t.Errorf("field %d: NULL sent with length %d", i, n)
				}
				continue
			}
			if got := string(body[:n]); got != v.AsText() {
				t.Errorf("field %d: %q, want %q", i, got, v.AsText())
			}
			body = body[n:]
		}
		if len(body) != 0 {
			t.Errorf("frame %d: %d bytes after the last field", frame, len(body))
		}
	}
	if len(b) != 0 {
		t.Errorf("%d bytes after the second frame", len(b))
	}
}

// TestDataRowAllocatesNothing: on a writer whose frame buffer has grown to
// the row's size, encoding a row allocates nothing — cells are appended
// into the frame, not rendered to a string and copied.
func TestDataRowAllocatesNothing(t *testing.T) {
	row := sqldb.Row{sqldb.Int(1234567), sqldb.Float(98.6), sqldb.Float(5),
		sqldb.Text(strings.Repeat("longer than thirty-two bytes ", 3)), sqldb.Null}
	be := newBackend(&sinkConn{})
	send := func() {
		if err := be.dataRow(row); err != nil {
			t.Fatal(err)
		}
	}
	send() // grow the frame buffer once
	if a := testing.AllocsPerRun(1000, send); a != 0 {
		t.Errorf("dataRow allocated %v times a row on a warm writer, want 0", a)
	}
}

// TestDecodeParam: each parameter OID the binder knows decodes valid text to
// the value the engine binds and refuses anything else with 22P02; NULL
// passes through as nil, and text, an undeclared OID or an unknown one binds
// the bytes as they are.
func TestDecodeParam(t *testing.T) {
	for _, c := range []struct {
		oid  int32
		in   string
		want any // nil: refused with 22P02
	}{
		{int8OID, "-42", int64(-42)},
		{int8OID, "", nil},
		{int2OID, "7", int64(7)},
		{int2OID, "seven", nil},
		{int4OID, "2147483647", int64(2147483647)},
		{int4OID, "4.5", nil},
		{float4OID, "1.5", 1.5},
		{float4OID, "1.5.1", nil},
		{float8OID, "-2e3", -2000.0},
		{float8OID, "x", nil},
		{numericOID, "12", int64(12)},
		{numericOID, "12.25", 12.25},
		{numericOID, "1,5", nil},
		{boolOID, "t", true},
		{boolOID, "TRUE", true},
		{boolOID, "on", true},
		{boolOID, "1", true},
		{boolOID, "yes", true},
		{boolOID, "f", false},
		{boolOID, "False", false},
		{boolOID, "off", false},
		{boolOID, "0", false},
		{boolOID, "no", false},
		{boolOID, "maybe", nil},
		{textOID, "it's", "it's"},
		{0, "42", "42"},
		{9999, "", ""},
	} {
		got, err := decodeParam([]byte(c.in), c.oid)
		if c.want == nil {
			if we := toWireError(err); err == nil || we.sqlState != "22P02" {
				t.Errorf("decodeParam(%q, %d) = %v, %v; want 22P02", c.in, c.oid, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("decodeParam(%q, %d) = %#v, %v; want %#v", c.in, c.oid, got, err, c.want)
		}
	}
	for _, oid := range []int32{0, int4OID, boolOID} {
		if got, err := decodeParam(nil, oid); got != nil || err != nil {
			t.Errorf("decodeParam(NULL, %d) = %v, %v; want nil, nil", oid, got, err)
		}
	}
}
