// Package pgwiretest is a minimal PostgreSQL v3 frontend used by the wire
// test layer: just enough client to drive the conformance, metamorphic,
// fault, race, and benchmark suites against the pgwire server without
// adding a module dependency. It speaks the same protocol subset the
// server implements — startup with optional cleartext password, simple
// Query, the extended Parse/Bind/Describe/Execute/Close/Flush/Sync flow,
// CancelRequest, and Terminate — and exposes both a message-level API
// (Send*/ReadMsg) for sequence assertions and collected Results for
// everything else.
package pgwiretest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// Config carries startup options.
type Config struct {
	User     string
	Database string
	Password string // sent if the server demands cleartext auth
}

// Conn is one client connection.
type Conn struct {
	c      net.Conn
	br     *bufio.Reader
	pid    int32
	secret int32
	// Params holds the ParameterStatus values announced at startup.
	Params map[string]string
	addr   string
}

// ServerError is an ErrorResponse decoded into its S/C/M fields.
type ServerError struct {
	Severity string
	Code     string // SQLSTATE
	Message  string
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("%s %s: %s", e.Severity, e.Code, e.Message)
}

// Msg is one raw backend message.
type Msg struct {
	Type byte
	Body []byte
}

// Dial connects and completes the startup handshake with default
// credentials.
func Dial(addr string) (*Conn, error) {
	return DialConfig(addr, Config{User: "test", Database: "tag"})
}

// DialConfig connects with explicit startup options.
func DialConfig(addr string, cfg Config) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{c: nc, br: bufio.NewReader(nc), Params: make(map[string]string), addr: addr}
	if err := c.startup(cfg); err != nil {
		nc.Close()
		return nil, err
	}
	return c, nil
}

func (c *Conn) startup(cfg Config) error {
	if cfg.User == "" {
		cfg.User = "test"
	}
	var body []byte
	body = binary.BigEndian.AppendUint32(body, 196608)
	body = appendCString(body, "user")
	body = appendCString(body, cfg.User)
	if cfg.Database != "" {
		body = appendCString(body, "database")
		body = appendCString(body, cfg.Database)
	}
	body = append(body, 0)
	var pkt []byte
	pkt = binary.BigEndian.AppendUint32(pkt, uint32(len(body)+4))
	pkt = append(pkt, body...)
	if _, err := c.c.Write(pkt); err != nil {
		return err
	}
	for {
		m, err := c.ReadMsg()
		if err != nil {
			return err
		}
		switch m.Type {
		case 'R':
			if len(m.Body) < 4 {
				return fmt.Errorf("short authentication message")
			}
			switch code := binary.BigEndian.Uint32(m.Body); code {
			case 0: // AuthenticationOk
			case 3: // cleartext password
				if err := c.writeMsg('p', appendCString(nil, cfg.Password)); err != nil {
					return err
				}
			default:
				return fmt.Errorf("unsupported authentication code %d", code)
			}
		case 'S':
			k, rest := cutCString(m.Body)
			v, _ := cutCString(rest)
			c.Params[k] = v
		case 'K':
			c.pid = int32(binary.BigEndian.Uint32(m.Body[:4]))
			c.secret = int32(binary.BigEndian.Uint32(m.Body[4:8]))
		case 'Z':
			return nil
		case 'E':
			return decodeError(m.Body)
		default:
			return fmt.Errorf("unexpected startup message %q", m.Type)
		}
	}
}

// ReadMsg reads one backend frame.
func (c *Conn) ReadMsg() (Msg, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return Msg{}, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n < 4 || n > 1<<26 {
		return Msg{}, fmt.Errorf("bad frame length %d", n)
	}
	body := make([]byte, n-4)
	if _, err := io.ReadFull(c.br, body); err != nil {
		return Msg{}, err
	}
	return Msg{Type: hdr[0], Body: body}, nil
}

func (c *Conn) writeMsg(typ byte, body []byte) error {
	var pkt []byte
	pkt = append(pkt, typ)
	pkt = binary.BigEndian.AppendUint32(pkt, uint32(len(body)+4))
	pkt = append(pkt, body...)
	_, err := c.c.Write(pkt)
	return err
}

// RawWrite sends arbitrary bytes — the fault tests use it to speak
// malformed protocol.
func (c *Conn) RawWrite(b []byte) error {
	_, err := c.c.Write(b)
	return err
}

// NetConn exposes the underlying connection (deadlines, hard closes).
func (c *Conn) NetConn() net.Conn { return c.c }

// BackendPID returns the pid from BackendKeyData.
func (c *Conn) BackendPID() int32 { return c.pid }

// Close hard-closes the connection without Terminate.
func (c *Conn) Close() error { return c.c.Close() }

// Terminate sends the graceful goodbye and closes.
func (c *Conn) Terminate() error {
	c.writeMsg('X', nil)
	return c.c.Close()
}

// Cancel opens a fresh connection and fires a CancelRequest carrying this
// connection's key data. The server closes a cancel connection once it has
// serviced the request, so Cancel reads it to EOF (for at most 5 s): the
// cancel has been applied when Cancel returns, and none is left in flight
// to land on a later statement.
func (c *Conn) Cancel() error {
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	var pkt []byte
	pkt = binary.BigEndian.AppendUint32(pkt, 16)
	pkt = binary.BigEndian.AppendUint32(pkt, 80877102)
	pkt = binary.BigEndian.AppendUint32(pkt, uint32(c.pid))
	pkt = binary.BigEndian.AppendUint32(pkt, uint32(c.secret))
	if _, err := nc.Write(pkt); err != nil {
		return err
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.Copy(io.Discard, nc)
	return err
}

// ---------------------------------------------------------------------------
// Collected results

// Result is everything a response cycle produced, collected until
// ReadyForQuery.
type Result struct {
	Cols      []string
	Rows      [][]*string // nil element = NULL
	Tags      []string    // CommandComplete tags, in order
	Err       *ServerError
	TxStatus  byte    // from ReadyForQuery
	Suspended bool    // saw PortalSuspended
	Empty     bool    // saw EmptyQueryResponse
	NoData    bool    // saw NoData
	ParamOIDs []int32 // from ParameterDescription
	Seq       []byte  // every message type received, in order
}

// Query runs one simple-protocol query and collects the full response
// cycle. The returned error is transport-level only; server-side errors
// land in Result.Err.
func (c *Conn) Query(sql string) (*Result, error) {
	if err := c.writeMsg('Q', appendCString(nil, sql)); err != nil {
		return nil, err
	}
	return c.Collect()
}

// Collect reads until ReadyForQuery, folding what it sees into a Result.
func (c *Conn) Collect() (*Result, error) {
	res := &Result{}
	for {
		m, err := c.ReadMsg()
		if err != nil {
			return res, err
		}
		res.Seq = append(res.Seq, m.Type)
		switch m.Type {
		case 'T':
			res.Cols = decodeRowDescription(m.Body)
		case 'D':
			res.Rows = append(res.Rows, decodeDataRow(m.Body))
		case 'C':
			res.Tags = append(res.Tags, firstCString(m.Body))
		case 'E':
			if res.Err == nil {
				res.Err = decodeError(m.Body)
			}
			if res.Err != nil && res.Err.Severity == "FATAL" {
				return res, nil // the server is closing this connection
			}
		case 'I':
			res.Empty = true
		case 's':
			res.Suspended = true
		case 'n':
			res.NoData = true
		case 't':
			res.ParamOIDs = decodeParamDescription(m.Body)
		case 'Z':
			if len(m.Body) > 0 {
				res.TxStatus = m.Body[0]
			}
			return res, nil
		case '1', '2', '3', 'S', 'K', 'N':
			// ParseComplete / BindComplete / CloseComplete /
			// ParameterStatus / key data / notice: recorded in Seq only.
		default:
			return res, fmt.Errorf("unexpected message %q", m.Type)
		}
	}
}

// ---------------------------------------------------------------------------
// Extended protocol senders

// SendParse issues Parse. oids may be nil.
func (c *Conn) SendParse(name, query string, oids []int32) error {
	var b []byte
	b = appendCString(b, name)
	b = appendCString(b, query)
	b = binary.BigEndian.AppendUint16(b, uint16(len(oids)))
	for _, o := range oids {
		b = binary.BigEndian.AppendUint32(b, uint32(o))
	}
	return c.writeMsg('P', b)
}

// SendBind issues Bind with all-text parameters; a nil element binds NULL.
func (c *Conn) SendBind(portal, stmt string, params []*string) error {
	var b []byte
	b = appendCString(b, portal)
	b = appendCString(b, stmt)
	b = binary.BigEndian.AppendUint16(b, 0) // param format codes: default text
	b = binary.BigEndian.AppendUint16(b, uint16(len(params)))
	for _, p := range params {
		if p == nil {
			b = binary.BigEndian.AppendUint32(b, 0xFFFFFFFF)
			continue
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(*p)))
		b = append(b, *p...)
	}
	b = binary.BigEndian.AppendUint16(b, 0) // result format codes: default text
	return c.writeMsg('B', b)
}

// SendDescribe issues Describe for kind 'S' (statement) or 'P' (portal).
func (c *Conn) SendDescribe(kind byte, name string) error {
	return c.writeMsg('D', appendCString([]byte{kind}, name))
}

// SendExecute issues Execute with a row limit (0 = no limit).
func (c *Conn) SendExecute(portal string, maxRows int32) error {
	b := appendCString(nil, portal)
	b = binary.BigEndian.AppendUint32(b, uint32(maxRows))
	return c.writeMsg('E', b)
}

// SendClose issues Close for kind 'S' or 'P'.
func (c *Conn) SendClose(kind byte, name string) error {
	return c.writeMsg('C', appendCString([]byte{kind}, name))
}

// SendFlush issues Flush.
func (c *Conn) SendFlush() error { return c.writeMsg('H', nil) }

// SendSync issues Sync.
func (c *Conn) SendSync() error { return c.writeMsg('S', nil) }

// ExtQuery runs sql through the unnamed prepared statement and portal —
// Parse, Bind, Describe, Execute, Sync — and collects the cycle.
func (c *Conn) ExtQuery(sql string, params ...*string) (*Result, error) {
	if err := c.SendParse("", sql, nil); err != nil {
		return nil, err
	}
	if err := c.SendBind("", "", params); err != nil {
		return nil, err
	}
	if err := c.SendDescribe('P', ""); err != nil {
		return nil, err
	}
	if err := c.SendExecute("", 0); err != nil {
		return nil, err
	}
	if err := c.SendSync(); err != nil {
		return nil, err
	}
	return c.Collect()
}

// Str is a convenience for building text parameters.
func Str(s string) *string { return &s }

// ---------------------------------------------------------------------------
// Decoders

func decodeRowDescription(b []byte) []string {
	if len(b) < 2 {
		return nil
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	cols := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name, rest := cutCString(b)
		cols = append(cols, name)
		if len(rest) < 18 {
			return cols
		}
		b = rest[18:] // table OID, attnum, type OID, typlen, typmod, format
	}
	return cols
}

func decodeDataRow(b []byte) []*string {
	if len(b) < 2 {
		return nil
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	row := make([]*string, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return row
		}
		l := int32(binary.BigEndian.Uint32(b))
		b = b[4:]
		if l < 0 {
			row = append(row, nil)
			continue
		}
		if int(l) > len(b) {
			return row
		}
		s := string(b[:l])
		row = append(row, &s)
		b = b[l:]
	}
	return row
}

func decodeParamDescription(b []byte) []int32 {
	if len(b) < 2 {
		return nil
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	oids := make([]int32, 0, n)
	for i := 0; i < n && len(b) >= 4; i++ {
		oids = append(oids, int32(binary.BigEndian.Uint32(b)))
		b = b[4:]
	}
	return oids
}

func decodeError(b []byte) *ServerError {
	e := &ServerError{}
	for len(b) > 0 && b[0] != 0 {
		field := b[0]
		val, rest := cutCString(b[1:])
		switch field {
		case 'S':
			e.Severity = val
		case 'C':
			e.Code = val
		case 'M':
			e.Message = val
		}
		b = rest
	}
	return e
}

func appendCString(b []byte, s string) []byte {
	return append(append(b, s...), 0)
}

func cutCString(b []byte) (string, []byte) {
	for i, c := range b {
		if c == 0 {
			return string(b[:i]), b[i+1:]
		}
	}
	return string(b), nil
}

func firstCString(b []byte) string {
	s, _ := cutCString(b)
	return s
}
