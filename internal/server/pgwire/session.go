package pgwire

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"tag/internal/sqldb"
)

// session is one connection's protocol state machine. It owns the
// connection's transaction handle, prepared statements, and portals, and
// is driven single-threaded by run — the only cross-goroutine surface is
// the cancel set (hit by CancelRequest connections and by shutdown).
type session struct {
	srv *Server
	be  *backend
	db  *sqldb.Database

	pid    int32
	secret int32

	// tx is the explicit transaction opened by BEGIN, nil when idle.
	// txFailed marks the Postgres aborted-transaction discipline: after
	// any error inside an explicit transaction, every statement except
	// COMMIT/ROLLBACK is rejected with 25P02, and COMMIT rolls back.
	tx       *sqldb.Txn
	txFailed bool

	prepared map[string]*preparedStmt
	portals  map[string]*portal

	// skipToSync discards messages after an extended-protocol error until
	// the next Sync, per protocol.
	skipToSync bool

	// cancelMu guards the registry of in-flight statement contexts. A
	// CancelRequest (or forced shutdown) cancels all of them: the current
	// statement and any suspended portals' cursors.
	cancelMu   sync.Mutex
	cancels    map[int]context.CancelFunc
	nextCancel int
}

// preparedStmt is a named parse result. stmt is nil for the empty query
// (Execute answers EmptyQueryResponse).
type preparedStmt struct {
	sql       string
	stmt      sqldb.Statement
	numParams int
	paramOIDs []int32 // as declared by Parse; missing entries bind as text
}

// portal is a bound statement. For a SELECT the cursor opens lazily, at
// Describe or the first Execute, whichever comes first — so the snapshot is
// taken then, still after Bind, as PostgreSQL takes it at Bind — and stays
// open (holding its snapshot reference, with its context still
// cancel-registered) across PortalSuspended until the portal completes, is
// closed, or Sync destroys it. Describe and Execute share the one plan.
type portal struct {
	ps     *preparedStmt
	params []any
	rows   *sqldb.Rows
	unreg  func() // releases the cursor's cancel registration
	total  int    // rows streamed so far, for the final SELECT tag
}

// openCursor opens the portal's cursor, registered for cancellation, unless
// it is open already.
func (s *session) openCursor(p *portal, sel *sqldb.SelectStmt) error {
	if p.rows != nil {
		return nil
	}
	ctx, release := s.trackCtx()
	rows, err := s.db.QueryRowsStmt(ctx, sel, s.tx, p.params...)
	if err != nil {
		release()
		return err
	}
	p.rows, p.unreg = rows, release
	return nil
}

// closeCursor releases the portal's cursor and cancel registration, if
// any. Idempotent.
func (p *portal) closeCursor() {
	if p.rows != nil {
		p.rows.Close()
		p.rows = nil
	}
	if p.unreg != nil {
		p.unreg()
		p.unreg = nil
	}
}

func newSession(srv *Server, be *backend, pid, secret int32) *session {
	return &session{
		srv:      srv,
		be:       be,
		db:       srv.db,
		pid:      pid,
		secret:   secret,
		prepared: make(map[string]*preparedStmt),
		portals:  make(map[string]*portal),
		cancels:  make(map[int]context.CancelFunc),
	}
}

// trackCtx derives a cancellable statement context registered in the
// session's cancel set. The returned release is idempotent and must be
// called on every exit path; until then a CancelRequest reaches this
// context.
func (s *session) trackCtx() (context.Context, func()) {
	ctx, cancel := context.WithCancel(s.srv.baseCtx)
	s.cancelMu.Lock()
	id := s.nextCancel
	s.nextCancel++
	s.cancels[id] = cancel
	s.cancelMu.Unlock()
	var once sync.Once
	return ctx, func() {
		once.Do(func() {
			s.cancelMu.Lock()
			delete(s.cancels, id)
			s.cancelMu.Unlock()
			cancel()
		})
	}
}

// cancelAll fires every registered statement context. Safe from any
// goroutine; the owners unregister on their own exit paths.
func (s *session) cancelAll() {
	s.cancelMu.Lock()
	defer s.cancelMu.Unlock()
	for _, cancel := range s.cancels {
		cancel()
	}
}

// teardown releases everything the session holds, no matter how the
// connection died: open portals (cursors → snapshots), the explicit
// transaction (rolled back), and the cancel registry. The disconnect
// matrix kills connections at every protocol state and asserts the
// engine's snapshot/cursor/worker counters all return to zero — this is
// the code under test.
func (s *session) teardown() {
	s.cancelAll()
	for name, p := range s.portals {
		p.closeCursor()
		delete(s.portals, name)
	}
	if s.tx != nil {
		s.tx.Rollback()
		s.tx = nil
	}
}

// txStatus is the ReadyForQuery status byte.
func (s *session) txStatus() byte {
	switch {
	case s.tx == nil:
		return 'I'
	case s.txFailed:
		return 'E'
	default:
		return 'T'
	}
}

// run drives the post-handshake message loop. It returns when the client
// terminates or disconnects, on a fatal protocol error (reported first),
// or when the server drains.
func (s *session) run() {
	for {
		if s.srv.draining() {
			s.be.errorResponse("FATAL", stateAdminShutdown, "terminating connection due to administrator command")
			s.be.flush()
			return
		}
		typ, payload, err := readMessage(s.be.conn)
		if err != nil {
			if s.srv.draining() {
				s.be.errorResponse("FATAL", stateAdminShutdown, "terminating connection due to administrator command")
				s.be.flush()
				return
			}
			if pe, ok := err.(*protocolError); ok {
				s.be.errorResponse("FATAL", pe.sqlState, pe.msg)
				s.be.flush()
			}
			return // disconnect or unreadable stream
		}
		if s.skipToSync && typ != msgSync && typ != msgTerminate {
			continue
		}
		var fatal error
		switch typ {
		case msgQuery:
			fatal = s.handleQuery(payload)
		case msgParse:
			fatal = s.handleParse(payload)
		case msgBind:
			fatal = s.handleBind(payload)
		case msgDescribe:
			fatal = s.handleDescribe(payload)
		case msgExecute:
			fatal = s.handleExecute(payload)
		case msgClose:
			fatal = s.handleClose(payload)
		case msgFlush:
			fatal = s.be.flush()
		case msgSync:
			fatal = s.handleSync()
		case msgTerminate:
			return
		default:
			s.be.errorResponse("FATAL", stateProtocolViolation,
				fmt.Sprintf("unknown message type %q", typ))
			s.be.flush()
			return
		}
		if fatal != nil {
			if pe, ok := fatal.(*protocolError); ok {
				s.be.errorResponse("FATAL", pe.sqlState, pe.msg)
				s.be.flush()
			}
			return
		}
	}
}

// reportError sends an ErrorResponse and applies the aborted-transaction
// discipline: any error inside an explicit transaction moves it to the
// failed state.
func (s *session) reportError(err error) error {
	we := toWireError(err)
	if s.tx != nil {
		s.txFailed = true
	}
	return s.be.errorResponse(we.severity, we.sqlState, we.msg)
}

// extErr reports an extended-protocol error and discards messages until
// Sync. The ErrorResponse goes out at once, as Postgres sends it: a Flush
// the client pipelined behind the failing message is among the discarded,
// and a client waiting on it would otherwise wait forever.
func (s *session) extErr(err error) error {
	s.skipToSync = true
	if err := s.reportError(err); err != nil {
		return err
	}
	return s.be.flush()
}

// emptyQuery reports whether sql contains no statements (whitespace and
// bare semicolons only) — the protocol answers EmptyQueryResponse instead
// of a parse error.
func emptyQuery(sql string) bool {
	return strings.TrimLeft(sql, " \t\r\n;") == ""
}

// ---------------------------------------------------------------------------
// Simple query

func (s *session) handleQuery(payload []byte) error {
	r := msgReader{buf: payload}
	sql := r.cstring()
	if r.err != nil {
		return r.err
	}
	if emptyQuery(sql) {
		if err := s.be.emptyQueryResponse(); err != nil {
			return err
		}
		return s.be.readyForQuery(s.txStatus())
	}
	stmts, err := s.db.ParseCached(sql)
	if err != nil {
		if err := s.reportError(err); err != nil {
			return err
		}
		return s.be.readyForQuery(s.txStatus())
	}
	for _, stmt := range stmts {
		if err := s.execSimple(stmt); err != nil {
			if _, ok := err.(*execError); !ok {
				return err // connection-level failure
			}
			break // statement error already reported; stop the batch
		}
	}
	return s.be.readyForQuery(s.txStatus())
}

// execError wraps a statement-level failure that has already been
// reported to the client — the simple-query loop stops the batch, the
// connection survives.
type execError struct{ err error }

func (e *execError) Error() string { return e.err.Error() }

// execSimple runs one statement of a simple query, streaming its full
// result.
func (s *session) execSimple(stmt sqldb.Statement) error {
	if s.txFailed && !isTxnEnd(stmt) {
		if err := s.reportError(wireErrf(stateFailedTransaction,
			"current transaction is aborted, commands ignored until end of transaction block")); err != nil {
			return err
		}
		return &execError{err: errFailedTxn}
	}
	sel, isSel := stmt.(*sqldb.SelectStmt)
	if !isSel {
		tag, err := s.execNonSelect(stmt, nil)
		if err != nil {
			if err := s.reportError(err); err != nil {
				return err
			}
			return &execError{err: err}
		}
		return s.be.commandComplete(tag)
	}
	ctx, release := s.trackCtx()
	defer release()
	rows, err := s.db.QueryRowsStmt(ctx, sel, s.tx)
	if err != nil {
		if err := s.reportError(err); err != nil {
			return err
		}
		return &execError{err: err}
	}
	defer rows.Close()
	if err := s.be.rowDescription(rows.Columns()); err != nil {
		return err
	}
	n := 0
	for rows.Next() {
		if err := s.be.dataRow(rows.Row()); err != nil {
			return err
		}
		n++
	}
	if err := rows.Err(); err != nil {
		if err := s.reportError(err); err != nil {
			return err
		}
		return &execError{err: err}
	}
	return s.be.commandComplete("SELECT " + strconv.Itoa(n))
}

var errFailedTxn = wireErrf(stateFailedTransaction, "transaction is aborted")

func isTxnEnd(stmt sqldb.Statement) bool {
	switch stmt.(type) {
	case *sqldb.CommitStmt, *sqldb.RollbackStmt:
		return true
	}
	return false
}

// execNonSelect executes any non-SELECT statement and returns its command
// tag. BEGIN/COMMIT/ROLLBACK are intercepted here and mapped onto the
// session's explicit Txn handle — they never reach the engine's shared
// SQL-level session transaction.
func (s *session) execNonSelect(stmt sqldb.Statement, params []any) (string, error) {
	switch stmt.(type) {
	case *sqldb.BeginStmt:
		if s.tx != nil {
			return "", wireErrf("25001", "there is already a transaction in progress")
		}
		s.tx = s.db.Begin()
		s.txFailed = false
		return "BEGIN", nil
	case *sqldb.CommitStmt:
		if s.tx == nil {
			return "", wireErrf(stateNoActiveTransaction, "there is no transaction in progress")
		}
		tx := s.tx
		s.tx = nil
		if s.txFailed {
			// COMMIT of a failed transaction rolls back, per Postgres.
			s.txFailed = false
			tx.Rollback()
			return "ROLLBACK", nil
		}
		if err := tx.Commit(); err != nil {
			return "", err
		}
		return "COMMIT", nil
	case *sqldb.RollbackStmt:
		if s.tx == nil {
			return "", wireErrf(stateNoActiveTransaction, "there is no transaction in progress")
		}
		tx := s.tx
		s.tx = nil
		s.txFailed = false
		tx.Rollback()
		return "ROLLBACK", nil
	}
	ctx, release := s.trackCtx()
	defer release()
	n, err := s.db.ExecStmtTx(ctx, stmt, s.tx, params...)
	if err != nil {
		return "", err
	}
	return cmdTag(stmt, n), nil
}

func cmdTag(stmt sqldb.Statement, n int) string {
	switch stmt.(type) {
	case *sqldb.InsertStmt:
		return "INSERT 0 " + strconv.Itoa(n)
	case *sqldb.UpdateStmt:
		return "UPDATE " + strconv.Itoa(n)
	case *sqldb.DeleteStmt:
		return "DELETE " + strconv.Itoa(n)
	case *sqldb.CreateTableStmt:
		return "CREATE TABLE"
	case *sqldb.CreateIndexStmt:
		return "CREATE INDEX"
	case *sqldb.DropTableStmt:
		return "DROP TABLE"
	default:
		return "OK"
	}
}

// ---------------------------------------------------------------------------
// Extended protocol

func (s *session) handleParse(payload []byte) error {
	r := msgReader{buf: payload}
	name := r.cstring()
	query := r.cstring()
	nOIDs := r.int16()
	oids := make([]int32, 0, nOIDs)
	for i := 0; i < nOIDs; i++ {
		oids = append(oids, r.int32())
	}
	if r.err != nil {
		return r.err
	}
	if name != "" {
		if _, dup := s.prepared[name]; dup {
			return s.extErr(wireErrf(stateDuplicatePrepared,
				fmt.Sprintf("prepared statement %q already exists", name)))
		}
	}
	ps := &preparedStmt{sql: query, paramOIDs: oids}
	if !emptyQuery(query) {
		stmts, err := s.db.ParseCached(query)
		if err != nil {
			return s.extErr(err)
		}
		if len(stmts) > 1 {
			return s.extErr(wireErrf("42601",
				"cannot insert multiple commands into a prepared statement"))
		}
		ps.stmt = stmts[0]
		ps.numParams = sqldb.NumParams(stmts[0])
	}
	s.prepared[name] = ps
	return s.be.parseComplete()
}

func (s *session) handleBind(payload []byte) error {
	r := msgReader{buf: payload}
	portalName := r.cstring()
	stmtName := r.cstring()
	nFmt := r.int16()
	fmts := make([]int, 0, nFmt)
	for i := 0; i < nFmt; i++ {
		fmts = append(fmts, r.int16())
	}
	nParams := r.int16()
	raw := make([][]byte, 0, nParams) // nil element = NULL
	for i := 0; i < nParams; i++ {
		l := r.int32()
		if l == -1 {
			raw = append(raw, nil)
			continue
		}
		b := r.bytes(int(l))
		if b == nil {
			b = []byte{}
		}
		raw = append(raw, b)
	}
	nResFmt := r.int16()
	resFmts := make([]int, 0, nResFmt)
	for i := 0; i < nResFmt; i++ {
		resFmts = append(resFmts, r.int16())
	}
	if r.err != nil {
		return r.err
	}
	for _, f := range fmts {
		if f != 0 {
			return s.extErr(wireErrf(stateFeatureNotSupported,
				"binary parameter format is not supported"))
		}
	}
	for _, f := range resFmts {
		if f != 0 {
			return s.extErr(wireErrf(stateFeatureNotSupported,
				"binary result format is not supported"))
		}
	}
	ps, ok := s.prepared[stmtName]
	if !ok {
		return s.extErr(wireErrf(stateUndefinedPrepared,
			fmt.Sprintf("prepared statement %q does not exist", stmtName)))
	}
	if len(raw) != ps.numParams {
		return s.extErr(wireErrf(stateProtocolViolation, fmt.Sprintf(
			"bind message supplies %d parameters, but prepared statement %q requires %d",
			len(raw), stmtName, ps.numParams)))
	}
	params := make([]any, len(raw))
	for i, b := range raw {
		v, err := decodeParam(b, paramOID(ps.paramOIDs, i))
		if err != nil {
			return s.extErr(err)
		}
		params[i] = v
	}
	if old, dup := s.portals[portalName]; dup {
		if portalName != "" {
			return s.extErr(wireErrf(stateDuplicateCursor,
				fmt.Sprintf("portal %q already exists", portalName)))
		}
		old.closeCursor() // rebinding the unnamed portal replaces it
	}
	s.portals[portalName] = &portal{ps: ps, params: params}
	return s.be.bindComplete()
}

func paramOID(oids []int32, i int) int32 {
	if i < len(oids) {
		return oids[i]
	}
	return 0
}

// decodeParam turns one text-format parameter into the Go value the
// engine binds. NULL (nil) passes through; the declared OID picks the
// target type, anything undeclared or unrecognised binds as text.
func decodeParam(b []byte, oid int32) (any, error) {
	if b == nil {
		return nil, nil
	}
	s := string(b)
	switch oid {
	case int8OID, int2OID, int4OID:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, wireErrf(stateInvalidText,
				fmt.Sprintf("invalid input syntax for integer: %q", s))
		}
		return n, nil
	case float4OID, float8OID:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, wireErrf(stateInvalidText,
				fmt.Sprintf("invalid input syntax for double precision: %q", s))
		}
		return f, nil
	case numericOID:
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n, nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, wireErrf(stateInvalidText,
				fmt.Sprintf("invalid input syntax for numeric: %q", s))
		}
		return f, nil
	case boolOID:
		switch strings.ToLower(s) {
		case "t", "true", "on", "1", "yes":
			return true, nil
		case "f", "false", "off", "0", "no":
			return false, nil
		}
		return nil, wireErrf(stateInvalidText,
			fmt.Sprintf("invalid input syntax for boolean: %q", s))
	default:
		return s, nil
	}
}

func (s *session) handleDescribe(payload []byte) error {
	r := msgReader{buf: payload}
	kind := r.int8()
	name := r.cstring()
	if r.err != nil {
		return r.err
	}
	switch kind {
	case 'S':
		ps, ok := s.prepared[name]
		if !ok {
			return s.extErr(wireErrf(stateUndefinedPrepared,
				fmt.Sprintf("prepared statement %q does not exist", name)))
		}
		oids := make([]int32, ps.numParams)
		copy(oids, ps.paramOIDs)
		if err := s.be.parameterDescription(oids); err != nil {
			return err
		}
		return s.describeResult(ps)
	case 'P':
		p, ok := s.portals[name]
		if !ok {
			return s.extErr(wireErrf(stateUndefinedCursor,
				fmt.Sprintf("portal %q does not exist", name)))
		}
		sel, isSel := p.ps.stmt.(*sqldb.SelectStmt)
		if !isSel {
			return s.be.noData()
		}
		if err := s.openCursor(p, sel); err != nil {
			return s.extErr(err)
		}
		return s.be.rowDescription(p.rows.Columns())
	default:
		return protoErrf("invalid Describe kind %q", kind)
	}
}

// describeResult reports the result shape of a prepared statement. For a
// SELECT the shape comes from a probe plan: the statement is planned
// against all-NULL placeholders and the cursor closed before reading a row
// — plans are cheap, and this keeps column naming in one place (the
// planner) instead of duplicating it here.
func (s *session) describeResult(ps *preparedStmt) error {
	sel, isSel := ps.stmt.(*sqldb.SelectStmt)
	if !isSel {
		return s.be.noData()
	}
	ctx, release := s.trackCtx()
	defer release()
	rows, err := s.db.QueryRowsStmt(ctx, sel, s.tx, make([]any, ps.numParams)...)
	if err != nil {
		return s.extErr(err)
	}
	cols := rows.Columns()
	rows.Close()
	return s.be.rowDescription(cols)
}

func (s *session) handleExecute(payload []byte) error {
	r := msgReader{buf: payload}
	name := r.cstring()
	maxRows := int(r.int32())
	if r.err != nil {
		return r.err
	}
	p, ok := s.portals[name]
	if !ok {
		return s.extErr(wireErrf(stateUndefinedCursor,
			fmt.Sprintf("portal %q does not exist", name)))
	}
	if p.ps.stmt == nil {
		return s.be.emptyQueryResponse()
	}
	if s.txFailed && !isTxnEnd(p.ps.stmt) {
		return s.extErr(wireErrf(stateFailedTransaction,
			"current transaction is aborted, commands ignored until end of transaction block"))
	}
	sel, isSel := p.ps.stmt.(*sqldb.SelectStmt)
	if !isSel {
		tag, err := s.execNonSelect(p.ps.stmt, p.params)
		if err != nil {
			return s.extErr(err)
		}
		return s.be.commandComplete(tag)
	}
	if err := s.openCursor(p, sel); err != nil {
		return s.extErr(err)
	}
	sent := 0
	for maxRows <= 0 || sent < maxRows {
		if !p.rows.Next() {
			break
		}
		if err := s.be.dataRow(p.rows.Row()); err != nil {
			p.closeCursor()
			return err
		}
		sent++
		p.total++
	}
	if err := p.rows.Err(); err != nil {
		p.closeCursor()
		return s.extErr(err)
	}
	if maxRows > 0 && sent == maxRows {
		// The row limit stopped us; the portal stays open (its cursor
		// still holds the snapshot and remains cancellable) until the
		// next Execute, an explicit Close, or Sync.
		return s.be.portalSuspended()
	}
	total := p.total
	p.closeCursor()
	return s.be.commandComplete("SELECT " + strconv.Itoa(total))
}

func (s *session) handleClose(payload []byte) error {
	r := msgReader{buf: payload}
	kind := r.int8()
	name := r.cstring()
	if r.err != nil {
		return r.err
	}
	switch kind {
	case 'S':
		delete(s.prepared, name) // closing a missing statement is not an error
	case 'P':
		if p, ok := s.portals[name]; ok {
			p.closeCursor()
			delete(s.portals, name)
		}
	default:
		return protoErrf("invalid Close kind %q", kind)
	}
	return s.be.closeComplete()
}

// handleSync ends an extended-protocol cycle: every portal is destroyed
// (cursors closed, snapshots released — this server's documented
// tightening of Postgres's portal lifetime), the error-skip state clears,
// and ReadyForQuery reports the transaction status.
func (s *session) handleSync() error {
	for name, p := range s.portals {
		p.closeCursor()
		delete(s.portals, name)
	}
	s.skipToSync = false
	return s.be.readyForQuery(s.txStatus())
}
