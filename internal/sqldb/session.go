package sqldb

import (
	"context"
	"strconv"
)

// Session is one client's statement stream over the database, the one
// place where BEGIN, COMMIT and ROLLBACK are statements: the tagsql shell
// and each wire connection hold one and render what it returns. It keeps
// the transaction BEGIN opened and PostgreSQL's rules for it:
//
//   - BEGIN inside a transaction is refused (ErrTxnActive, 25001), and
//     COMMIT or ROLLBACK with none open is refused (ErrNoTxn, 25P01).
//   - Any error inside a transaction fails it. A failed transaction
//     refuses every statement but COMMIT and ROLLBACK (ErrTxnFailed,
//     25P02), and its COMMIT rolls back and returns the tag ROLLBACK.
//
// Every other statement runs in the open transaction, or as autocommit
// when none is open. A Session is used by one goroutine at a time.
type Session struct {
	db     *Database
	tx     *Txn // opened by BEGIN, nil between transactions
	failed bool // an error met tx; only COMMIT and ROLLBACK may follow
}

// NewSession returns a session with no transaction open.
func (db *Database) NewSession() *Session { return &Session{db: db} }

// Exec runs one parsed statement other than a SELECT in the session and
// returns its command tag, as PostgreSQL names it ("INSERT 0 1", "BEGIN").
func (s *Session) Exec(ctx context.Context, stmt Statement, params ...any) (string, error) {
	switch stmt.(type) {
	case *CommitStmt, *RollbackStmt:
		tx := s.tx
		if tx == nil {
			return "", errf(ErrNoTxn, "there is no transaction in progress")
		}
		s.tx = nil
		if _, ok := stmt.(*RollbackStmt); ok || s.failed {
			s.failed = false
			return "ROLLBACK", tx.Rollback()
		}
		return "COMMIT", tx.Commit()
	}
	if err := s.admit(); err != nil {
		return "", err
	}
	if _, ok := stmt.(*BeginStmt); ok {
		if s.tx != nil {
			return "", s.Fail(errf(ErrTxnActive, "there is already a transaction in progress"))
		}
		s.tx = s.db.Begin()
		return "BEGIN", nil
	}
	n, err := s.db.execAll(ctx, []Statement{stmt}, bindParams(params), s.tx)
	if err != nil {
		return "", s.Fail(err)
	}
	return cmdTag(stmt, n), nil
}

// Query opens a streaming cursor over a parsed SELECT in the session. The
// cursor lends its rows: each is built in a reused buffer and valid until
// the next Next, so a caller encodes it first (Collect copies). It holds
// its own snapshot reference until Close, which the caller owes on every
// path.
func (s *Session) Query(ctx context.Context, sel *SelectStmt, params ...any) (*Rows, error) {
	if err := s.admit(); err != nil {
		return nil, err
	}
	rows, err := s.db.queryRows(ctx, sel, bindParams(params), s.tx, nil, true)
	if err != nil {
		return nil, s.Fail(err)
	}
	return rows, nil
}

// Fail marks an open transaction failed if err is not nil, and returns
// err. Exec and Query apply it to the errors they return; a caller applies
// it to an error met outside them: a parse error, a parameter that does not
// decode, or a cursor's Err in the middle of a stream.
func (s *Session) Fail(err error) error {
	if err != nil && s.tx != nil {
		s.failed = true
	}
	return err
}

// admit refuses a statement in a failed transaction.
func (s *Session) admit() error {
	if s.failed {
		return errf(ErrTxnFailed, "current transaction is aborted, commands ignored until end of transaction block")
	}
	return nil
}

// Status reports the transaction state as the wire's ReadyForQuery
// carries it: 'I' with none open, 'T' in one, 'E' in a failed one.
func (s *Session) Status() byte {
	switch {
	case s.tx == nil:
		return 'I'
	case s.failed:
		return 'E'
	default:
		return 'T'
	}
}

// Close rolls back an open transaction. The session stays usable.
func (s *Session) Close() {
	if s.tx != nil {
		s.tx.Rollback()
		s.tx, s.failed = nil, false
	}
}

// cmdTag is a statement's command tag, n being the rows it affected.
func cmdTag(stmt Statement, n int) string {
	switch stmt.(type) {
	case *InsertStmt:
		return "INSERT 0 " + strconv.Itoa(n)
	case *UpdateStmt:
		return "UPDATE " + strconv.Itoa(n)
	case *DeleteStmt:
		return "DELETE " + strconv.Itoa(n)
	case *CreateTableStmt:
		return "CREATE TABLE"
	case *CreateIndexStmt:
		return "CREATE INDEX"
	case *DropTableStmt:
		return "DROP TABLE"
	default:
		return "OK"
	}
}
