package sqldb

import "fmt"

// This file defines the engine's typed error API. Every error the engine
// returns is (or wraps) an *Error carrying a stable machine-readable code,
// so callers branch on error kind with errors.As/errors.Is instead of
// matching message text:
//
//	var se *sqldb.Error
//	if errors.As(err, &se) && se.Code == sqldb.ErrNoTable { ... }
//	if errors.Is(err, &sqldb.Error{Code: sqldb.ErrParse}) { ... }
//
// Message text is presentation, not contract; only codes are stable.

// ErrorCode classifies an engine error. The string values are stable and
// suitable for logs and metrics labels.
type ErrorCode string

const (
	// ErrUnknown is the zero code: an error that has not been classified.
	ErrUnknown ErrorCode = "unknown"
	// ErrParse marks syntax errors (the wrapped cause is a *ParseError
	// carrying the source position).
	ErrParse ErrorCode = "parse"
	// ErrNoTable marks references to tables that do not exist.
	ErrNoTable ErrorCode = "no_table"
	// ErrNoColumn marks references to columns that do not exist.
	ErrNoColumn ErrorCode = "no_column"
	// ErrAmbiguous marks column references that match more than one input
	// column.
	ErrAmbiguous ErrorCode = "ambiguous_column"
	// ErrNoFunction marks calls to unregistered functions.
	ErrNoFunction ErrorCode = "no_function"
	// ErrType marks type errors during evaluation (bad operands, casts).
	ErrType ErrorCode = "type"
	// ErrConstraint marks NOT NULL and UNIQUE constraint violations.
	ErrConstraint ErrorCode = "constraint"
	// ErrSchema marks DDL conflicts (table already exists, duplicate
	// column, dropping a missing table).
	ErrSchema ErrorCode = "schema"
	// ErrMisuse marks structurally invalid statements that parse: aggregate
	// misuse, '*' outside a select list, wrong argument counts, executing a
	// non-SELECT where a SELECT is required, arity mismatches on INSERT.
	ErrMisuse ErrorCode = "misuse"
	// ErrParams marks executions with fewer bound parameters than the
	// statement references.
	ErrParams ErrorCode = "params"
	// ErrCanceled marks queries stopped by context cancellation or
	// deadline; the wrapped cause is the context's error, so
	// errors.Is(err, context.Canceled) also matches.
	ErrCanceled ErrorCode = "canceled"
	// ErrCursor marks misuse of a Rows cursor (Scan without Next, scanning
	// into the wrong number or type of destinations).
	ErrCursor ErrorCode = "cursor"
	// ErrInternal marks invariant violations inside the engine.
	ErrInternal ErrorCode = "internal"
	// ErrIO marks durability-layer failures: WAL append, fsync, checkpoint,
	// or recovery I/O errors, including a log poisoned by an earlier failed
	// write. The in-memory state stays consistent and queryable; only
	// persistence is compromised. The wrapped cause is the underlying
	// filesystem error.
	ErrIO ErrorCode = "io"
	// ErrExternal marks a failed element of a batch call into a function the
	// caller lent the statement (FuncSet). The wrapped cause is its error, so
	// errors.Is still finds a context-length overflow or a cancellation.
	ErrExternal ErrorCode = "external_routine"
	// ErrCorrupt marks stored data that does not decode: a sealed block —
	// the only copy of its rows — whose bytes are damaged. The statement
	// fails; the database and the session stay up.
	ErrCorrupt ErrorCode = "data_corrupted"
	// ErrTxnActive marks a BEGIN in a Session with a transaction open.
	ErrTxnActive ErrorCode = "active_transaction"
	// ErrNoTxn marks a COMMIT or ROLLBACK in a Session with none open.
	ErrNoTxn ErrorCode = "no_active_transaction"
	// ErrTxnFailed marks a statement a Session refuses because an earlier
	// error failed its transaction; only COMMIT or ROLLBACK ends it.
	ErrTxnFailed ErrorCode = "failed_transaction"
)

// sqlStates maps every classified ErrorCode to the SQLSTATE the wire
// protocol reports for it (ErrorResponse code field). The values are part
// of the server's stable contract — clients branch on them — and every
// code maps to a distinct state, pinned by TestSQLStateMappingComplete so
// a new ErrorCode cannot ship unmapped. ErrUnknown is deliberately absent:
// unclassified errors fall back to the generic internal class ("XX000")
// via SQLState's default, exactly like non-engine errors.
var sqlStates = map[ErrorCode]string{
	ErrParse:      "42601", // syntax_error
	ErrNoTable:    "42P01", // undefined_table
	ErrNoColumn:   "42703", // undefined_column
	ErrAmbiguous:  "42702", // ambiguous_column
	ErrNoFunction: "42883", // undefined_function
	ErrType:       "42804", // datatype_mismatch
	ErrConstraint: "23000", // integrity_constraint_violation
	ErrSchema:     "42P07", // duplicate_table
	ErrMisuse:     "42000", // syntax_error_or_access_rule_violation
	ErrParams:     "08P01", // protocol_violation (parameter count mismatch)
	ErrCanceled:   "57014", // query_canceled
	ErrCursor:     "24000", // invalid_cursor_state
	ErrInternal:   "XX000", // internal_error
	ErrIO:         "58030", // io_error
	ErrExternal:   "38000", // external_routine_exception
	ErrCorrupt:    "XX001", // data_corrupted
	ErrTxnActive:  "25001", // active_sql_transaction
	ErrNoTxn:      "25P01", // no_active_sql_transaction
	ErrTxnFailed:  "25P02", // in_failed_sql_transaction
}

// SQLState returns the five-character SQLSTATE the wire protocol reports
// for this code. Unmapped codes (including ErrUnknown) report the generic
// internal class "XX000".
func (c ErrorCode) SQLState() string {
	if s, ok := sqlStates[c]; ok {
		return s
	}
	return "XX000"
}

// SQLStateFor classifies any error into a SQLSTATE: the code's mapped
// state for engine errors, "XX000" for everything else.
func SQLStateFor(err error) string { return CodeOf(err).SQLState() }

// Error is the engine's error type: a stable code plus a human-readable
// message, optionally wrapping a cause (a *ParseError, a context error).
type Error struct {
	Code ErrorCode
	Msg  string
	// Cause is the underlying error, if any; it is reachable through
	// errors.Unwrap / errors.Is / errors.As.
	Cause error
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Msg }

// Unwrap exposes the cause to the errors package.
func (e *Error) Unwrap() error { return e.Cause }

// Is reports whether target is an *Error with the same code, which makes
// code-only probes work: errors.Is(err, &Error{Code: ErrNoTable}).
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	if !ok {
		return false
	}
	return t.Code == e.Code && (t.Msg == "" || t.Msg == e.Msg)
}

// errf builds an *Error with a formatted message.
func errf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// wrapErr classifies an arbitrary error under code, preserving it as the
// cause. Errors that are already *Error pass through untouched so the most
// specific code wins.
func wrapErr(code ErrorCode, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*Error); ok {
		return err
	}
	return &Error{Code: code, Msg: err.Error(), Cause: err}
}

// CodeOf extracts the ErrorCode from any error produced by the engine,
// unwrapping as needed. Non-engine errors report ErrUnknown.
func CodeOf(err error) ErrorCode {
	for err != nil {
		if e, ok := err.(*Error); ok {
			return e.Code
		}
		if _, ok := err.(*ParseError); ok {
			return ErrParse
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return ErrUnknown
		}
		err = u.Unwrap()
	}
	return ErrUnknown
}
