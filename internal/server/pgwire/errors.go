package pgwire

import (
	"context"
	"errors"

	"tag/internal/sqldb"
)

// This file classifies every error the session can hit into the
// (severity, SQLSTATE, message) triple the ErrorResponse carries. Engine
// errors go through sqldb.SQLStateFor — the single mapping table pinned
// by TestSQLStateMappingComplete — so the wire surface can never drift
// from the engine's typed error contract.

// wireError is an error the server reports to the client.
type wireError struct {
	severity string // ERROR or FATAL (FATAL implies the connection closes)
	sqlState string
	msg      string
}

func (e *wireError) Error() string { return e.msg }

func wireErrf(sqlState, msg string) *wireError {
	return &wireError{severity: "ERROR", sqlState: sqlState, msg: msg}
}

func fatalErrf(sqlState, msg string) *wireError {
	return &wireError{severity: "FATAL", sqlState: sqlState, msg: msg}
}

// SQLSTATEs for conditions that originate in the protocol layer rather
// than the engine.
const (
	stateProtocolViolation   = "08P01"
	stateFeatureNotSupported = "0A000"
	stateInvalidText         = "22P02" // parameter bytes not decodable as declared type
	stateUndefinedPrepared   = "26000"
	stateUndefinedCursor     = "34000"
	stateDuplicateCursor     = "42P03"
	stateDuplicatePrepared   = "42P05"
	stateInvalidPassword     = "28P01"
	stateTooManyConnections  = "53300"
	stateAdminShutdown       = "57P01"
	stateQueryCanceled       = "57014"
	stateInternal            = "XX000"
)

// toWireError classifies any error from statement execution. Context
// cancellation is folded into the engine's ErrCanceled state so a cancel
// that races ahead of the engine's own check still reports 57014.
func toWireError(err error) *wireError {
	var we *wireError
	if errors.As(err, &we) {
		return we
	}
	var pe *protocolError
	if errors.As(err, &pe) {
		return wireErrf(pe.sqlState, pe.msg)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return wireErrf(stateQueryCanceled, "canceling statement due to user request")
	}
	return wireErrf(sqldb.SQLStateFor(err), err.Error())
}
