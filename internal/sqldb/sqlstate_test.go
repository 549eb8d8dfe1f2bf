package sqldb

import (
	"errors"
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"regexp"
	"strconv"
	"testing"
)

// The SQLSTATE mapping is wire contract: clients branch on the five
// characters in an ErrorResponse code field, so the mapping must be total
// (no classified code unmapped), injective (each code its own state), and
// frozen (states never silently change). This test enforces all three
// structurally: it enumerates the ErrorCode constants from the source of
// errors.go, so adding a new code without extending both sqlStates and
// the golden table below fails the build gate, not a customer.

// errorCodeConsts parses errors.go and returns every declared ErrorCode
// constant as name → string value.
func errorCodeConsts(t *testing.T) map[string]ErrorCode {
	t.Helper()
	fset := gotoken.NewFileSet()
	file, err := goparser.ParseFile(fset, "errors.go", nil, 0)
	if err != nil {
		t.Fatalf("parse errors.go: %v", err)
	}
	consts := make(map[string]ErrorCode)
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != gotoken.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			ident, ok := vs.Type.(*ast.Ident)
			if !ok || ident.Name != "ErrorCode" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != gotoken.STRING {
					t.Fatalf("%s: ErrorCode const is not a string literal", name.Name)
				}
				val, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatalf("%s: unquote %s: %v", name.Name, lit.Value, err)
				}
				consts[name.Name] = ErrorCode(val)
			}
		}
	}
	if len(consts) == 0 {
		t.Fatal("found no ErrorCode constants in errors.go; did the decl style change?")
	}
	return consts
}

// TestSQLStateMappingComplete: every classified ErrorCode maps to exactly
// the pinned SQLSTATE; no code is missing, none has drifted, and no two
// share a state. ErrUnknown is the deliberate exception — unclassified
// errors report the generic internal class via the fallback, not the map.
func TestSQLStateMappingComplete(t *testing.T) {
	golden := map[string]string{
		"ErrParse":      "42601",
		"ErrNoTable":    "42P01",
		"ErrNoColumn":   "42703",
		"ErrAmbiguous":  "42702",
		"ErrNoFunction": "42883",
		"ErrType":       "42804",
		"ErrConstraint": "23000",
		"ErrSchema":     "42P07",
		"ErrMisuse":     "42000",
		"ErrParams":     "08P01",
		"ErrCanceled":   "57014",
		"ErrCursor":     "24000",
		"ErrInternal":   "XX000",
		"ErrIO":         "58030",
		"ErrExternal":   "38000",
		"ErrCorrupt":    "XX001",
		"ErrTxnActive":  "25001",
		"ErrNoTxn":      "25P01",
		"ErrTxnFailed":  "25P02",
	}
	stateShape := regexp.MustCompile(`^[0-9A-Z]{5}$`)

	consts := errorCodeConsts(t)
	for name, code := range consts {
		if name == "ErrUnknown" {
			continue
		}
		want, pinned := golden[name]
		if !pinned {
			t.Errorf("%s is a new ErrorCode with no pinned SQLSTATE: map it in sqlStates and pin it here", name)
			continue
		}
		if _, ok := sqlStates[code]; !ok {
			t.Errorf("%s (%q) is missing from sqlStates: unmapped codes leak as XX000", name, code)
			continue
		}
		if got := code.SQLState(); got != want {
			t.Errorf("%s: SQLSTATE drifted from pinned contract: got %q, want %q", name, got, want)
		}
		if !stateShape.MatchString(code.SQLState()) {
			t.Errorf("%s: %q is not a well-formed SQLSTATE", name, code.SQLState())
		}
	}
	// The pin table may not reference codes that no longer exist.
	for name := range golden {
		if _, ok := consts[name]; !ok {
			t.Errorf("pinned code %s no longer declared in errors.go", name)
		}
	}
	// Injective: no two codes share a state.
	seen := make(map[string]ErrorCode)
	for code, state := range sqlStates {
		if prev, dup := seen[state]; dup {
			t.Errorf("SQLSTATE %q assigned to both %q and %q", state, prev, code)
		}
		seen[state] = code
	}
	// sqlStates may not contain entries for undeclared codes.
	declared := make(map[ErrorCode]bool, len(consts))
	for _, code := range consts {
		declared[code] = true
	}
	for code := range sqlStates {
		if !declared[code] {
			t.Errorf("sqlStates maps %q, which is not a declared ErrorCode", code)
		}
	}
}

// TestSQLStateFallback: everything unclassified — ErrUnknown, foreign
// errors, nil-adjacent junk — reports the generic internal class rather
// than a misleading specific state.
func TestSQLStateFallback(t *testing.T) {
	if got := ErrUnknown.SQLState(); got != "XX000" {
		t.Errorf("ErrUnknown: got %q, want XX000", got)
	}
	if got := ErrorCode("never_registered").SQLState(); got != "XX000" {
		t.Errorf("unregistered code: got %q, want XX000", got)
	}
	if got := SQLStateFor(errors.New("not an engine error")); got != "XX000" {
		t.Errorf("foreign error: got %q, want XX000", got)
	}
	// And a real engine error routes through its code's state.
	db := NewDatabase()
	defer db.Close()
	_, err := db.Query(`SELEC broken`)
	if err == nil {
		t.Fatal("expected a parse error")
	}
	if got := SQLStateFor(err); got != "42601" {
		t.Errorf("parse error: got %q, want 42601", got)
	}
}
