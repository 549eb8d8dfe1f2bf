package sqldb

import (
	"context"
	"math"
	"strings"
)

// ScalarFunc is the row-at-a-time form of a SQL function. Args arrive
// already evaluated; implementations must be pure with respect to their
// arguments (the planner may cache or reorder calls).
type ScalarFunc func(args []Value) (Value, error)

// BatchFunc is the batch form: one call answers many argument tuples.
// Results align with args; errs is nil when every element succeeded, and a
// non-nil element fails the statement when the row that asked for it is
// evaluated. ctx is the context of the statement making the call, so a
// cancelled request stops its own calls and nobody else's. The engine
// hands a BatchFunc each distinct tuple of a statement at most once
// (CallMemo, batchcall.go), and the tuples stay the engine's: read them.
type BatchFunc func(ctx context.Context, args [][]Value) ([]Value, []error)

// Func is one SQL function: its arity and exactly one of the two forms.
// A call with fewer than MinArgs or more than MaxArgs arguments (MaxArgs <
// 0: no upper bound) is an ErrMisuse, whichever form would have run. A
// Strict scalar function is NULL of a NULL argument without being called.
type Func struct {
	MinArgs, MaxArgs int
	Strict           bool
	Scalar           ScalarFunc
	Batch            BatchFunc
}

// FuncSet is a set of functions lent to statements on top of the
// built-ins: the TAG layer's LM functions (LLM_FILTER, LLM_SCORE, LLM_MAP),
// which is how semantic predicates run inside exec(). name arrives
// upper-cased. A statement sees one FuncSet: the one its context carries
// (WithFuncs) — a request's own binding, which concurrent requests can
// neither see nor replace — else the one its database was opened with
// (SetFuncs). Built-in names are resolved first and cannot be shadowed.
type FuncSet interface {
	LookupFunc(name string) (Func, bool)
}

type funcSetKey struct{}

// WithFuncs returns a context whose statements call fs's functions.
func WithFuncs(ctx context.Context, fs FuncSet) context.Context {
	return context.WithValue(ctx, funcSetKey{}, fs)
}

// lookupFunc resolves a call for one statement: the immutable built-ins,
// then the statement's FuncSet.
func (qc *queryCtx) lookupFunc(name string) (Func, bool) {
	if f, ok := builtins[name]; ok {
		return f, true
	}
	if qc == nil || qc.lent == nil {
		return Func{}, false
	}
	return qc.lent.set.LookupFunc(name)
}

// callsBatchFunc reports whether e calls a function in batch form — the
// calls the planner gathers a window of rows for (filterOp, exec.go). Nested
// SELECTs are not entered: they plan their own. A statement with no FuncSet
// makes no such call, and is not walked.
func (qc *queryCtx) callsBatchFunc(e Expr) bool {
	if qc == nil || qc.lent == nil {
		return false
	}
	found := false
	walkExpr(e, func(x Expr) bool {
		if fc, ok := x.(*FuncCall); ok && !isAggregateName(fc.Name) {
			f, _ := qc.lookupFunc(fc.Name)
			found = found || f.Batch != nil
		}
		return !found
	})
	return found
}

// builtins are the functions every statement can call. The table is built
// once and never written to.
var builtins = map[string]Func{
	"UPPER": {MinArgs: 1, MaxArgs: 1, Strict: true, Scalar: func(args []Value) (Value, error) {
		return Text(strings.ToUpper(args[0].AsText())), nil
	}},
	"LOWER": {MinArgs: 1, MaxArgs: 1, Strict: true, Scalar: func(args []Value) (Value, error) {
		return Text(strings.ToLower(args[0].AsText())), nil
	}},
	"LENGTH": {MinArgs: 1, MaxArgs: 1, Strict: true, Scalar: func(args []Value) (Value, error) {
		return Int(int64(len([]rune(args[0].AsText())))), nil
	}},
	"SUBSTR": {MinArgs: 2, MaxArgs: 3, Scalar: func(args []Value) (Value, error) {
		if args[0].IsNull() {
			return Null, nil
		}
		runes := []rune(args[0].AsText())
		start := int(args[1].AsInt())
		// SQL SUBSTR is 1-based; negative counts from the end.
		if start > 0 {
			start--
		} else if start < 0 {
			start = len(runes) + start
			if start < 0 {
				start = 0
			}
		}
		if start >= len(runes) {
			return Text(""), nil
		}
		end := len(runes)
		if len(args) == 3 {
			n := int(args[2].AsInt())
			if n < 0 {
				n = 0
			}
			if start+n < end {
				end = start + n
			}
		}
		return Text(string(runes[start:end])), nil
	}},
	"TRIM": {MinArgs: 1, MaxArgs: 2, Scalar: func(args []Value) (Value, error) {
		if args[0].IsNull() {
			return Null, nil
		}
		cut := " \t\r\n"
		if len(args) == 2 {
			cut = args[1].AsText()
		}
		return Text(strings.Trim(args[0].AsText(), cut)), nil
	}},
	"REPLACE": {MinArgs: 3, MaxArgs: 3, Strict: true, Scalar: func(args []Value) (Value, error) {
		return Text(strings.ReplaceAll(args[0].AsText(), args[1].AsText(), args[2].AsText())), nil
	}},
	"INSTR": {MinArgs: 2, MaxArgs: 2, Strict: true, Scalar: func(args []Value) (Value, error) {
		return Int(int64(strings.Index(args[0].AsText(), args[1].AsText()) + 1)), nil
	}},
	"ABS": {MinArgs: 1, MaxArgs: 1, Strict: true, Scalar: func(args []Value) (Value, error) {
		v := args[0]
		if v.Kind() == KindInt {
			n := v.AsInt()
			if n < 0 {
				n = -n
			}
			return Int(n), nil
		}
		return Float(math.Abs(v.AsFloat())), nil
	}},
	"ROUND": {MinArgs: 1, MaxArgs: 2, Scalar: func(args []Value) (Value, error) {
		if args[0].IsNull() {
			return Null, nil
		}
		digits := 0
		if len(args) == 2 {
			digits = int(args[1].AsInt())
		}
		scale := math.Pow10(digits)
		return Float(math.Round(args[0].AsFloat()*scale) / scale), nil
	}},
	"COALESCE": {MinArgs: 1, MaxArgs: -1, Scalar: func(args []Value) (Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	}},
	"IFNULL": {MinArgs: 2, MaxArgs: 2, Scalar: func(args []Value) (Value, error) {
		if !args[0].IsNull() {
			return args[0], nil
		}
		return args[1], nil
	}},
	"NULLIF": {MinArgs: 2, MaxArgs: 2, Scalar: func(args []Value) (Value, error) {
		if !args[0].IsNull() && !args[1].IsNull() && args[0].Compare(args[1]) == 0 {
			return Null, nil
		}
		return args[0], nil
	}},
	"TYPEOF": {MinArgs: 1, MaxArgs: 1, Scalar: func(args []Value) (Value, error) {
		return Text(strings.ToLower(args[0].Kind().String())), nil
	}},
	"SQRT": {MinArgs: 1, MaxArgs: 1, Strict: true, Scalar: func(args []Value) (Value, error) {
		f := args[0].AsFloat()
		if f < 0 {
			return Null, nil
		}
		return Float(math.Sqrt(f)), nil
	}},
	"POW": {MinArgs: 2, MaxArgs: 2, Strict: true, Scalar: func(args []Value) (Value, error) {
		return Float(math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
	}},
	// STRFTIME over ISO 'YYYY-MM-DD[ HH:MM:SS]' strings: supports the %Y /
	// %m / %d specifiers the benchmark schemas need without a time package
	// dependency on column storage.
	"STRFTIME": {MinArgs: 2, MaxArgs: 2, Strict: true, Scalar: func(args []Value) (Value, error) {
		format, date := args[0].AsText(), args[1].AsText()
		if len(date) < 10 {
			return Null, nil
		}
		out := format
		out = strings.ReplaceAll(out, "%Y", date[0:4])
		out = strings.ReplaceAll(out, "%m", date[5:7])
		out = strings.ReplaceAll(out, "%d", date[8:10])
		return Text(out), nil
	}},
}
