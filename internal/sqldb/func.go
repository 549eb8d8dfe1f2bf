package sqldb

import (
	"math"
	"strings"
	"sync"
)

// ScalarFunc is the implementation of a SQL scalar function. Args arrive
// already evaluated; implementations must be pure with respect to their
// arguments (the planner may cache or reorder calls).
type ScalarFunc func(args []Value) (Value, error)

// FuncRegistry maps function names to implementations. It is safe for
// concurrent use. The TAG layer registers LM UDFs (LLM_FILTER, LLM_SCORE,
// LLM_MAP) here, which is how semantic predicates run inside exec().
type FuncRegistry struct {
	mu      sync.RWMutex
	scalars map[string]ScalarFunc
}

// NewFuncRegistry returns a registry preloaded with the built-in functions.
func NewFuncRegistry() *FuncRegistry {
	r := &FuncRegistry{scalars: make(map[string]ScalarFunc)}
	registerBuiltins(r)
	return r
}

// Register installs (or replaces) a scalar function under the given name.
// Names are case-insensitive.
func (r *FuncRegistry) Register(name string, fn ScalarFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scalars[strings.ToUpper(name)] = fn
}

// Lookup returns the named function, or nil if unregistered.
func (r *FuncRegistry) Lookup(name string) ScalarFunc {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.scalars[strings.ToUpper(name)]
}

// Names returns the registered function names (unsorted).
func (r *FuncRegistry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.scalars))
	for n := range r.scalars {
		out = append(out, n)
	}
	return out
}

// argCheck returns an error when the argument count is outside [min,max]
// (max < 0 means unbounded).
func argCheck(name string, args []Value, min, max int) error {
	if len(args) < min || (max >= 0 && len(args) > max) {
		return errf(ErrMisuse, "sql: wrong number of arguments to function %s()", name)
	}
	return nil
}

func registerBuiltins(r *FuncRegistry) {
	r.Register("UPPER", func(args []Value) (Value, error) {
		if err := argCheck("UPPER", args, 1, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return Text(strings.ToUpper(args[0].AsText())), nil
	})
	r.Register("LOWER", func(args []Value) (Value, error) {
		if err := argCheck("LOWER", args, 1, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return Text(strings.ToLower(args[0].AsText())), nil
	})
	r.Register("LENGTH", func(args []Value) (Value, error) {
		if err := argCheck("LENGTH", args, 1, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		return Int(int64(len([]rune(args[0].AsText())))), nil
	})
	r.Register("SUBSTR", func(args []Value) (Value, error) {
		if err := argCheck("SUBSTR", args, 2, 3); err != nil {
			return Null, err
		}
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
	})
	r.Register("TRIM", func(args []Value) (Value, error) {
		if err := argCheck("TRIM", args, 1, 2); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		cut := " \t\r\n"
		if len(args) == 2 {
			cut = args[1].AsText()
		}
		return Text(strings.Trim(args[0].AsText(), cut)), nil
	})
	r.Register("REPLACE", func(args []Value) (Value, error) {
		if err := argCheck("REPLACE", args, 3, 3); err != nil {
			return Null, err
		}
		if args[0].IsNull() || args[1].IsNull() || args[2].IsNull() {
			return Null, nil
		}
		return Text(strings.ReplaceAll(args[0].AsText(), args[1].AsText(), args[2].AsText())), nil
	})
	r.Register("INSTR", func(args []Value) (Value, error) {
		if err := argCheck("INSTR", args, 2, 2); err != nil {
			return Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null, nil
		}
		return Int(int64(strings.Index(args[0].AsText(), args[1].AsText()) + 1)), nil
	})
	r.Register("ABS", func(args []Value) (Value, error) {
		if err := argCheck("ABS", args, 1, 1); err != nil {
			return Null, err
		}
		v := args[0]
		if v.IsNull() {
			return Null, nil
		}
		if v.Kind() == KindInt {
			n := v.AsInt()
			if n < 0 {
				n = -n
			}
			return Int(n), nil
		}
		return Float(math.Abs(v.AsFloat())), nil
	})
	r.Register("ROUND", func(args []Value) (Value, error) {
		if err := argCheck("ROUND", args, 1, 2); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		digits := 0
		if len(args) == 2 {
			digits = int(args[1].AsInt())
		}
		scale := math.Pow10(digits)
		return Float(math.Round(args[0].AsFloat()*scale) / scale), nil
	})
	r.Register("COALESCE", func(args []Value) (Value, error) {
		if err := argCheck("COALESCE", args, 1, -1); err != nil {
			return Null, err
		}
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null, nil
	})
	r.Register("IFNULL", func(args []Value) (Value, error) {
		if err := argCheck("IFNULL", args, 2, 2); err != nil {
			return Null, err
		}
		if !args[0].IsNull() {
			return args[0], nil
		}
		return args[1], nil
	})
	r.Register("NULLIF", func(args []Value) (Value, error) {
		if err := argCheck("NULLIF", args, 2, 2); err != nil {
			return Null, err
		}
		if !args[0].IsNull() && !args[1].IsNull() && args[0].Compare(args[1]) == 0 {
			return Null, nil
		}
		return args[0], nil
	})
	r.Register("TYPEOF", func(args []Value) (Value, error) {
		if err := argCheck("TYPEOF", args, 1, 1); err != nil {
			return Null, err
		}
		return Text(strings.ToLower(args[0].Kind().String())), nil
	})
	r.Register("SQRT", func(args []Value) (Value, error) {
		if err := argCheck("SQRT", args, 1, 1); err != nil {
			return Null, err
		}
		if args[0].IsNull() {
			return Null, nil
		}
		f := args[0].AsFloat()
		if f < 0 {
			return Null, nil
		}
		return Float(math.Sqrt(f)), nil
	})
	r.Register("POW", func(args []Value) (Value, error) {
		if err := argCheck("POW", args, 2, 2); err != nil {
			return Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null, nil
		}
		return Float(math.Pow(args[0].AsFloat(), args[1].AsFloat())), nil
	})
	// STRFTIME over ISO 'YYYY-MM-DD[ HH:MM:SS]' strings: supports the %Y /
	// %m / %d specifiers the benchmark schemas need without a time package
	// dependency on column storage.
	r.Register("STRFTIME", func(args []Value) (Value, error) {
		if err := argCheck("STRFTIME", args, 2, 2); err != nil {
			return Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return Null, nil
		}
		format, date := args[0].AsText(), args[1].AsText()
		if len(date) < 10 {
			return Null, nil
		}
		out := format
		out = strings.ReplaceAll(out, "%Y", date[0:4])
		out = strings.ReplaceAll(out, "%m", date[5:7])
		out = strings.ReplaceAll(out, "%d", date[8:10])
		return Text(out), nil
	})
}
