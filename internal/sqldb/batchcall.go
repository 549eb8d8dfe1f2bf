package sqldb

import "context"

// This file is the one gather → distinct → scatter layer under every
// batched call, the engine's (a BatchFunc inside a statement) and the
// semantic operators' above it (internal/sem). It is the paper's Appendix C
// move — `df["City"].unique().sem_filter(...)`, then a semi-join back —
// done for every caller: each distinct argument tuple is asked about once,
// and every row reads its answer back through the class its tuple fell in.

// TupleSet numbers the distinct tuples it is shown 0, 1, 2, … in first-seen
// order. Tuples are distinct as an index would key them — by Compare class
// (indexKey), so NULLs share a class and so do Int(5) and Float(5.0) — and
// are keyed by the values themselves: a trie over (prefix node, value)
// pairs, with no encoded copy of a tuple. Tuples of one set have one length.
type TupleSet struct {
	nodes   map[tupleNode]int32
	inner   int32 // prefix nodes handed out; 0 is the root
	classes int
}

// tupleNode is one trie edge: the node a tuple's prefix reached, and its
// next value. The last value's edge holds the class, the others a node.
type tupleNode struct {
	prefix int32
	v      Value
}

// Add files tuple under its class and reports whether it founded it.
func (s *TupleSet) Add(tuple []Value) (class int, fresh bool) {
	if len(tuple) == 0 {
		fresh, s.classes = s.classes == 0, 1
		return 0, fresh
	}
	if s.nodes == nil {
		s.nodes = make(map[tupleNode]int32)
	}
	var at int32
	for i, v := range tuple {
		k := tupleNode{at, indexKey(v)}
		next, ok := s.nodes[k]
		switch {
		case ok:
		case i < len(tuple)-1:
			s.inner++
			next = s.inner
			s.nodes[k] = next
		default:
			next, fresh = int32(s.classes), true
			s.classes++
			s.nodes[k] = next
		}
		at = next
	}
	return int(at), fresh
}

// CallMemo answers argument tuples through one BatchFunc, each distinct
// tuple once: Add files a tuple and queues it if it is new, Flush sends
// everything queued in one call, At reads a class's answer. Answers are kept
// for the memo's lifetime (a statement's, for the engine), so a later window
// of rows pays only for the tuples no earlier one asked about.
type CallMemo struct {
	fn     BatchFunc
	set    TupleSet
	queue  [][]Value // first-seen tuples not yet sent (private copies)
	tuples slab[Value]
	vals   []Value // per class, for the classes already answered
	errs   []error // per class, as far as the last call that failed an element
	// Asked counts the tuples filed, Sent the ones no earlier tuple had
	// answered for, Calls the calls of the function that took.
	Asked, Sent, Calls uint64
}

// NewCallMemo returns an empty memo over fn.
func NewCallMemo(fn BatchFunc) *CallMemo { return &CallMemo{fn: fn} }

// Add files tuple under its class, queueing it for the next Flush when no
// earlier tuple shared the class. The tuple is copied; the caller may reuse
// its buffer.
func (m *CallMemo) Add(tuple []Value) (class int) {
	class, fresh := m.set.Add(tuple)
	m.Asked++
	if fresh {
		m.Sent++
		own := m.tuples.take(len(tuple))
		copy(own, tuple)
		m.queue = append(m.queue, own)
	}
	return class
}

// Flush answers every queued tuple with one call of the function; with
// nothing queued it makes no call.
func (m *CallMemo) Flush(ctx context.Context) {
	if len(m.queue) == 0 {
		return
	}
	m.Calls++
	vals, errs := m.fn(ctx, m.queue)
	if errs != nil { // the classes answered before this call had none
		m.errs = append(append(m.errs, make([]error, len(m.vals)-len(m.errs))...), errs...)
	}
	m.vals = append(m.vals, vals...)
	m.queue = m.queue[:0]
}

// tally adds what the memo has done to an operator's or a statement's LM*
// counters (QueryStats): evaluations, calls of the function, and evaluations
// that sent nothing.
func (m *CallMemo) tally(calls, batches, dedup *uint64) {
	*calls, *batches, *dedup = *calls+m.Asked, *batches+m.Calls, *dedup+m.Asked-m.Sent
}

// At returns the answer of a class some Flush has sent.
func (m *CallMemo) At(class int) (Value, error) {
	if class < len(m.errs) && m.errs[class] != nil {
		return Null, m.errs[class]
	}
	return m.vals[class], nil
}
