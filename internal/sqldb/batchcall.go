package sqldb

import (
	"context"
	"math/bits"
	"slices"
)

// This file is the one gather → distinct → scatter layer under every
// batched call, the engine's (a BatchFunc inside a statement) and the
// semantic operators' above it (internal/sem). It is the paper's Appendix C
// move — `df["City"].unique().sem_filter(...)`, then a semi-join back —
// done for every caller: each distinct argument tuple is asked about once,
// and every row reads its answer back through the class its tuple fell in.

// TupleSet numbers the distinct tuples it is shown 0, 1, 2, … in first-seen
// order: the engine's one group table, under GROUP BY, DISTINCT, batched
// calls, a hash join's build side, the deferred UNIQUE check and the
// semantic operators. Tuples are distinct as an index would key them — by
// Compare class (sameKey), so NULLs share a class and so do Int(5) and
// Float(5.0) — and are hashed and compared as values, never encoded: an
// open-addressed slot array, probed linearly, over the first-seen tuples,
// which the set keeps as they were shown. Tuples of one set have one length.
type TupleSet struct {
	// 2^b slots, at most three quarters taken: a class + 1 in the low b bits
	// (0 marks an empty slot) under the same high bits of its tuple's hash,
	// so that a probe compares values only on a match
	slots  []uint32
	blocks [][]Value // the tuples by class, 1, 1, 2, 4, … tupleBlock, tupleBlock, … to a block
	width  int
	n      int
}

// Blocks double up to tupleBlock tuples — a set of one or two classes does
// not pay for two thousand — and stay that size from there on: a large
// object, 32 KiB a value of the tuples, which no size class rounds up.
const tupleBlockBits, tupleBlock = 11, 1 << 11

// Add files tuple under its class and reports whether it founded it. A
// founding tuple is copied; the caller may reuse its buffer.
func (s *TupleSet) Add(tuple []Value) (class int, fresh bool) {
	if (s.n+1)*4 > len(s.slots)*3 {
		s.grow()
	}
	i, tag, class := s.probe(tuple)
	if class >= 0 {
		return class, false
	}
	class, s.width = s.n, len(tuple)
	s.n++
	s.slots[i] = tag | uint32(s.n)
	b, off := locate(class)
	if off == 0 { // the first class of a block: 0, 1, 2, 4, … tupleBlock, 2·tupleBlock, …
		s.blocks = append(s.blocks, make([]Value, min(max(class, 1), tupleBlock)*s.width))
	}
	copy(s.blocks[b][off*s.width:], tuple)
	return class, true
}

// Find returns tuple's class, or false when no tuple of its class was
// added. It files nothing.
func (s *TupleSet) Find(tuple []Value) (class int, ok bool) {
	if s.n == 0 {
		return 0, false
	}
	_, _, class = s.probe(tuple)
	return class, class >= 0
}

// probe returns the slot of tuple's class, its tag and the class, or the
// empty slot the class would take, its tag and -1. A tuple hashes by the
// canonical keys of its values, so every member of its class hashes alike.
func (s *TupleSet) probe(tuple []Value) (slot, tag uint32, class int) {
	var h64 uint64
	for _, v := range tuple {
		h64 = (h64 ^ keyHash(indexKey(v))) * hashFold
	}
	h, mask := uint32(h64>>32), uint32(len(s.slots)-1)
	i, tag := h&mask, h&^mask
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if class = int(s.slots[i]&mask - 1); s.slots[i]&^mask == tag && slices.EqualFunc(s.Tuple(class), tuple, sameKey) {
			return i, tag, class
		}
	}
	return i, tag, -1
}

// grow doubles the slot array and places every class again, hashing the
// tuples the blocks keep in class order. (Empty tuples are one class,
// founded after the first growth: a set of them never grows again.)
func (s *TupleSet) grow() {
	s.slots = make([]uint32, max(8, 2*len(s.slots)))
	ref := uint32(0)
	for _, blk := range s.blocks {
		for off := 0; off < len(blk) && int(ref) < s.n; off += s.width {
			ref++
			i, tag, _ := s.probe(blk[off : off+s.width]) // the classes differ: it finds none
			s.slots[i] = tag | ref
		}
	}
}

// locate returns the block a class's tuple (or state, column) is kept in
// and its place there.
func locate(class int) (block, off int) {
	if class < tupleBlock {
		block = bits.Len(uint(class))
		return block, class - 1<<block>>1
	}
	return tupleBlockBits + class>>tupleBlockBits, class & (tupleBlock - 1)
}

// Tuple returns the tuple that founded class as it was shown to Add — the
// original values, not their canonical forms — in the set's own copy: read
// it, and keep it as long as the set.
func (s *TupleSet) Tuple(class int) []Value {
	b, off := locate(class)
	return s.blocks[b][off*s.width : (off+1)*s.width : (off+1)*s.width]
}

// CallMemo answers argument tuples through one BatchFunc, each distinct
// tuple once: Add files a tuple and queues it if it is new, Flush sends
// everything queued in one call, At reads a class's answer. Answers are kept
// for the memo's lifetime (a statement's, for the engine), so a later window
// of rows pays only for the tuples no earlier one asked about.
type CallMemo struct {
	fn    BatchFunc
	set   TupleSet
	queue [][]Value // first-seen tuples not yet sent (the set's copies)
	vals  []Value   // per class, for the classes already answered
	errs  []error   // per class, as far as the last call that failed an element
	// Asked counts the tuples filed, Sent the ones no earlier tuple had
	// answered for, Calls the calls of the function that took.
	Asked, Sent, Calls uint64
}

// NewCallMemo returns an empty memo over fn.
func NewCallMemo(fn BatchFunc) *CallMemo { return &CallMemo{fn: fn} }

// Add files tuple under its class, queueing it for the next Flush when no
// earlier tuple shared the class. The caller may reuse its buffer.
func (m *CallMemo) Add(tuple []Value) (class int) {
	class, fresh := m.set.Add(tuple)
	m.Asked++
	if fresh {
		m.Sent++
		m.queue = append(m.queue, m.set.Tuple(class))
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
