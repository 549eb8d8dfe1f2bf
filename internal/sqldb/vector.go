package sqldb

import (
	"cmp"
	"strings"
	"sync"
)

// This file implements the vectorized expression engine: column vectors,
// selection bitsets with exact SQL three-valued logic, and the kernel
// compiler that turns WHERE/projection/aggregation expressions into
// batch-at-a-time functions. The compiler is the vector twin of
// compile.go: every kernel either replicates the row engine's exact
// branches (the type-specialized int/int paths mirror Value.Compare and
// evalArith case by case) or simply calls the row engine's own scalar
// functions per element (the generic paths) — so row-vs-vector
// equivalence holds by construction and is pinned by TestDifferential.
// Shapes the compiler cannot specialize (subqueries, UDFs, CASE, grouped
// references) report not-compilable, and the scan runs the row
// engine's closure for that one expression over the batch's rows
// (vecops.go).

// vecBatchRows is the vectorized executor's batch size. It equals
// segBlockSlots (and morselSize) so one sealed block decodes into exactly
// one batch.
const vecBatchRows = segBlockSlots

// vecBitset is a bitmap over one batch's rows.
type vecBitset [vecBatchRows / 64]uint64

func (s *vecBitset) set(i int)      { s[i>>6] |= 1 << uint(i&63) }
func (s *vecBitset) get(i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

// maskTo returns a bitset with bits [0, n) set.
func maskTo(n int) vecBitset {
	var m vecBitset
	for w := 0; w < n>>6; w++ {
		m[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		m[n>>6] = 1<<uint(r) - 1
	}
	return m
}

// vecCol is one column of one batch: either a broadcast constant or a
// dense slice of the batch's values, plus the mask of kinds present —
// what the kernels dispatch on.
type vecCol struct {
	konst bool
	c     Value
	vals  []Value
	kinds uint16
}

func (v *vecCol) at(i int) Value {
	if v.konst {
		return v.c
	}
	return v.vals[i]
}

// setVals points the column at a freshly filled slice and recomputes the
// kind mask.
func (v *vecCol) setVals(vals []Value) {
	v.konst = false
	v.vals = vals
	var k uint16
	for i := range vals {
		k |= 1 << uint16(vals[i].kind)
	}
	v.kinds = k
}

func constCol(val Value) vecCol {
	return vecCol{konst: true, c: val, kinds: 1 << uint16(val.kind)}
}

// vecBatch is one morsel's visible rows in column-major form, filled by
// batchSource.load (source.go). Heap and id-list batches keep the source
// rows and populate only the columns the consumer's kernels read;
// sealed-block batches decode the columns the consumer reads and carry rows
// only on request.
type vecBatch struct {
	n    int
	cols []vecCol
	rows []Row
	ids  []int     // the slot each row was read from
	sel  vecBitset // rows surviving the filter
	// pre[i] counts the invisible versions stepped over immediately before
	// row i, and tail those after the last row — replayed where each row is
	// consumed, so tombstones are billed with the rows that pass them.
	pre  []int32
	tail int32
	// blk is the sealed block behind the batch (nil for heap and id-list
	// batches), kept so columns nobody asked for can still be decoded on
	// demand (scanOp.materializeRow).
	blk *segBlock

	// Scratch owned by the batch and overwritten by the next load, each
	// buffer as long as the longest morsel it has held.
	colBufs [][]Value // per column ordinal, allocated on first use
	t, nl   vecBitset // a predicate kernel's (true, null) result
	rowBuf  []Row
	arena   rowArena  // scoped: where the rows decoded from sealed blocks live
	seek    blockSeek // where the last of them was read
	keep    rowArena  // slab storage for sealed rows a consumer keeps (scanOp.rowAt)
}

// freeBatches recycles batches, scratch and all, across scans, so a point
// lookup or a short range over a big table does not allocate its buffers
// afresh in every worker of every statement. A free list rather than a
// sync.Pool, which drops what it holds at a GC and under -race a quarter of
// what it is handed: a scan allocates the same whatever the GC has done. It
// keeps two full worker pools' worth, and hands out the batch handed back
// last, whose buffers the scans of the moment have sized.
var freeBatches struct {
	sync.Mutex
	list []*vecBatch
}

// getBatch returns a batch for a table of the given width. Buffers keep
// whatever a previous scan left in them; every load overwrites what it
// hands out.
func getBatch(width int) *vecBatch {
	var b *vecBatch
	freeBatches.Lock()
	if n := len(freeBatches.list); n > 0 {
		b, freeBatches.list = freeBatches.list[n-1], freeBatches.list[:n-1]
	}
	freeBatches.Unlock()
	if b == nil {
		b = new(vecBatch)
	}
	if cap(b.cols) < width {
		b.cols = make([]vecCol, width)
	}
	b.cols = b.cols[:width]
	b.n, b.arena.scoped = 0, true
	return b
}

// putBatch hands a batch back once nothing will read it again.
func putBatch(b *vecBatch) {
	b.blk, b.seek.blk = nil, nil // a parked batch pins no block
	freeBatches.Lock()
	if len(freeBatches.list) < 2*parallelMaxWorkers {
		freeBatches.list = append(freeBatches.list, b)
	}
	freeBatches.Unlock()
}

// reserve makes room for a morsel of n positions.
func (b *vecBatch) reserve(n int) {
	if len(b.pre) < n {
		b.pre, b.ids, b.rowBuf = make([]int32, n), make([]int, n), make([]Row, n)
	}
}

// colBuf returns value buffer c for n rows — column c's, or past the
// table's width a kernel's result (vecCompiler.slot) — allocated on first
// use, so a batch pays only for the columns its consumer reads, and pooled
// with it, so a statement's kernels allocate no scratch.
func (b *vecBatch) colBuf(c, n int) []Value {
	for len(b.colBufs) <= c {
		b.colBufs = append(b.colBufs, nil)
	}
	if len(b.colBufs[c]) < n {
		b.colBufs[c] = make([]Value, n)
	}
	return b.colBufs[c][:n]
}

// ---------------------------------------------------------------------------
// Compiled kernels

// vecExprFn evaluates an expression over a whole batch.
type vecExprFn func(b *vecBatch) *vecCol

// vecPredFn evaluates a predicate over a whole batch into (true, null)
// bitsets; rows in neither are false. Exactly one of the three holds per
// row in [0, b.n).
type vecPredFn func(b *vecBatch, t, nl *vecBitset)

// vecCompiler compiles expressions against one base table's schema. It
// records which column ordinals the compiled kernels read (need), so the
// scan gathers only those into vectors, and which any expression reads
// (dec), so a sealed batch decodes only those.
type vecCompiler struct {
	env       *evalEnv // resolution scope: the scan's columns, then any outer scopes
	need, dec []bool
	slots     int // buffers the kernels claimed past the table's columns (vecBatch.colBuf)
}

func newVecCompiler(env *evalEnv) *vecCompiler {
	n := len(env.cols)
	m := make([]bool, 2*n)
	return &vecCompiler{env: env, need: m[:n:n], dec: m[n:]}
}

// slot claims a buffer of the batch for one kernel's result.
func (vc *vecCompiler) slot() int {
	vc.slots++
	return len(vc.need) + vc.slots - 1
}

// markRefs marks every scan column e reads, for expressions that run
// row-at-a-time over the batch's rows (closures, operators above the scan).
// A subquery can reach any column through the environment chain, and a
// reference that does not resolve here is somebody else's to report, so
// both mark them all.
func (vc *vecCompiler) markRefs(e Expr) {
	walkExpr(e, func(x Expr) bool {
		all := isSubqueryNode(x)
		if cr, ok := x.(*ColumnRef); ok {
			if i, owner, err := vc.env.resolve(cr); err != nil {
				all = true
			} else if owner == vc.env {
				vc.dec[i] = true
			}
		}
		if all {
			for i := range vc.dec {
				vc.dec[i] = true
			}
		}
		return !all
	})
}

// compileExpr returns a batch kernel for e, or ok=false when e's shape is
// not vector-compilable (the caller then runs the row closure). It is
// only ever called after the row compiler accepted the same expression,
// so resolution cannot fail here in ways the row path would not surface.
func (vc *vecCompiler) compileExpr(e Expr) (vecExprFn, bool) {
	switch t := e.(type) {
	case *Literal:
		c := constCol(t.Val)
		return func(*vecBatch) *vecCol { return &c }, true
	case *Param:
		if t.Index >= len(vc.env.params) {
			return nil, false
		}
		c := constCol(vc.env.params[t.Index])
		return func(*vecBatch) *vecCol { return &c }, true
	case *ColumnRef:
		i, owner, err := vc.env.resolve(t)
		if err != nil || owner != vc.env {
			return nil, false
		}
		vc.need[i], vc.dec[i] = true, true
		return func(b *vecBatch) *vecCol { return &b.cols[i] }, true
	case *BinaryOp:
		switch t.Op {
		case "+", "-", "*", "/", "%":
			l, ok := vc.compileExpr(t.Left)
			if !ok {
				return nil, false
			}
			r, ok := vc.compileExpr(t.Right)
			if !ok {
				return nil, false
			}
			op := t.Op
			var out vecCol
			slot := vc.slot()
			return func(b *vecBatch) *vecCol {
				scratch := b.colBuf(slot, b.n)
				arithVec(op, l(b), r(b), b.n, scratch)
				out.setVals(scratch[:b.n])
				return &out
			}, true
		case "||":
			l, ok := vc.compileExpr(t.Left)
			if !ok {
				return nil, false
			}
			r, ok := vc.compileExpr(t.Right)
			if !ok {
				return nil, false
			}
			var out vecCol
			slot := vc.slot()
			return func(b *vecBatch) *vecCol {
				lv, rv := l(b), r(b)
				scratch := b.colBuf(slot, b.n)
				for i := 0; i < b.n; i++ {
					a, c := lv.at(i), rv.at(i)
					if a.kind == KindNull || c.kind == KindNull {
						scratch[i] = Null
					} else {
						scratch[i] = Text(a.AsText() + c.AsText())
					}
				}
				out.setVals(scratch[:b.n])
				return &out
			}, true
		default:
			// Comparisons, AND/OR, LIKE: compile as a predicate and
			// materialise its three-valued result, exactly as the row
			// closure returns Bool/NULL.
			return vc.predAsExpr(e)
		}
	case *UnaryOp:
		switch t.Op {
		case "-":
			sub, ok := vc.compileExpr(t.Expr)
			if !ok {
				return nil, false
			}
			var out vecCol
			slot := vc.slot()
			return func(b *vecBatch) *vecCol {
				v := sub(b)
				scratch := b.colBuf(slot, b.n)
				for i := 0; i < b.n; i++ {
					sv := v.at(i)
					switch {
					case sv.kind == KindNull:
						scratch[i] = Null
					case sv.kind == KindInt:
						scratch[i] = Int(-sv.AsInt())
					default:
						scratch[i] = Float(-sv.AsFloat())
					}
				}
				out.setVals(scratch[:b.n])
				return &out
			}, true
		case "NOT":
			return vc.predAsExpr(e)
		default:
			return nil, false
		}
	case *IsNull, *Between, *InList:
		return vc.predAsExpr(e)
	case *CastExpr:
		sub, ok := vc.compileExpr(t.Expr)
		if !ok {
			return nil, false
		}
		typ := t.Type
		var out vecCol
		slot := vc.slot()
		return func(b *vecBatch) *vecCol {
			v := sub(b)
			scratch := b.colBuf(slot, b.n)
			for i := 0; i < b.n; i++ {
				scratch[i] = castValue(v.at(i), typ)
			}
			out.setVals(scratch[:b.n])
			return &out
		}, true
	default:
		// FuncCall (incl. UDFs), CaseExpr, Subquery, ExistsExpr, Star,
		// aggregate contexts: row fallback.
		return nil, false
	}
}

// predAsExpr materialises a predicate's three-valued result as a Bool/NULL
// column.
func (vc *vecCompiler) predAsExpr(e Expr) (vecExprFn, bool) {
	p, ok := vc.compilePred(e)
	if !ok {
		return nil, false
	}
	var out vecCol
	slot := vc.slot()
	return func(b *vecBatch) *vecCol {
		var t, nl vecBitset
		p(b, &t, &nl)
		scratch := b.colBuf(slot, b.n)
		for i := 0; i < b.n; i++ {
			switch {
			case nl.get(i):
				scratch[i] = Null
			default:
				scratch[i] = Bool(t.get(i))
			}
		}
		out.setVals(scratch[:b.n])
		return &out
	}, true
}

// compilePred returns a three-valued predicate kernel for e, or ok=false.
func (vc *vecCompiler) compilePred(e Expr) (vecPredFn, bool) {
	switch t := e.(type) {
	case *BinaryOp:
		switch t.Op {
		case "AND", "OR":
			l, ok := vc.compilePred(t.Left)
			if !ok {
				return nil, false
			}
			r, ok := vc.compilePred(t.Right)
			if !ok {
				return nil, false
			}
			or := t.Op == "OR"
			return func(b *vecBatch, t0, nl *vecBitset) {
				var t1, n1, t2, n2 vecBitset
				l(b, &t1, &n1)
				r(b, &t2, &n2)
				m := maskTo(b.n)
				for w := range t0 {
					// AND is true where both sides are, false where either
					// is; OR the other way round. The rest is NULL.
					f1, f2 := m[w]&^t1[w]&^n1[w], m[w]&^t2[w]&^n2[w]
					tw, f := t1[w]&t2[w], f1|f2
					if or {
						tw, f = t1[w]|t2[w], f1&f2
					}
					t0[w], nl[w] = tw, m[w]&^tw&^f
				}
			}, true
		case "=", "!=", "<", "<=", ">", ">=":
			l, ok := vc.compileExpr(t.Left)
			if !ok {
				return nil, false
			}
			r, ok := vc.compileExpr(t.Right)
			if !ok {
				return nil, false
			}
			op := t.Op
			return func(b *vecBatch, t0, nl *vecBitset) {
				cmpVec(op, l(b), r(b), b.n, t0, nl)
			}, true
		case "LIKE":
			l, ok := vc.compileExpr(t.Left)
			if !ok {
				return nil, false
			}
			// The literal-pattern shape is lowered once, like compile.go.
			if lit, okLit := t.Right.(*Literal); okLit && lit.Val.Kind() == KindText {
				pattern := strings.ToLower(lit.Val.AsText())
				return func(b *vecBatch, t0, nl *vecBitset) {
					lv := l(b)
					for i := 0; i < b.n; i++ {
						v := lv.at(i)
						if v.kind == KindNull {
							nl.set(i)
						} else if likeRec(pattern, strings.ToLower(v.AsText())) {
							t0.set(i)
						}
					}
				}, true
			}
			r, ok := vc.compileExpr(t.Right)
			if !ok {
				return nil, false
			}
			return func(b *vecBatch, t0, nl *vecBitset) {
				lv, rv := l(b), r(b)
				for i := 0; i < b.n; i++ {
					a, p := lv.at(i), rv.at(i)
					if a.kind == KindNull || p.kind == KindNull {
						nl.set(i)
					} else if likeMatch(p.AsText(), a.AsText()) {
						t0.set(i)
					}
				}
			}, true
		default:
			return vc.exprAsPred(e)
		}
	case *UnaryOp:
		if t.Op != "NOT" {
			return vc.exprAsPred(e)
		}
		sub, ok := vc.compilePred(t.Expr)
		if !ok {
			return nil, false
		}
		return func(b *vecBatch, t0, nl *vecBitset) {
			var t1, n1 vecBitset
			sub(b, &t1, &n1)
			m := maskTo(b.n)
			for w := range t0 {
				t0[w] = m[w] &^ t1[w] &^ n1[w] // NOT swaps true and false
				nl[w] = n1[w]
			}
		}, true
	case *IsNull:
		sub, ok := vc.compileExpr(t.Expr)
		if !ok {
			return nil, false
		}
		not := t.Not
		return func(b *vecBatch, t0, _ *vecBitset) {
			v := sub(b)
			for i := 0; i < b.n; i++ {
				if (v.at(i).kind == KindNull) != not {
					t0.set(i)
				}
			}
		}, true
	case *Between:
		ce, ok := vc.compileExpr(t.Expr)
		if !ok {
			return nil, false
		}
		clo, ok := vc.compileExpr(t.Lo)
		if !ok {
			return nil, false
		}
		chi, ok := vc.compileExpr(t.Hi)
		if !ok {
			return nil, false
		}
		not := t.Not
		return func(b *vecBatch, t0, nl *vecBitset) {
			v, lo, hi := ce(b), clo(b), chi(b)
			for i := 0; i < b.n; i++ {
				vv, lv, hv := v.at(i), lo.at(i), hi.at(i)
				if vv.kind == KindNull || lv.kind == KindNull || hv.kind == KindNull {
					nl.set(i)
					continue
				}
				in := vv.Compare(lv) >= 0 && vv.Compare(hv) <= 0
				if in != not {
					t0.set(i)
				}
			}
		}, true
	case *InList:
		if t.Sub != nil {
			return nil, false // IN (SELECT ...): row fallback
		}
		needle, ok := vc.compileExpr(t.Expr)
		if !ok {
			return nil, false
		}
		list := make([]vecExprFn, len(t.List))
		for i, le := range t.List {
			c, ok := vc.compileExpr(le)
			if !ok {
				return nil, false
			}
			list[i] = c
		}
		not := t.Not
		return func(b *vecBatch, t0, nl *vecBitset) {
			nv := needle(b)
			elems := make([]*vecCol, len(list))
			for j, c := range list {
				elems[j] = c(b)
			}
			for i := 0; i < b.n; i++ {
				v := nv.at(i)
				if v.kind == KindNull {
					nl.set(i)
					continue
				}
				match, sawNull := false, false
				for _, el := range elems {
					hv := el.at(i)
					if hv.kind == KindNull {
						sawNull = true
						continue
					}
					if v.Compare(hv) == 0 {
						match = true
						break
					}
				}
				switch {
				case match:
					if !not {
						t0.set(i)
					}
				case sawNull:
					nl.set(i)
				default:
					if not {
						t0.set(i)
					}
				}
			}
		}, true
	default:
		return vc.exprAsPred(e)
	}
}

// exprAsPred evaluates e as a value and converts to SQL truth, exactly
// like filterOp does with an arbitrary compiled expression: NULL stays
// NULL, anything else is AsBool.
func (vc *vecCompiler) exprAsPred(e Expr) (vecPredFn, bool) {
	sub, ok := vc.compileExpr(e)
	if !ok {
		return nil, false
	}
	return func(b *vecBatch, t0, nl *vecBitset) {
		v := sub(b)
		for i := 0; i < b.n; i++ {
			sv := v.at(i)
			switch {
			case sv.kind == KindNull:
				nl.set(i)
			case sv.AsBool():
				t0.set(i)
			}
		}
	}, true
}

// ---------------------------------------------------------------------------
// Kernels

func cmpTest(op string) func(int) bool {
	switch op {
	case "=":
		return func(c int) bool { return c == 0 }
	case "!=":
		return func(c int) bool { return c != 0 }
	case "<":
		return func(c int) bool { return c < 0 }
	case "<=":
		return func(c int) bool { return c <= 0 }
	case ">":
		return func(c int) bool { return c > 0 }
	default:
		return func(c int) bool { return c >= 0 }
	}
}

// cmpVec compares two columns three-valuedly. The all-int and all-float
// fast paths replicate Value.Compare's exact branches for those kinds
// (exact int compare; float compare by < / >); every other kind mix calls
// Value.Compare itself.
func cmpVec(op string, l, r *vecCol, n int, t, nl *vecBitset) {
	if debugFault == faultVectorKernel { // every kernel answers the negated comparison
		op = map[string]string{"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}[op]
	}
	if l.kinds == kmInt && r.kinds == kmInt {
		switch {
		case op == "=":
			for i := 0; i < n; i++ {
				if l.at(i).i64() == r.at(i).i64() {
					t.set(i)
				}
			}
		case op == "!=":
			for i := 0; i < n; i++ {
				if l.at(i).i64() != r.at(i).i64() {
					t.set(i)
				}
			}
		case op == "<":
			for i := 0; i < n; i++ {
				if l.at(i).i64() < r.at(i).i64() {
					t.set(i)
				}
			}
		case op == "<=":
			for i := 0; i < n; i++ {
				if l.at(i).i64() <= r.at(i).i64() {
					t.set(i)
				}
			}
		case op == ">":
			for i := 0; i < n; i++ {
				if l.at(i).i64() > r.at(i).i64() {
					t.set(i)
				}
			}
		default: // ">="
			for i := 0; i < n; i++ {
				if l.at(i).i64() >= r.at(i).i64() {
					t.set(i)
				}
			}
		}
		return
	}
	test := cmpTest(op)
	if l.kinds == kmFloat && r.kinds == kmFloat {
		for i := 0; i < n; i++ {
			if test(cmp.Compare(l.at(i).f64(), r.at(i).f64())) {
				t.set(i)
			}
		}
		return
	}
	if (l.kinds|r.kinds)&kmNull == 0 {
		for i := 0; i < n; i++ {
			if test(l.at(i).Compare(r.at(i))) {
				t.set(i)
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		lv, rv := l.at(i), r.at(i)
		if lv.kind == KindNull || rv.kind == KindNull {
			nl.set(i)
			continue
		}
		if test(lv.Compare(rv)) {
			t.set(i)
		}
	}
}

// arithVec evaluates l op r into out[:n]. The all-int fast path
// replicates evalArith's bothInt branch exactly (wrapping + - *, /0 and
// %0 yield NULL); everything else calls evalArith per element, which is
// the row engine's own function.
func arithVec(op string, l, r *vecCol, n int, out []Value) {
	if l.kinds == kmInt && r.kinds == kmInt {
		switch op {
		case "+":
			for i := 0; i < n; i++ {
				out[i] = Int(l.at(i).i64() + r.at(i).i64())
			}
		case "-":
			for i := 0; i < n; i++ {
				out[i] = Int(l.at(i).i64() - r.at(i).i64())
			}
		case "*":
			for i := 0; i < n; i++ {
				out[i] = Int(l.at(i).i64() * r.at(i).i64())
			}
		case "/":
			for i := 0; i < n; i++ {
				if d := r.at(i).i64(); d == 0 {
					out[i] = Null
				} else {
					out[i] = Int(l.at(i).i64() / d)
				}
			}
		case "%":
			for i := 0; i < n; i++ {
				if d := r.at(i).i64(); d == 0 {
					out[i] = Null
				} else {
					out[i] = Int(l.at(i).i64() % d)
				}
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		v, _ := evalArith(op, l.at(i), r.at(i))
		out[i] = v
	}
}
