package sqldb

import "strings"

// Fused compare-and-select kernels for the vectorized filter stage.
//
// A WHERE clause whose every conjunct is a plain typed comparison — column vs
// literal/parameter/outer reference, or column vs column — skips the compiled vexpr closure
// tree entirely: each conjunct becomes a vpred that reads the typed column
// payloads directly (no Value boxing, no per-row closure dispatch) and writes
// a packed selection vector with a branch-free accept mask. The kernels
// allocate nothing per batch; the selection buffer and comparand slots live
// on the pooled vecCtx.
//
// One more conjunct shape fuses: an OR tree, of any association and
// parenthesisation, whose every leaf is "col = 'text'" (either operand order)
// over one local TEXT column — the membership test the canonical
// CommunicationCost and IOCost render as a chain of Type equalities. It
// becomes one kernel that keeps a row when the cell is non-NULL and
// byte-equal to one of the literals, scanning them in order and stopping at
// the first hit: never more compares than the tree, which tests one disjunct
// after another. TEXT against a TEXT literal never errors, so the kernel
// needs no ready hook; a parameter, outer reference, NULL literal, other
// operator or second column in any leaf keeps the clause on the tree.
//
// Correctness rests on one precondition: a fused kernel can never raise an
// error. The row engine evaluates WHERE with full three-valued logic, where a
// NULL left operand does NOT short-circuit AND — an error in the right
// operand must still surface. Sequential narrowing (drop rows conjunct by
// conjunct) is only observationally identical when no conjunct can error, so
// fuseFilter fuses a clause either completely or not at all, and every shape
// that could error at runtime — mixed-type literal comparisons at compile
// time, mismatched parameter classes and parameter-binding failures at
// ready() time — bails the whole execution back to the compiled filter tree,
// which reproduces the row engine's errors exactly.
//
// Comparison semantics mirror Value.Compare: numerics promote to float64
// (including int vs int — the row engine compares through float64, and so
// must we, precision loss and all), text compares byte-wise, booleans by
// payload; NULL on either side drops the row.

// vpred is one fused conjunct of a WHERE clause.
type vpred struct {
	// ready prepares the kernel for one execution: it evaluates the
	// comparand expression into vc.fuseVals[slot] and reports whether the
	// kernel's runtime preconditions hold. A false return bails the whole
	// execution to the compiled filter tree. nil means always ready
	// (column-vs-column kernels have no comparand).
	ready func(vc *vecCtx, slot int) bool
	// apply scans batch rows 0..b.n-1 and packs the indexes of surviving
	// rows into sel (len >= b.n), returning the shortened slice.
	apply func(vc *vecCtx, b *vbatch, slot int, sel []int32) []int32
}

// cmpAccept maps a comparison operator to its acceptance table, indexed by
// Compare's sign + 1: {accept if <, accept if ==, accept if >}.
func cmpAccept(op BinOp) ([3]int32, bool) {
	switch op {
	case OpEq:
		return [3]int32{0, 1, 0}, true
	case OpNeq:
		return [3]int32{1, 0, 1}, true
	case OpLt:
		return [3]int32{1, 0, 0}, true
	case OpLeq:
		return [3]int32{1, 1, 0}, true
	case OpGt:
		return [3]int32{0, 0, 1}, true
	case OpGeq:
		return [3]int32{0, 1, 1}, true
	}
	return [3]int32{}, false
}

// flipAcc reverses an acceptance table for a swapped operand order:
// sign(Compare(a, b)) == -sign(Compare(b, a)).
func flipAcc(acc [3]int32) [3]int32 { return [3]int32{acc[2], acc[1], acc[0]} }

func b2i32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// nullBit extracts row p's null bit as 0 or 1 without branching.
func nullBit(nulls nullBitmap, p int32) int32 {
	return int32(nulls[p>>6]>>(uint(p)&63)) & 1
}

// classOK reports whether a non-NULL comparand value is comparable with a
// column of declared type ct (Compare would not error).
func classOK(ct ColType, v Value) bool {
	switch ct {
	case TInt, TFloat:
		return v.IsNumeric()
	case TText:
		return v.IsText()
	case TBool:
		return v.IsBool()
	}
	return false
}

// fuseFilter compiles a WHERE clause into fused kernels, one per conjunct.
// It returns nil unless every conjunct fuses — partial fusing would reorder
// error surfacing (see the package comment above).
func (cp *vecCompiler) fuseFilter(where Expr, ntab int) []vpred {
	if where == nil || ntab == 0 {
		return nil
	}
	cj := conjuncts(where)
	preds := make([]vpred, 0, len(cj))
	for _, c := range cj {
		p, ok := cp.fuseCmp(c)
		if !ok {
			return nil
		}
		preds = append(preds, p)
	}
	return preds
}

// fuseCmp fuses one conjunct of the form "col op comparand" or
// "col op col" where op is a comparison operator, or a disjunction of text
// equalities over one column (fuseAnyOf).
func (cp *vecCompiler) fuseCmp(e Expr) (vpred, bool) {
	bin, ok := e.(*EBinary)
	if !ok {
		return vpred{}, false
	}
	if bin.Op == OpOr {
		return cp.fuseAnyOf(bin)
	}
	acc, ok := cmpAccept(bin.Op)
	if !ok {
		return vpred{}, false
	}
	// A column of the SELECT's own tables is read from the batch; any other
	// reference — into an enclosing scope, or binding nothing — is a
	// comparand: its value, or its error, is fixed for the execution, like a
	// parameter's.
	local := func(e Expr) (colRef, bool) {
		if x, ok := e.(*EColumn); ok {
			return cp.p.local(cp.sp, x)
		}
		return colRef{}, false
	}
	l, lok := local(bin.L)
	r, rok := local(bin.R)
	if lok && rok {
		return fuseColCol(acc, l, r)
	}
	var ref colRef
	var cmp Expr
	switch {
	case lok:
		ref, cmp = l, bin.R
	case rok:
		ref, cmp = r, bin.L
		acc = flipAcc(acc)
	default:
		return vpred{}, false
	}
	switch cmp.(type) {
	case *ELit, *EParam, *EColumn: // an EColumn here is not a local column
	default:
		return vpred{}, false
	}
	tab, col, ct := ref.tab, ref.col, ref.typ
	if lit, isLit := cmp.(*ELit); isLit && !lit.Value.IsNull() && !classOK(ct, lit.Value) {
		return vpred{}, false // mixed-type comparison: the row engine errors
	}
	ready := func(vc *vecCtx, slot int) bool {
		v, err := vc.ec.eval(cmp, &vc.fr)
		if err != nil {
			return false // binding and resolution errors surface through the filter tree
		}
		if !v.IsNull() && !classOK(ct, v) {
			return false
		}
		vc.fuseVals[slot] = v
		return true
	}
	switch ct {
	case TInt:
		return vpred{ready: ready, apply: func(vc *vecCtx, b *vbatch, slot int, sel []int32) []int32 {
			rv := vc.fuseVals[slot]
			if rv.IsNull() {
				return sel[:0] // NULL comparand: every comparison is NULL
			}
			rf := rv.Float()
			cv := vc.tabs[tab].cols[col]
			pos := b.pos[tab]
			nulls, ints := cv.nulls, cv.ints
			n := 0
			for i := 0; i < b.n; i++ {
				p := pos[i]
				lf := float64(ints[p])
				c := b2i32(lf > rf) - b2i32(lf < rf)
				sel[n] = int32(i)
				n += int(acc[c+1] &^ nullBit(nulls, p))
			}
			return sel[:n]
		}}, true
	case TFloat:
		return vpred{ready: ready, apply: func(vc *vecCtx, b *vbatch, slot int, sel []int32) []int32 {
			rv := vc.fuseVals[slot]
			if rv.IsNull() {
				return sel[:0]
			}
			rf := rv.Float()
			cv := vc.tabs[tab].cols[col]
			pos := b.pos[tab]
			nulls, flts := cv.nulls, cv.flts
			n := 0
			for i := 0; i < b.n; i++ {
				p := pos[i]
				lf := flts[p]
				c := b2i32(lf > rf) - b2i32(lf < rf)
				sel[n] = int32(i)
				n += int(acc[c+1] &^ nullBit(nulls, p))
			}
			return sel[:n]
		}}, true
	case TText:
		return vpred{ready: ready, apply: func(vc *vecCtx, b *vbatch, slot int, sel []int32) []int32 {
			rv := vc.fuseVals[slot]
			if rv.IsNull() {
				return sel[:0]
			}
			rs := rv.Text()
			cv := vc.tabs[tab].cols[col]
			pos := b.pos[tab]
			nulls, strs := cv.nulls, cv.strs
			n := 0
			for i := 0; i < b.n; i++ {
				p := pos[i]
				c := int32(strings.Compare(strs[p], rs))
				sel[n] = int32(i)
				n += int(acc[c+1] &^ nullBit(nulls, p))
			}
			return sel[:n]
		}}, true
	case TBool:
		return vpred{ready: ready, apply: func(vc *vecCtx, b *vbatch, slot int, sel []int32) []int32 {
			rv := vc.fuseVals[slot]
			if rv.IsNull() {
				return sel[:0]
			}
			ri := rv.i
			cv := vc.tabs[tab].cols[col]
			pos := b.pos[tab]
			nulls, ints := cv.nulls, cv.ints
			n := 0
			for i := 0; i < b.n; i++ {
				p := pos[i]
				li := ints[p]
				c := b2i32(li > ri) - b2i32(li < ri)
				sel[n] = int32(i)
				n += int(acc[c+1] &^ nullBit(nulls, p))
			}
			return sel[:n]
		}}, true
	}
	return vpred{}, false
}

// fuseAnyOf fuses an OR tree whose every leaf is "col = 'text'" or
// "'text' = col" over the same local TEXT column into one membership kernel
// (see the package comment above).
func (cp *vecCompiler) fuseAnyOf(or *EBinary) (vpred, bool) {
	var ref colRef
	var lits []string
	var walk func(e Expr) bool
	walk = func(e Expr) bool {
		bin, ok := e.(*EBinary)
		switch {
		case !ok:
			return false
		case bin.Op == OpOr:
			return walk(bin.L) && walk(bin.R)
		case bin.Op != OpEq:
			return false
		}
		ce, le := bin.L, bin.R
		if _, ok := ce.(*ELit); ok {
			ce, le = le, ce
		}
		x, ok := ce.(*EColumn)
		lit, isLit := le.(*ELit)
		if !ok || !isLit || !lit.Value.IsText() {
			return false
		}
		r, ok := cp.p.local(cp.sp, x)
		if !ok || r.typ != TText || (lits != nil && (r.tab != ref.tab || r.col != ref.col)) {
			return false
		}
		ref = r
		lits = append(lits, lit.Value.Text())
		return true
	}
	if !walk(or) {
		return vpred{}, false
	}
	tab, col := ref.tab, ref.col
	return vpred{apply: func(vc *vecCtx, b *vbatch, slot int, sel []int32) []int32 {
		cv := vc.tabs[tab].cols[col]
		pos := b.pos[tab]
		nulls, strs := cv.nulls, cv.strs
		n := 0
		for i := 0; i < b.n; i++ {
			p := pos[i]
			s := strs[p]
			hit := int32(0)
			for _, lit := range lits {
				if s == lit {
					hit = 1
					break
				}
			}
			sel[n] = int32(i)
			n += int(hit &^ nullBit(nulls, p))
		}
		return sel[:n]
	}}, true
}

// fuseColCol fuses "col op col". Both sides must be of one comparison class
// (numeric, text, or boolean); a class mismatch means the row engine errors
// on every non-NULL pair, so it is not fusable. The payload-type branch
// inside the numeric loop is loop-invariant; the selection write stays
// branch-free.
func fuseColCol(acc [3]int32, l, r colRef) (vpred, bool) {
	lt, lcol, lty := l.tab, l.col, l.typ
	rt, rcol, rty := r.tab, r.col, r.typ
	lNum := lty == TInt || lty == TFloat
	rNum := rty == TInt || rty == TFloat
	switch {
	case lNum && rNum:
		lInt, rInt := lty == TInt, rty == TInt
		return vpred{apply: func(vc *vecCtx, b *vbatch, slot int, sel []int32) []int32 {
			lcv := vc.tabs[lt].cols[lcol]
			rcv := vc.tabs[rt].cols[rcol]
			lpos, rpos := b.pos[lt], b.pos[rt]
			n := 0
			for i := 0; i < b.n; i++ {
				lp, rp := lpos[i], rpos[i]
				var lf, rf float64
				if lInt {
					lf = float64(lcv.ints[lp])
				} else {
					lf = lcv.flts[lp]
				}
				if rInt {
					rf = float64(rcv.ints[rp])
				} else {
					rf = rcv.flts[rp]
				}
				null := nullBit(lcv.nulls, lp) | nullBit(rcv.nulls, rp)
				c := b2i32(lf > rf) - b2i32(lf < rf)
				sel[n] = int32(i)
				n += int(acc[c+1] &^ null)
			}
			return sel[:n]
		}}, true
	case lty == TText && rty == TText:
		return vpred{apply: func(vc *vecCtx, b *vbatch, slot int, sel []int32) []int32 {
			lcv := vc.tabs[lt].cols[lcol]
			rcv := vc.tabs[rt].cols[rcol]
			lpos, rpos := b.pos[lt], b.pos[rt]
			n := 0
			for i := 0; i < b.n; i++ {
				lp, rp := lpos[i], rpos[i]
				null := nullBit(lcv.nulls, lp) | nullBit(rcv.nulls, rp)
				c := int32(strings.Compare(lcv.strs[lp], rcv.strs[rp]))
				sel[n] = int32(i)
				n += int(acc[c+1] &^ null)
			}
			return sel[:n]
		}}, true
	case lty == TBool && rty == TBool:
		return vpred{apply: func(vc *vecCtx, b *vbatch, slot int, sel []int32) []int32 {
			lcv := vc.tabs[lt].cols[lcol]
			rcv := vc.tabs[rt].cols[rcol]
			lpos, rpos := b.pos[lt], b.pos[rt]
			n := 0
			for i := 0; i < b.n; i++ {
				lp, rp := lpos[i], rpos[i]
				null := nullBit(lcv.nulls, lp) | nullBit(rcv.nulls, rp)
				li, ri := lcv.ints[lp], rcv.ints[rp]
				c := b2i32(li > ri) - b2i32(li < ri)
				sel[n] = int32(i)
				n += int(acc[c+1] &^ null)
			}
			return sel[:n]
		}}, true
	}
	return vpred{}, false
}

// fuseReady runs every kernel's ready hook for one execution, sizing the
// comparand slots. A false return means the execution must use the compiled
// filter tree instead.
func (vc *vecCtx) fuseReady(preds []vpred) bool {
	for len(vc.fuseVals) < len(preds) {
		vc.fuseVals = append(vc.fuseVals, Value{})
	}
	for slot := range preds {
		if preds[slot].ready != nil && !preds[slot].ready(vc, slot) {
			return false
		}
	}
	return true
}

// narrowFused applies the fused kernels to a batch, narrowing it conjunct by
// conjunct. Like narrow, it returns b untouched when nothing is dropped, or
// gathers the survivors into nb.
func (vc *vecCtx) narrowFused(b, nb *vbatch, preds []vpred) *vbatch {
	cur := b
	for slot := range preds {
		if cap(vc.selBuf) < cur.n {
			vc.selBuf = make([]int32, cur.n)
		}
		sel := preds[slot].apply(vc, cur, slot, vc.selBuf[:cur.n])
		vc.selBuf = sel[:cap(sel)]
		if len(sel) == cur.n {
			continue
		}
		dst := nb
		if cur == nb {
			dst = b
		}
		gatherBatch(dst, cur, sel)
		cur = dst
		if cur.n == 0 {
			break
		}
	}
	return cur
}
