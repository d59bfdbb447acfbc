package sqldb

// The vectorized expression layer: planned SELECT expressions compile, at
// prepare time, into vexpr closures that evaluate a whole batch of rows per
// call, reading the columnar storage (column.go) directly by position instead
// of materializing rows and walking the AST per tuple.
//
// Semantics are shared with the row interpreter by construction: every scalar
// operation funnels through the same kernels (applyBinary, combineAndOr,
// applyUnary, applyScalarFunc, applyInList, aggAcc in exec.go), and the
// compiler refuses — falling the whole SELECT node back to the row engine —
// any shape where batch evaluation could diverge from tuple-at-a-time
// evaluation, in results or in whether an error is raised. The covered set
// includes table-less SELECTs (one empty seed tuple), SELECT * in non-grouped
// projections (expanded to per-column gathers at compile time), joins without
// an equi-join column (block-wise cross products narrowed by the compiled
// conjuncts, in the row engine's emission order), grouped ORDER BY
// expressions (evaluated per surviving group through the hybrid row
// evaluator, aggregates pre-folded), and correlated subqueries. Column loads,
// outer references and correlation read the planner's bindings (scope.go):
// the compiler looks no name up.
//
// The engines meet at one boundary, a SELECT node, which runs in one of three
// forms:
//
//   - vectorized whole, every correlated subexpression in it taking one of two
//     forms (corrSub): vecLazy, once per execution, when it reads no local
//     table; or a hash build per execution, probed once per row, when it is a
//     scalar subquery linked to the compiling SELECT by equality conjuncts
//     only (decorrelate);
//   - replayed whole on the row interpreter, when a build or a probe cannot
//     reproduce the row engine at run time — a build that raises, a key
//     beyond ±2^53, a probe key that fails to evaluate. The pipeline returns
//     errReplay, and the node's dispatch site (execSelect, eval's subquery
//     and EXISTS cases, execDMLLocked) runs it again on the row interpreter,
//     counted as a "subquery" fallback: exact by construction;
//   - on the row interpreter from the start, when the compiler refuses its
//     shape.
//
// What the compiler refuses, with the fallback reason it is counted under
// (Stats.VecFallbackReasons):
//
//   - SELECT * in grouped queries (the representative row may be absent;
//     the row engine pads it per group) — "star";
//   - grouped ORDER BY expressions whose aggregate arguments are not
//     error-free when HAVING could reject the group, and non-grouped ORDER BY
//     expressions that do not compile — "order-by-expr";
//   - correlated subexpressions that read a local table and are not an
//     equality-correlated scalar subquery with INTEGER or BOOLEAN keys —
//     correlated EXISTS and IN, non-equality correlation, REAL or TEXT keys,
//     more than two keys, a computed inner key beside a residual conjunct, a
//     residual conjunct that could seed the subquery's table through an
//     access path, a build that does not vectorize — "subquery";
//   - aggregates outside grouped projections/HAVING,
//     nested aggregates, and malformed calls; non-closed LIMIT expressions;
//     aggregates in lazily-evaluated positions — behind a short-circuited
//     AND/OR right side, or in the projection of a query with HAVING (the
//     row engine skips items of rejected groups) — unless the argument is
//     trivially error-free (the row engine raises the matching errors in
//     every case); subqueries in a grouped projection, HAVING or ORDER BY
//     that hold an aggregate no SELECT inside them owns, which the row
//     engine folds over the enclosing group (outerAggregate) — "other".
//
// Within a compiled node, AND/OR evaluate their right operand through
// selection narrowing that mirrors the row engine's short-circuit exactly:
// the right side runs only for batch rows whose left side was not a decisive
// boolean, so both engines evaluate — and raise errors for — the same set of
// (row, subexpression) pairs.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Engine names accepted by DB.SetEngine.
const (
	EngineVector = "vector"
	EngineRow    = "row"
)

// SetEngine selects the SELECT execution engine: EngineVector (the default)
// runs planned SELECTs batch-at-a-time over the columnar storage, EngineRow
// forces the tuple-at-a-time interpreter. The engines produce identical
// results. This is a test switch, not a deployment setting — no binary has a
// flag for it: the differential fuzzers and the determinism tests flip it to
// hold the row interpreter up as the reference, and the E13/E16 benchmarks to
// measure one engine against the other. In production the row interpreter
// runs only the shapes the vectorized compiler refuses. Safe for concurrent
// use; statements already executing finish on the engine they started with.
func (db *DB) SetEngine(name string) error {
	switch name {
	case EngineVector:
		db.vecOn.Store(true)
	case EngineRow:
		db.vecOn.Store(false)
	default:
		return fmt.Errorf("sqldb: unknown engine %q (want %q or %q)", name, EngineVector, EngineRow)
	}
	return nil
}

// vecBatchSize is the number of seed rows processed per pipeline chunk.
const vecBatchSize = 1024

// Fallback reason labels (Stats.VecFallbackReasons): which refusal criterion
// sent a planned SELECT node back to the row interpreter.
const (
	fbStar      = "star"
	fbOrderExpr = "order-by-expr"
	fbSubquery  = "subquery"
	fbOther     = "other"
)

// vbatch is one batch of joined row positions: pos[t][i] is the storage
// position, in bound table t, of batch row i. Only the tables bound by the
// pipeline stage being run have positions; the others' arrays are empty,
// kept for their capacity.
type vbatch struct {
	n   int
	pos [][]int32
}

// vcol is the value vector an expression produces over a batch: either one
// constant for every row, or one boxed Value per row. Column loads fill vals
// straight from the typed storage vectors, so the boxes never allocate.
type vcol struct {
	isConst bool
	cval    Value
	vals    []Value
}

func (c *vcol) at(i int) Value {
	if c.isConst {
		return c.cval
	}
	return c.vals[i]
}

func (c *vcol) setConst(v Value) {
	c.isConst = true
	c.cval = v
	c.vals = c.vals[:0]
}

// alloc readies the per-row buffer for n rows, reusing capacity.
func (c *vcol) alloc(n int) []Value {
	c.isConst = false
	if cap(c.vals) < n {
		c.vals = make([]Value, n)
	} else {
		c.vals = c.vals[:n]
	}
	return c.vals
}

// vexpr evaluates one compiled expression over a batch into out. It is only
// called with b.n > 0, so a lazily evaluated constant (a closed subquery, a
// parameter) is touched exactly when the row engine would touch it: when at
// least one row reaches the expression.
type vexpr func(vc *vecCtx, b *vbatch, out *vcol) error

// vecCtx is the per-execution state of one vectorized SELECT: the bound
// tables, a frame mirroring the row engine's (for lazy closed-subquery and
// access-path evaluation through ec.eval — bindings identical, rows nil), and
// scratch buffers reused across chunks.
//
// Contexts are pooled across executions (acquireVecCtx/release): the property
// queries the analyzer emits are mostly point seeks over a handful of rows,
// where per-execution allocation, not per-tuple interpretation, is the cost.
// Nothing in a ResultSet aliases pooled memory — projection copies into fresh
// cell arrays — so releasing on return is safe.
type vecCtx struct {
	ec   *execCtx
	fr   frame
	bts  []*boundTable
	tabs []*Table
	// btStore backs bts so bound tables need no per-execution allocations.
	btStore []boundTable
	// subVals memoizes lazily evaluated closed subexpressions for this
	// execution; inSubs memoizes IN-subquery candidate lists.
	subVals map[Expr]Value
	inSubs  map[*EIn][]Value
	// colPool is a free list of scratch vcols; selBuf is the reusable
	// selection vector of the filter operators; seed and keyBuf are the
	// reusable seed-position and group-key buffers.
	colPool []*vcol
	selBuf  []int32
	seed    []int32
	keyBuf  []byte
	// b and nb are the double-buffered position batches; batchPool is a free
	// list of sub-batches for narrowed AND/OR right-hand sides.
	b, nb     vbatch
	batchPool []*vbatch
	// sg, groupSeq, pre, and argBuf back the grouped tail: the lone group of
	// a scalar aggregation, the finalization order, the aggregate prefold
	// map, and the aggregate-argument column list. idxBuf holds the
	// join-probe indexes for the execution.
	sg       vecGroup
	groupSeq []*vecGroup
	pre      map[*ECall]Value
	argBuf   []*vcol
	idxBuf   []*hashIndex
	// repRow and lastRow hold the first and last row of the group being
	// finalized.
	repRow, lastRow tuple
	// idxPool is a free list of selection index slices for the AND/OR
	// narrowing.
	idxPool [][]int32
	// fuseVals holds the per-execution comparand values of the fused filter
	// kernels, one slot per kernel (see vecfuse.go).
	fuseVals []Value
	// callCols is the stack of argument columns of the scalar function calls
	// in evaluation (calls nest); callArgs is the argument row handed to the
	// function, which no nested evaluation can interleave with.
	callCols []*vcol
	callArgs []Value
	// builds holds the build sides of the execution's decorrelated
	// subqueries, by the slot the compiler gave each (corrBuildPlan.slot),
	// nil until the first probe takes it from its plan (corrBuildPlan.take)
	// or an analysis's build table (corrBuild.lent), which release leaves
	// to the table.
	// probeVals is the scratch list of the values a build's first probe
	// carries for one of its keys (vecCtx.startBuild).
	builds    []*corrBuild
	probeVals []Value
}

var vecCtxPool = sync.Pool{New: func() any { return new(vecCtx) }}

// acquireVecCtx readies a pooled context for an execution over nTab tables.
func acquireVecCtx(ec *execCtx, nTab int) *vecCtx {
	vc := vecCtxPool.Get().(*vecCtx)
	vc.ec = ec
	if cap(vc.btStore) < nTab {
		vc.btStore = make([]boundTable, nTab)
		vc.bts = make([]*boundTable, nTab)
		vc.tabs = make([]*Table, nTab)
		vc.b.pos = make([][]int32, nTab)
		vc.nb.pos = make([][]int32, nTab)
	}
	vc.btStore = vc.btStore[:nTab]
	vc.bts = vc.bts[:nTab]
	vc.tabs = vc.tabs[:nTab]
	vc.b.pos = vc.b.pos[:nTab]
	vc.nb.pos = vc.nb.pos[:nTab]
	for i := range vc.btStore {
		vc.bts[i] = &vc.btStore[i]
	}
	return vc
}

// release clears every pointer that could retain table or statement state and
// returns the context to the pool. Buffer capacities (position batches,
// scratch columns, seed and key buffers) survive for the next execution.
func (vc *vecCtx) release() {
	for i := range vc.btStore {
		vc.btStore[i] = boundTable{}
	}
	for i := range vc.tabs {
		vc.tabs[i] = nil
	}
	vc.ec = nil
	vc.fr = frame{}
	clear(vc.subVals)
	clear(vc.inSubs)
	clear(vc.pre)
	for i := range vc.sg.accs {
		vc.sg.accs[i] = aggAcc{}
	}
	vc.sg.hasRep, vc.sg.n = false, 0
	for i := range vc.groupSeq {
		vc.groupSeq[i] = nil
	}
	vc.groupSeq = vc.groupSeq[:0]
	for i := range vc.argBuf {
		vc.argBuf[i] = nil
	}
	vc.argBuf = vc.argBuf[:0]
	for i := range vc.idxBuf {
		vc.idxBuf[i] = nil
	}
	vc.idxBuf = vc.idxBuf[:0]
	for i := range vc.fuseVals {
		vc.fuseVals[i] = Value{}
	}
	vc.fuseVals = vc.fuseVals[:0]
	clear(vc.callArgs[:cap(vc.callArgs)])
	clear(vc.probeVals)
	vc.probeVals = vc.probeVals[:0]
	for i, bd := range vc.builds {
		if bd != nil && !bd.lent {
			bd.plan.give(bd)
		}
		vc.builds[i] = nil
	}
	vc.b.n, vc.nb.n = 0, 0
	vecCtxPool.Put(vc)
}

func (vc *vecCtx) getCol() *vcol {
	if n := len(vc.colPool); n > 0 {
		c := vc.colPool[n-1]
		vc.colPool = vc.colPool[:n-1]
		return c
	}
	return &vcol{}
}

func (vc *vecCtx) putCol(c *vcol) { vc.colPool = append(vc.colPool, c) }

func (vc *vecCtx) getBatch(ntab int) *vbatch {
	var b *vbatch
	if n := len(vc.batchPool); n > 0 {
		b = vc.batchPool[n-1]
		vc.batchPool = vc.batchPool[:n-1]
	} else {
		b = &vbatch{}
	}
	if cap(b.pos) < ntab {
		b.pos = make([][]int32, ntab)
	}
	b.pos = b.pos[:ntab]
	return b
}

func (vc *vecCtx) putBatch(b *vbatch) {
	b.n = 0
	vc.batchPool = append(vc.batchPool, b)
}

func (vc *vecCtx) getIdx() []int32 {
	if n := len(vc.idxPool); n > 0 {
		s := vc.idxPool[n-1]
		vc.idxPool = vc.idxPool[:n-1]
		return s[:0]
	}
	return nil
}

func (vc *vecCtx) putIdx(s []int32) { vc.idxPool = append(vc.idxPool, s) }

// lazyEval evaluates a subexpression whose value is fixed for this execution
// — closed, or reading enclosing scopes only — once, through the row engine
// (a closed one shares its invariant-subquery cache), and memoizes the value.
func (vc *vecCtx) lazyEval(e Expr) (Value, error) {
	if v, ok := vc.subVals[e]; ok {
		return v, nil
	}
	v, err := vc.ec.eval(e, &vc.fr)
	if err != nil {
		return Null, err
	}
	if vc.subVals == nil {
		vc.subVals = make(map[Expr]Value)
	}
	vc.subVals[e] = v
	return v, nil
}

// inCandidates executes a closed IN-subquery once per execution and memoizes
// the candidate list. The row engine re-executes the subquery per tuple; for
// a closed subquery every execution returns the same rows (and the same
// error, if any), so evaluating once is observationally identical.
func (vc *vecCtx) inCandidates(x *EIn) ([]Value, error) {
	if c, ok := vc.inSubs[x]; ok {
		return c, nil
	}
	set, err := vc.ec.execSelect(x.Sub, &vc.fr)
	if err != nil {
		return nil, err
	}
	if len(set.Columns) != 1 {
		return nil, fmt.Errorf("sqldb: IN subquery returns %d columns", len(set.Columns))
	}
	cands := make([]Value, 0, len(set.Rows))
	for _, r := range set.Rows {
		cands = append(cands, r[0])
	}
	if vc.inSubs == nil {
		vc.inSubs = make(map[*EIn][]Value)
	}
	vc.inSubs[x] = cands
	return cands, nil
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

// vecJoin is the compiled form of one join: probe the hash index of the
// joined table with the outer key (eqCol >= 0), or expand the block-wise
// cross product (eqCol < 0, the nested-loop shape), then narrow by the
// residual conjuncts — for a cross product, rest holds every conjunct, and
// narrowing them in order reproduces the row engine's checkConjuncts early
// exit: conjunct k+1 is evaluated exactly for the candidates conjunct k
// passed.
type vecJoin struct {
	eqCol int
	outer vexpr
	rest  []vexpr
}

// vecAgg is one aggregate call site of a grouped SELECT.
type vecAgg struct {
	call *ECall
	name string // upper-cased
	star bool   // COUNT(*)
	arg  vexpr  // nil for COUNT(*)
}

// vecOrderKey is one compiled ORDER BY key: an output-column reference
// (select alias or in-range ordinal), a constant, a compiled expression over
// the final batch (non-grouped), or — in grouped queries — a raw expression
// evaluated per surviving group through the hybrid row evaluator with the
// aggregates pre-folded, exactly where the row engine evaluates it.
type vecOrderKey struct {
	outCol int // >= 0: key is output column outCol
	cval   Value
	ex     vexpr // non-nil: evaluated over the batch
	gx     Expr  // non-nil: evaluated per group (grouped queries)
}

// vecSelectPlan is the compiled physical pipeline of one SELECT node:
// seed (access paths) → join probes → filter → project or group/aggregate.
type vecSelectPlan struct {
	nTab   int
	joins  []vecJoin
	filter vexpr
	// fused is the fused compare-and-select form of the WHERE clause when it
	// is a pure AND-chain of fusable typed comparisons (vecfuse.go); the
	// filter stage runs it instead of the closure chain, falling back to
	// filter when a kernel's comparand does not fit its type class at
	// execution time.
	fused   []vpred
	grouped bool
	// items is the compiled projection (non-grouped only; grouped queries
	// project per group through the hybrid row evaluator with aggPre).
	items []vexpr
	// groupBy and aggs drive the grouped accumulation.
	groupBy []vexpr
	aggs    []vecAgg
	order   []vecOrderKey
	columns []string
}

// vecCompiler carries the compile-time state of one SELECT node: its plan
// and bound tables.
type vecCompiler struct {
	p    *stmtPlan
	sp   *selectPlan
	tabs []*Table
	// reason records the first — most specific — refusal criterion hit while
	// compiling this node (the fb* labels above); consulted when compilation
	// fails, "other" when no site recorded anything sharper.
	reason string
	// subs holds the compiled correlated subexpressions (corrSub); builds
	// counts the build sides of the decorrelated ones.
	subs   map[corrSite]vexpr
	builds int
}

// fail records a refusal reason (first one wins) and returns false for use
// in refusal sites.
func (cp *vecCompiler) fail(r string) bool {
	if cp.reason == "" {
		cp.reason = r
	}
	return false
}

// failReason is the reason to report for a failed compilation.
func (cp *vecCompiler) failReason() string {
	if cp.reason == "" {
		return fbOther
	}
	return cp.reason
}

// compileVecSelect builds the vectorized pipeline of one planned SELECT
// node, or returns nil plus the fallback reason when the node's shape is not
// covered (the criteria at the top of this file) and execution stays on the
// row interpreter.
func compileVecSelect(p *stmtPlan, st *SelectStmt, sp *selectPlan) (*vecSelectPlan, string) {
	cp := &vecCompiler{p: p, sp: sp}
	if sp.from != nil {
		cp.tabs = append(cp.tabs, sp.from)
		for i := range sp.joins {
			cp.tabs = append(cp.tabs, sp.joins[i].table)
		}
	}
	vp := &vecSelectPlan{nTab: len(cp.tabs), grouped: sp.grouped}

	// Joins: an equi-join probes the hash index; without an equi-join column
	// the pipeline expands the block-wise cross product and narrows by every
	// conjunct in order (crossJoin). An equi-join outer key never reads the
	// joined table (matchJoinCol): it is evaluated before the probe.
	for k := range sp.joins {
		jp := &sp.joins[k]
		scope := k + 2 // tables bound while this join runs, joined table included
		vj := vecJoin{eqCol: jp.eqCol}
		if jp.eqCol >= 0 {
			outer, ok := cp.compile(jp.outer, scope)
			if !ok {
				return nil, cp.failReason()
			}
			vj.outer = outer
		}
		for _, c := range jp.rest {
			ce, ok := cp.compile(c, scope)
			if !ok {
				return nil, cp.failReason()
			}
			vj.rest = append(vj.rest, ce)
		}
		vp.joins = append(vp.joins, vj)
	}

	if st.Where != nil {
		f, ok := cp.compile(st.Where, vp.nTab)
		if !ok {
			return nil, cp.failReason()
		}
		vp.filter = f
		vp.fused = cp.fuseFilter(st.Where, vp.nTab)
	}

	if sp.grouped {
		// SELECT * in a grouped query projects the representative row, which
		// may be absent (the row engine pads it per group) — refuse.
		for _, item := range st.Items {
			if item.Star {
				cp.fail(fbStar)
				return nil, cp.failReason()
			}
		}
		if !cp.compileGrouped(st, vp) {
			return nil, cp.failReason()
		}
	} else {
		for _, item := range st.Items {
			if item.Star {
				// Projection-order column gather: one typed load per column
				// of every bound table, in binding order — exactly the row
				// engine's star expansion.
				for t := range cp.tabs {
					for c := range cp.tabs[t].Columns {
						vp.items = append(vp.items, vecColumn(t, c))
					}
				}
				continue
			}
			ex, ok := cp.compile(item.Expr, vp.nTab)
			if !ok {
				return nil, cp.failReason()
			}
			vp.items = append(vp.items, ex)
		}
	}

	// ORDER BY: select aliases and in-range ordinals read the output row
	// (the ordinal range is the *expanded* output width, as the row engine
	// checks it against the projected row); other literals are constant
	// keys; any other expression is compiled over the final batch
	// (non-grouped) or kept raw for per-group evaluation through the hybrid
	// row evaluator (grouped).
	outWidth := len(st.Items)
	if !sp.grouped {
		outWidth = len(vp.items)
	}
	for _, o := range st.OrderBy {
		key, ok := cp.compileOrderKey(o.Expr, st, sp, vp, outWidth)
		if !ok {
			cp.fail(fbOrderExpr)
			return nil, cp.failReason()
		}
		vp.order = append(vp.order, key)
	}

	// LIMIT is evaluated once through the row engine; it must read no table
	// (the row engine evaluates it against whatever frame state the tuple
	// loop left behind — only a closed expression is deterministic there).
	if r := p.reads(st.Limit); len(r.tabs) > 0 || r.unbound {
		return nil, cp.failReason()
	}

	vp.columns = selectColumns(st, cp.tabs)
	return vp, ""
}

// compileGrouped collects the aggregate call sites of the projection and
// HAVING and compiles their arguments and the GROUP BY keys.
func (cp *vecCompiler) compileGrouped(st *SelectStmt, vp *vecSelectPlan) bool {
	for _, g := range st.GroupBy {
		if hasAggregate(g) {
			return false // the row engine raises the error
		}
		ex, ok := cp.compile(g, vp.nTab)
		if !ok {
			return false
		}
		vp.groupBy = append(vp.groupBy, ex)
	}
	// An aggregate in an "eager" position — one the row engine evaluates
	// unconditionally for every group it reaches — may take any compilable
	// argument: both engines then evaluate the argument for the same tuples
	// and raise an error on the same inputs (only which of several
	// simultaneous errors is reported can differ, since accumulation is
	// streamed batch-wise rather than aggregate-by-aggregate). Eagerness is
	// broken by the right side of AND/OR (short-circuit) and, for projection
	// items, by a HAVING clause: groups HAVING rejects never evaluate their
	// items in the row engine, while the pipeline accumulates all aggregates
	// streaming — there the argument must be incapable of erroring.
	for _, item := range st.Items {
		if !cp.collectAggs(item.Expr, vp, st.Having == nil) {
			return false
		}
	}
	if st.Having != nil {
		if !cp.collectAggs(st.Having, vp, true) {
			return false
		}
	}
	return true
}

// collectAggs walks an expression, compiling every aggregate call site into
// vp.aggs. Subqueries are not entered: their aggregates belong to the inner
// SELECT (mirroring hasAggregate), and a subquery holding one that no SELECT
// inside it owns is refused (outerAggregate). eager tracks whether the row
// engine evaluates this position unconditionally (see compileGrouped).
// Returns false on any shape the grouped pipeline cannot run with
// row-engine-identical behavior.
func (cp *vecCompiler) collectAggs(e Expr, vp *vecSelectPlan, eager bool) bool {
	switch x := e.(type) {
	case nil, *ELit, *EParam, *EColumn:
		return true
	case *ESubquery:
		return !cp.outerAggregate(x.Select)
	case *EExists:
		return !cp.outerAggregate(x.Select)
	case *EBinary:
		if x.Op == OpAnd || x.Op == OpOr {
			// The left side is always evaluated; the right only when the
			// left is not decisive.
			return cp.collectAggs(x.L, vp, eager) && cp.collectAggs(x.R, vp, false)
		}
		return cp.collectAggs(x.L, vp, eager) && cp.collectAggs(x.R, vp, eager)
	case *EUnary:
		return cp.collectAggs(x.X, vp, eager)
	case *EIsNull:
		return cp.collectAggs(x.X, vp, eager)
	case *EIn:
		// evalIn evaluates the needle and every list element eagerly.
		if !cp.collectAggs(x.X, vp, eager) || (x.Sub != nil && cp.outerAggregate(x.Sub)) {
			return false
		}
		for _, a := range x.List {
			if !cp.collectAggs(a, vp, eager) {
				return false
			}
		}
		return true
	case *ECall:
		if !x.IsAggregate() {
			// Scalar functions evaluate all arguments eagerly (evalCall).
			for _, a := range x.Args {
				if !cp.collectAggs(a, vp, eager) {
					return false
				}
			}
			return true
		}
		name := strings.ToUpper(x.Name)
		ag := vecAgg{call: x, name: name}
		if x.Star {
			if name != "COUNT" {
				return false // row engine raises "%s(*) is not valid"
			}
			ag.star = true
			vp.aggs = append(vp.aggs, ag)
			return true
		}
		if len(x.Args) != 1 {
			return false // row engine raises the arity error
		}
		if hasAggregate(x.Args[0]) {
			return false // nested aggregate: row engine rejects it
		}
		if !eager && !cp.aggArgSafe(name, x.Args[0]) {
			return false
		}
		arg, ok := cp.compile(x.Args[0], vp.nTab)
		if !ok {
			return false
		}
		ag.arg = arg
		vp.aggs = append(vp.aggs, ag)
		return true
	}
	return false
}

// outerAggregate reports whether a subquery holds an aggregate that no SELECT
// inside it owns: one in a WHERE, ON, GROUP BY or LIMIT clause, or in the
// ORDER BY of an ungrouped SELECT, at any depth. The row engine folds such an
// aggregate over the group of the query evaluating the subquery, which the
// grouped pipeline's prefolded aggregates do not cover.
func (cp *vecCompiler) outerAggregate(st *SelectStmt) bool {
	unowned := func(e Expr) bool { return hasAggregate(e) || cp.subAggregate(e) }
	if unowned(st.Where) || unowned(st.Limit) || cp.subAggregate(st.Having) ||
		slices.ContainsFunc(st.GroupBy, unowned) {
		return true
	}
	for _, item := range st.Items {
		if !item.Star && cp.subAggregate(item.Expr) {
			return true
		}
	}
	for _, j := range st.Joins {
		if unowned(j.On) {
			return true
		}
	}
	grouped := cp.p.selects[st].grouped
	for _, o := range st.OrderBy {
		if cp.subAggregate(o.Expr) || (!grouped && hasAggregate(o.Expr)) {
			return true
		}
	}
	return false
}

// subAggregate reports whether a subquery within e holds an aggregate no
// SELECT inside it owns (outerAggregate).
func (cp *vecCompiler) subAggregate(e Expr) bool {
	switch x := e.(type) {
	case *EBinary:
		return cp.subAggregate(x.L) || cp.subAggregate(x.R)
	case *EUnary:
		return cp.subAggregate(x.X)
	case *EIsNull:
		return cp.subAggregate(x.X)
	case *ECall:
		return slices.ContainsFunc(x.Args, cp.subAggregate)
	case *ESubquery:
		return cp.outerAggregate(x.Select)
	case *EExists:
		return cp.outerAggregate(x.Select)
	case *EIn:
		return cp.subAggregate(x.X) || slices.ContainsFunc(x.List, cp.subAggregate) ||
			(x.Sub != nil && cp.outerAggregate(x.Sub))
	}
	return false
}

// aggArgSafe reports whether an aggregate argument can never raise an
// evaluation or accumulation error: a bare column whose declared type fits
// the aggregate (storage is homogeneous by construction), or a literal.
func (cp *vecCompiler) aggArgSafe(name string, e Expr) bool {
	switch x := e.(type) {
	case *ELit:
		if x.Value.IsNull() {
			return true
		}
		if name == "SUM" || name == "AVG" {
			return x.Value.IsNumeric()
		}
		return true
	case *EColumn:
		ref, local := cp.p.local(cp.sp, x)
		if !local {
			return false
		}
		if name == "SUM" || name == "AVG" {
			return ref.typ == TInt || ref.typ == TFloat
		}
		return true // MIN/MAX/COUNT over a homogeneous column cannot error
	}
	return false
}

// compileOrderKey compiles one ORDER BY key, mirroring the row engine's
// resolution order: select alias first, then integer ordinal within the
// expanded output width, then plain evaluation (constant for literals).
// Grouped queries keep the raw expression (gx): finalizeGroups evaluates it
// per surviving group through the row evaluator with the aggregates
// pre-folded and the representative row bound — the row engine's exact group
// context — after collecting its aggregate call sites with the same
// eagerness rule as projection items (the row engine evaluates order keys
// only for groups HAVING passes).
func (cp *vecCompiler) compileOrderKey(e Expr, st *SelectStmt, sp *selectPlan, vp *vecSelectPlan, outWidth int) (vecOrderKey, bool) {
	if col, ok := e.(*EColumn); ok && col.Qual == "" {
		if idx, ok := sp.aliases[strings.ToLower(col.Name)]; ok {
			return vecOrderKey{outCol: idx}, true
		}
	}
	if lit, ok := e.(*ELit); ok {
		if lit.Value.IsInt() {
			n := int(lit.Value.Int())
			if n >= 1 && n <= outWidth {
				return vecOrderKey{outCol: n - 1}, true
			}
		}
		return vecOrderKey{outCol: -1, cval: lit.Value}, true
	}
	if vp.grouped {
		if !cp.collectAggs(e, vp, st.Having == nil) {
			return vecOrderKey{}, false
		}
		return vecOrderKey{outCol: -1, gx: e}, true
	}
	ex, ok := cp.compile(e, vp.nTab)
	if !ok {
		return vecOrderKey{}, false
	}
	return vecOrderKey{outCol: -1, ex: ex}, true
}

// corrSub compiles a subquery or EXISTS of the given shape into a vexpr, in
// one of two forms:
//
//  1. vecLazy, when it reads no local table — closed, or correlated only
//     with enclosing SELECTs, as every subquery nested below the context
//     relation of a set-form property query is. The frames it reads are
//     fixed for the whole execution, so it has one value per execution:
//     evaluated on the first batch that reaches it and handed out as a
//     constant.
//  2. decorrelate, for a scalar subquery linked to the compiling SELECT by
//     equality conjuncts only: one hash build per execution over every key,
//     probed once per row.
//
// Every other correlated shape refuses, under "subquery", and the whole
// SELECT node runs on the row interpreter. What it reads comes from the
// planner's bindings (stmtPlan.reads).
//
// Every occurrence of one shape at one pipeline stage shares one compiled
// form (corrSite), and so one build: a LET value the property compiler
// renders in c0 and again in s0 — byte-identical text, so one shape id — is
// analyzed, compiled and built once. Within one SELECT, equal text at one
// stage binds alike, so it has the same value.
func (cp *vecCompiler) corrSub(e Expr, shape, ntab int) (vexpr, bool) {
	site := corrSite{shape: shape, ntab: ntab}
	if ve, ok := cp.subs[site]; ok {
		return ve, true
	}
	ve := vecLazy(e)
	if cp.p.reads(e).at(cp.sp.level) {
		x, isSub := e.(*ESubquery)
		if !isSub {
			return nil, cp.fail(fbSubquery)
		}
		var ok bool
		if ve, ok = cp.decorrelate(x, ntab); !ok {
			return nil, cp.fail(fbSubquery)
		}
	}
	if cp.subs == nil {
		cp.subs = make(map[corrSite]vexpr)
	}
	cp.subs[site] = ve
	return ve, true
}

// corrSite identifies a correlated subexpression's compiled form within one
// SELECT node: its shape id and the pipeline stage it runs at (a clause
// binds its references among the tables bound at its stage).
type corrSite struct {
	shape int
	ntab  int
}

// corrBuildPlan is the build side of a decorrelated subquery (decorrelate):
// a SELECT synthesized over the subquery's own tables that projects the
// inner key expressions followed by the value — the item, or the argument
// of an aggregate item, which the build folds per key — planned and compiled
// once, and shared by every occurrence of the subquery's site (corrSite).
type corrBuildPlan struct {
	sp   *selectPlan
	slot int // the execution's build state is vecCtx.builds[slot]
	// spares are the build states the last executions or build tables gave
	// back, emptied, at the size this build grew them to (take, give): two,
	// so that an execution which builds its own while a build table borrows
	// the one finds the other. The plan is the states' one owner: a build
	// table only borrows them.
	spares [2]atomic.Pointer[corrBuild]
	// spills counts the builds that spilled their slot array to the map
	// (corrBuild.spill): once one has, every later build starts in the map.
	spills atomic.Int64
	nkey   int
	// agg is the upper-cased aggregate of an aggregate item, "" for a plain
	// one; star marks COUNT(*), which projects no value.
	agg  string
	star bool
	// empty is the value of a key no row carries: NULL, or 0 under COUNT.
	empty Value
	// keyed lists the inner keys the build may be seeded through by the
	// values its probes carry (vecCtx.startBuild): columns reached by a key
	// access (colAccess). It is empty unless every row such a seed skips is
	// one the correlated form evaluates nothing raising on — planJoinAccess's
	// quiet rule over the residue, and every inner key a column or a literal.
	keyed []probeKey
	// share identifies the build across the statements of an analysis
	// (ShareBuilds); nil when the build is not shared.
	share *buildShare
}

// take returns one of the plan's spare build states, or state of its own
// when other executions or build tables hold both.
func (bp *corrBuildPlan) take() *corrBuild {
	for i := range bp.spares {
		if bd := bp.spares[i].Swap(nil); bd != nil {
			return bd
		}
	}
	return &corrBuild{plan: bp}
}

// give empties bd and makes it a spare of the plan, unless it has two.
func (bp *corrBuildPlan) give(bd *corrBuild) {
	bd.reset()
	for i := range bp.spares {
		if bp.spares[i].CompareAndSwap(nil, bd) {
			return
		}
	}
}

// probeKey is an inner key of a build, key its ordinal, that a key access
// reaches.
type probeKey struct {
	key int
	ka  keyAccess
}

// decorrelate compiles a scalar subquery whose only links to the compiling
// SELECT's tables are one or two top-level WHERE conjuncts inner = outer —
// inner reading the subquery's own tables and parameters only, outer nothing
// of the subquery's scope — into a probe of a build side (corrBuildPlan).
// The rest of the subquery runs once per execution, when the first batch
// reaches the probe, over the keys that batch asks for — or over every key,
// where seeding by them would not read fewer rows (vecCtx.startBuild), or
// where a later batch asks for a key that seed did not read; each row then
// looks its outer key up in a hash map. A key no row carries gives NULL (0
// under COUNT); a key several rows carry raises the row engine's cardinality
// error, for the rows that probe it only; a NULL component never matches.
//
// The build may evaluate the subquery's expressions on rows the correlated
// executions never visit, never the other way round: it scans the FROM table
// (a correlated access path other than a key's own would seed it by Key
// equality, which parts from Compare's — refused), or seeds it through a key
// or the pinned joined table where no row it skips could raise
// (planJoinAccess, vecCtx.startBuild); it filters by every non-key conjunct
// and evaluates the inner keys on every row that passes — so an inner key
// that could raise (anything but a column or a literal) is allowed only
// without such a filter. A build that succeeds has therefore seen every
// error the correlated form could raise. One that fails, and a probe key
// that fails to evaluate (the correlated form evaluates it only against rows
// of the subquery, which may have none), return errReplay: the compiling
// SELECT runs again, whole, on the row interpreter. Per key, rows arrive in
// FROM-table storage order, then join-match order — the order the correlated
// execution visits them — so aggregates fold bit-identically.
//
// Both sides of a key share one static type, INTEGER or BOOLEAN (keyType):
// hash equality is Compare's equality there — across types, or for REALs,
// where NaN compares equal to every number, it is not — and for INTEGERs
// only within ±2^53, beyond which Compare's float64 conversion merges
// neighbours; such keys replay at runtime (corrHash). TEXT keys would hash
// exactly too; no property needs them, so they refuse and the hash key stays
// two machine words.
func (cp *vecCompiler) decorrelate(x *ESubquery, ntab int) (vexpr, bool) {
	st := x.Select
	sp := cp.p.selects[st]
	if sp.from == nil || st.Where == nil ||
		len(st.GroupBy) != 0 || st.Having != nil || len(st.OrderBy) != 0 ||
		st.Limit != nil || len(st.Items) != 1 || st.Items[0].Star {
		return nil, false
	}
	item := st.Items[0].Expr
	call, _ := item.(*ECall)
	if call == nil || !call.IsAggregate() {
		call = nil
		if hasAggregate(item) {
			return nil, false
		}
	}
	correlated := func(e Expr) bool { return cp.p.reads(e).at(cp.sp.level) }
	if correlated(item) {
		return nil, false
	}
	for _, j := range st.Joins {
		if correlated(j.On) {
			return nil, false
		}
	}
	var ibuf, obuf [2]Expr
	var cbuf, rbuf [8]Expr
	inner, outer, resid := ibuf[:0], obuf[:0], rbuf[:0]
	for _, c := range appendConjuncts(cbuf[:0], st.Where) {
		if !correlated(c) {
			resid = append(resid, c)
			continue
		}
		in, out, ok := cp.keySides(c, sp.level)
		if !ok || len(inner) == 2 {
			return nil, false
		}
		inner, outer = append(inner, in), append(outer, out)
	}
	if len(inner) == 0 {
		return nil, false
	}
	for _, ap := range sp.access {
		if !slices.Contains(outer, ap.val) {
			return nil, false
		}
	}
	if len(resid) > 0 {
		for _, in := range inner {
			switch in.(type) {
			case *EColumn, *ELit:
			default:
				return nil, false
			}
		}
	}
	bp := cp.corrBuild(x, sp, inner, resid, call)
	if bp == nil {
		return nil, false
	}
	keys := make([]vexpr, len(outer))
	for j, o := range outer {
		ke, ok := cp.compile(o, ntab)
		if !ok {
			return nil, false
		}
		keys[j] = ke
	}
	return corrProbe(bp, keys), true
}

// keySides splits a correlated WHERE conjunct of a subquery, the SELECT at
// nesting level level, into the inner and outer side of a decorrelation key:
// an equality whose inner side reads only the subquery's tables and
// parameters, whose outer side reads none of the subquery's tables, and
// whose sides share a hashable static type.
func (cp *vecCompiler) keySides(c Expr, level int) (inner, outer Expr, ok bool) {
	eq, isBin := c.(*EBinary)
	if !isBin || eq.Op != OpEq {
		return nil, nil, false
	}
	fits := func(in, out Expr) bool {
		if !cp.p.reads(in).within(level) || cp.p.reads(out).at(level) {
			return false
		}
		ti, ok := cp.keyType(in)
		if !ok {
			return false
		}
		to, ok := cp.keyType(out)
		return ok && ti == to
	}
	switch {
	case fits(eq.L, eq.R):
		return eq.L, eq.R, true
	case fits(eq.R, eq.L):
		return eq.R, eq.L, true
	}
	return nil, nil, false
}

// keyType is the static type of a decorrelation key — a literal, or the
// declared type of the column it reads, through scalar subqueries and
// MIN/MAX — when the build side hashes it: INTEGER or BOOLEAN. A column of a
// SELECT around the compiling one has no type here.
func (cp *vecCompiler) keyType(e Expr) (ColType, bool) {
	hashable := func(t ColType) (ColType, bool) { return t, t == TInt || t == TBool }
	switch x := e.(type) {
	case *ELit:
		switch x.Value.kind {
		case kindInt:
			return TInt, true
		case kindBool:
			return TBool, true
		}
	case *EColumn:
		if ref := cp.p.cols[x]; ref.tab >= 0 && ref.level >= cp.sp.level {
			return hashable(ref.typ)
		}
	case *ESubquery:
		st := x.Select
		if cp.p.selects[st].from != nil && len(st.Items) == 1 && !st.Items[0].Star {
			return cp.keyType(st.Items[0].Expr)
		}
	case *ECall:
		if name := strings.ToUpper(x.Name); (name == "MIN" || name == "MAX") && !x.Star && len(x.Args) == 1 {
			return cp.keyType(x.Args[0])
		}
	}
	return 0, false
}

// corrBuild synthesizes and compiles the build side of a decorrelated
// subquery: the subquery's FROM and joins, its non-key conjuncts as WHERE,
// its inner keys then its value as projection — the subquery's own
// expressions, bound in its scope, which the build's has the same tables as.
// nil when the aggregate is malformed (the row engine raises its error) or
// the synthesized SELECT does not vectorize.
func (cp *vecCompiler) corrBuild(x *ESubquery, sp *selectPlan, inner, resid []Expr, call *ECall) *corrBuildPlan {
	st := x.Select
	syn := &SelectStmt{From: st.From, Joins: st.Joins}
	for _, c := range resid {
		if syn.Where == nil {
			syn.Where = c
		} else {
			syn.Where = &EBinary{Op: OpAnd, L: syn.Where, R: c}
		}
	}
	for _, k := range inner {
		syn.Items = append(syn.Items, SelectItem{Expr: k})
	}
	bp := &corrBuildPlan{slot: cp.builds, nkey: len(inner)}
	switch {
	case call == nil:
		syn.Items = append(syn.Items, st.Items[0])
	case call.Star && strings.EqualFold(call.Name, "COUNT"):
		bp.agg, bp.star, bp.empty = "COUNT", true, NewInt(0)
	case !call.Star && len(call.Args) == 1:
		syn.Items = append(syn.Items, SelectItem{Expr: call.Args[0]})
		if bp.agg = strings.ToUpper(call.Name); bp.agg == "COUNT" {
			bp.empty = NewInt(0)
		}
	default:
		return nil
	}
	// The subquery's tables and join strategies, and no access path on the
	// FROM table — the build is seeded by what its probes ask for, or by the
	// join access its residue pins (vecCtx.startBuild) — so it visits the
	// FROM table's candidate rows in storage order.
	bp.sp = &selectPlan{level: sp.level, from: sp.from, fromBinding: sp.fromBinding, joins: sp.joins}
	var quiet bool
	bp.sp.pin, quiet = cp.p.planJoinAccess(bp.sp, resid)
	for j, in := range inner {
		col, isCol := in.(*EColumn)
		if !isCol {
			if _, isLit := in.(*ELit); !isLit {
				quiet = false
			}
			continue
		}
		if ka, ok := cp.p.colAccess(bp.sp, col); ok {
			bp.keyed = append(bp.keyed, probeKey{key: j, ka: ka})
		}
	}
	if !quiet {
		bp.keyed = nil
	}
	if bp.sp.vec, _ = compileVecSelect(cp.p, syn, bp.sp); bp.sp.vec == nil {
		return nil
	}
	bp.share = cp.buildShare(x, syn, bp.sp)
	cp.builds++
	return bp
}

// corrProbe is the per-row side of a decorrelated subquery: evaluate the
// outer keys over the batch, build on first use (vecCtx.buildSide), and look
// every row up.
func corrProbe(bp *corrBuildPlan, keys []vexpr) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		var cols [2]*vcol
		defer func() {
			for _, c := range cols {
				if c != nil {
					vc.putCol(c)
				}
			}
		}()
		for j, ke := range keys {
			cols[j] = vc.getCol()
			if ke(vc, b, cols[j]) != nil {
				return errReplay
			}
		}
		bd, err := vc.buildSide(bp, cols[:len(keys)], b.n)
		if err != nil {
			return err
		}
		vals := out.alloc(b.n)
		var kv [2]Value
		for i := 0; i < b.n; i++ {
			for j := range keys {
				kv[j] = cols[j].at(i)
			}
			k, null, ok := corrHash(kv[:len(keys)])
			switch {
			case !ok:
				return errReplay
			case null:
				vals[i] = bp.empty
				continue
			}
			e, found := bd.find(k)
			switch {
			case !found:
				vals[i] = bp.empty
			case bp.agg == "" && bd.hits[e].rows > 1:
				return fmt.Errorf("sqldb: scalar subquery returned %d rows", bd.hits[e].rows)
			default:
				vals[i] = bd.hits[e].v
			}
		}
		return nil
	}
}

// compile builds the vexpr of one expression over the first ntab bound
// tables, or reports that the shape is not covered.
func (cp *vecCompiler) compile(e Expr, ntab int) (vexpr, bool) {
	switch x := e.(type) {
	case *ELit:
		v := x.Value
		return func(vc *vecCtx, b *vbatch, out *vcol) error {
			out.setConst(v)
			return nil
		}, true
	case *EParam:
		return vecParam(x), true
	case *EColumn:
		ref := cp.p.cols[x]
		switch {
		case ref.tab < 0:
			err := unboundErr(x, ref.ambiguous)
			return func(*vecCtx, *vbatch, *vcol) error { return err }, true
		case ref.level == cp.sp.level && ref.tab < ntab:
			return vecColumn(ref.tab, ref.col), true
		case ref.level < cp.sp.level:
			return vecOuter(ref), true
		}
		return nil, false
	case *EUnary:
		child, ok := cp.compile(x.X, ntab)
		if !ok {
			return nil, false
		}
		return vecUnary(x.Neg, child), true
	case *EBinary:
		l, ok := cp.compile(x.L, ntab)
		if !ok {
			return nil, false
		}
		r, ok := cp.compile(x.R, ntab)
		if !ok {
			return nil, false
		}
		if x.Op == OpAnd || x.Op == OpOr {
			return vecAndOr(x.Op, l, r), true
		}
		return vecBinary(x.Op, l, r), true
	case *EIsNull:
		child, ok := cp.compile(x.X, ntab)
		if !ok {
			return nil, false
		}
		not := x.Not
		return func(vc *vecCtx, b *vbatch, out *vcol) error {
			c := vc.getCol()
			defer vc.putCol(c)
			if err := child(vc, b, c); err != nil {
				return err
			}
			if c.isConst {
				out.setConst(NewBool(c.cval.IsNull() != not))
				return nil
			}
			vals := out.alloc(b.n)
			for i := 0; i < b.n; i++ {
				vals[i] = NewBool(c.vals[i].IsNull() != not)
			}
			return nil
		}, true
	case *ECall:
		if x.IsAggregate() {
			// Aggregates are handled by the grouped pipeline (collectAggs);
			// anywhere else the row engine raises the matching error.
			return nil, false
		}
		args := make([]vexpr, len(x.Args))
		for i, a := range x.Args {
			ae, ok := cp.compile(a, ntab)
			if !ok {
				return nil, false
			}
			args[i] = ae
		}
		return vecCall(x.Name, args), true
	case *ESubquery:
		return cp.corrSub(x, x.Shape, ntab)
	case *EExists:
		return cp.corrSub(x, x.Shape, ntab)
	case *EIn:
		// An IN subquery that reads no local table has one candidate list per
		// execution (inCandidates); a correlated one refuses.
		if x.Sub != nil && cp.p.selects[x.Sub].outer.at(cp.sp.level) {
			return nil, cp.fail(fbSubquery)
		}
		xe, ok := cp.compile(x.X, ntab)
		if !ok {
			return nil, false
		}
		if x.Sub != nil {
			return vecInSub(x, xe), true
		}
		list := make([]vexpr, len(x.List))
		for i, a := range x.List {
			ae, ok := cp.compile(a, ntab)
			if !ok {
				return nil, false
			}
			list[i] = ae
		}
		return vecInList(xe, list, x.Not), true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Compiled operators
// ---------------------------------------------------------------------------

// vecParam evaluates a parameter marker through the row evaluator, on every
// batch that reaches it: binding errors are the row engine's.
func vecParam(x *EParam) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		v, err := vc.ec.eval(x, &vc.fr)
		if err != nil {
			return err
		}
		out.setConst(v)
		return nil
	}
}

// vecOuter reads the column ref binds, of a SELECT around the compiling one:
// a per-execution constant, since the frames around a SELECT do not move
// while it executes.
func vecOuter(ref colRef) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		fr := vc.fr.parent
		for fr.level != ref.level {
			fr = fr.parent
		}
		out.setConst(fr.tables[ref.tab].value(ref.col))
		return nil
	}
}

// vecColumn loads a column of bound table tab for every batch row, straight
// from the typed storage vectors.
func vecColumn(tab, col int) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		cv := vc.tabs[tab].cols[col]
		pos := b.pos[tab]
		vals := out.alloc(b.n)
		switch cv.typ {
		case TInt:
			for i, p := range pos {
				if cv.nulls.get(int(p)) {
					vals[i] = Value{}
				} else {
					vals[i] = Value{kind: kindInt, i: cv.ints[p]}
				}
			}
		case TBool:
			for i, p := range pos {
				if cv.nulls.get(int(p)) {
					vals[i] = Value{}
				} else {
					vals[i] = Value{kind: kindBool, i: cv.ints[p]}
				}
			}
		case TFloat:
			for i, p := range pos {
				if cv.nulls.get(int(p)) {
					vals[i] = Value{}
				} else {
					vals[i] = Value{kind: kindFloat, f: cv.flts[p]}
				}
			}
		case TText:
			for i, p := range pos {
				if cv.nulls.get(int(p)) {
					vals[i] = Value{}
				} else {
					vals[i] = Value{kind: kindText, s: cv.strs[p]}
				}
			}
		}
		return nil
	}
}

func vecUnary(neg bool, child vexpr) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		c := vc.getCol()
		defer vc.putCol(c)
		if err := child(vc, b, c); err != nil {
			return err
		}
		if c.isConst {
			v, err := applyUnary(neg, c.cval)
			if err != nil {
				return err
			}
			out.setConst(v)
			return nil
		}
		vals := out.alloc(b.n)
		for i := 0; i < b.n; i++ {
			v, err := applyUnary(neg, c.vals[i])
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

// vecBinary evaluates a non-logical binary operator: both sides fully, then
// the shared kernel per row — the same evaluation set as the row engine,
// which has no short-circuit for these operators. Comparisons against a
// constant take a typed fast path that bypasses the kernel's double dispatch
// while reproducing Compare exactly.
func vecBinary(op BinOp, l, r vexpr) vexpr {
	cmp := op == OpEq || op == OpNeq || op == OpLt || op == OpLeq || op == OpGt || op == OpGeq
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		lc := vc.getCol()
		defer vc.putCol(lc)
		if err := l(vc, b, lc); err != nil {
			return err
		}
		rc := vc.getCol()
		defer vc.putCol(rc)
		if err := r(vc, b, rc); err != nil {
			return err
		}
		if lc.isConst && rc.isConst {
			v, err := applyBinary(op, lc.cval, rc.cval)
			if err != nil {
				return err
			}
			out.setConst(v)
			return nil
		}
		vals := out.alloc(b.n)
		if cmp && rc.isConst && !rc.cval.IsNull() {
			if done, err := cmpColConst(op, lc.vals, rc.cval, vals); done {
				return err
			}
		}
		for i := 0; i < b.n; i++ {
			v, err := applyBinary(op, lc.at(i), rc.at(i))
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

// cmpColConst compares a value vector against a non-NULL constant without
// per-row kernel dispatch. It handles the homogeneous cases — numeric vs
// numeric and text vs text (modulo NULLs) — and reports done=false when a
// row needs the full kernel (mixed types, error cases), which then re-runs
// the whole batch through applyBinary.
func cmpColConst(op BinOp, lv []Value, rv Value, out []Value) (bool, error) {
	sign := func(cmp int) bool {
		switch op {
		case OpEq:
			return cmp == 0
		case OpNeq:
			return cmp != 0
		case OpLt:
			return cmp < 0
		case OpLeq:
			return cmp <= 0
		case OpGt:
			return cmp > 0
		}
		return cmp >= 0
	}
	switch {
	case rv.IsNumeric():
		rf := rv.Float()
		for i, v := range lv {
			switch v.kind {
			case kindNull:
				out[i] = Value{}
			case kindInt:
				lf := float64(v.i)
				out[i] = NewBool(sign(b2i(lf > rf) - b2i(lf < rf)))
			case kindFloat:
				out[i] = NewBool(sign(b2i(v.f > rf) - b2i(v.f < rf)))
			default:
				return false, nil
			}
		}
		return true, nil
	case rv.IsText():
		rs := rv.Text()
		for i, v := range lv {
			switch v.kind {
			case kindNull:
				out[i] = Value{}
			case kindText:
				out[i] = NewBool(sign(strings.Compare(v.s, rs)))
			default:
				return false, nil
			}
		}
		return true, nil
	}
	return false, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// vecAndOr evaluates AND/OR with selection narrowing that mirrors the row
// engine's short-circuit exactly: the right operand runs only over the batch
// rows whose left value did not decide the result (a decisive boolean —
// false for AND, true for OR), so both engines evaluate the same set of
// (row, subexpression) pairs and surface the same errors.
func vecAndOr(op BinOp, l, r vexpr) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		lc := vc.getCol()
		defer vc.putCol(lc)
		if err := l(vc, b, lc); err != nil {
			return err
		}
		if lc.isConst {
			if decided, v := logicalShortCircuit(op, lc.cval); decided {
				out.setConst(v)
				return nil
			}
			// Undecided for every row: evaluate R over the whole batch.
			rc := vc.getCol()
			defer vc.putCol(rc)
			if err := r(vc, b, rc); err != nil {
				return err
			}
			if rc.isConst {
				v, err := combineAndOr(op, lc.cval, rc.cval)
				if err != nil {
					return err
				}
				out.setConst(v)
				return nil
			}
			vals := out.alloc(b.n)
			for i := 0; i < b.n; i++ {
				v, err := combineAndOr(op, lc.cval, rc.vals[i])
				if err != nil {
					return err
				}
				vals[i] = v
			}
			return nil
		}

		vals := out.alloc(b.n)
		// First pass: decide what the left side alone decides.
		sub := vc.getBatch(len(b.pos))
		defer vc.putBatch(sub)
		subIdx := vc.getIdx()
		defer func() { vc.putIdx(subIdx) }()
		for i := 0; i < b.n; i++ {
			if decided, v := logicalShortCircuit(op, lc.vals[i]); decided {
				vals[i] = v
				continue
			}
			subIdx = append(subIdx, int32(i))
		}
		if len(subIdx) == 0 {
			return nil
		}
		rc := vc.getCol()
		defer vc.putCol(rc)
		if len(subIdx) == b.n {
			// No row decided by the left side alone — the common case after
			// an index seed. Evaluate R over the batch as-is, skipping the
			// sub-batch gather.
			if err := r(vc, b, rc); err != nil {
				return err
			}
			for i := 0; i < b.n; i++ {
				v, err := combineAndOr(op, lc.vals[i], rc.at(i))
				if err != nil {
					return err
				}
				vals[i] = v
			}
			return nil
		}
		gatherBatch(sub, b, subIdx)
		if err := r(vc, sub, rc); err != nil {
			return err
		}
		for k, i := range subIdx {
			v, err := combineAndOr(op, lc.vals[i], rc.at(k))
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

func vecCall(name string, args []vexpr) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		base := len(vc.callCols)
		defer func() {
			for _, c := range vc.callCols[base:] {
				vc.putCol(c)
			}
			vc.callCols = vc.callCols[:base]
		}()
		for _, a := range args {
			c := vc.getCol()
			vc.callCols = append(vc.callCols, c)
			if err := a(vc, b, c); err != nil {
				return err
			}
		}
		cols := vc.callCols[base:]
		if cap(vc.callArgs) < len(args) {
			vc.callArgs = make([]Value, len(args))
		}
		argBuf := vc.callArgs[:len(args)]
		vals := out.alloc(b.n)
		for i := 0; i < b.n; i++ {
			for j, c := range cols {
				argBuf[j] = c.at(i)
			}
			v, err := applyScalarFunc(name, argBuf)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

// vecLazy evaluates a subexpression that reads no table of the compiling
// SELECT (a closed scalar subquery or EXISTS, or one correlated with enclosing
// SELECTs only) lazily: once per execution, on the first batch that reaches
// it, through the row engine — which serves a closed one from the
// statement-wide invariant-subquery cache.
func vecLazy(e Expr) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		v, err := vc.lazyEval(e)
		if err != nil {
			return err
		}
		out.setConst(v)
		return nil
	}
}

func vecInSub(x *EIn, xe vexpr) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		lc := vc.getCol()
		defer vc.putCol(lc)
		if err := xe(vc, b, lc); err != nil {
			return err
		}
		cands, err := vc.inCandidates(x)
		if err != nil {
			return err
		}
		if lc.isConst {
			v, err := applyInList(lc.cval, cands, x.Not)
			if err != nil {
				return err
			}
			out.setConst(v)
			return nil
		}
		vals := out.alloc(b.n)
		for i := 0; i < b.n; i++ {
			v, err := applyInList(lc.vals[i], cands, x.Not)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

func vecInList(xe vexpr, list []vexpr, not bool) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		lc := vc.getCol()
		defer vc.putCol(lc)
		if err := xe(vc, b, lc); err != nil {
			return err
		}
		cols := make([]*vcol, len(list))
		for i, a := range list {
			c := vc.getCol()
			cols[i] = c
			if err := a(vc, b, c); err != nil {
				for _, cc := range cols[:i+1] {
					vc.putCol(cc)
				}
				return err
			}
		}
		defer func() {
			for _, c := range cols {
				vc.putCol(c)
			}
		}()
		cands := make([]Value, len(list))
		vals := out.alloc(b.n)
		for i := 0; i < b.n; i++ {
			for j, c := range cols {
				cands[j] = c.at(i)
			}
			v, err := applyInList(lc.at(i), cands, not)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

// gatherBatch fills dst with the rows of src selected by idx.
func gatherBatch(dst *vbatch, src *vbatch, idx []int32) {
	dst.n = len(idx)
	for t := range src.pos {
		col := dst.pos[t][:0]
		if len(src.pos[t]) == 0 {
			dst.pos[t] = col // a table not bound yet
			continue
		}
		for _, i := range idx {
			col = append(col, src.pos[t][i])
		}
		dst.pos[t] = col
	}
}
