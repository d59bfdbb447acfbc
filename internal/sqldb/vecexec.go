package sqldb

// The vectorized SELECT pipeline. A compiled plan (vec.go) runs here as a
// chain of physical operators over batches of row positions:
//
//	seed (access paths / full scan, as positions)
//	  → hash-join probes (equi-column index, built lazily like the row engine)
//	  → residual-conjunct and WHERE filters (selection-vector narrowing)
//	  → projection, or streaming grouped aggregation
//	  → shared ORDER BY / LIMIT tail (exec.go)
//
// The stages up to WHERE (scan) also feed the build side of a decorrelated
// subquery (vec.go's decorrelate), which folds its batches straight into a
// hash table keyed by the subquery's correlation keys (build, fold), and an
// UPDATE or DELETE, which lists the rows they keep (vecMatch).
//
// The pipeline mirrors the row interpreter's observable behavior exactly:
// same seed strategy (including falling back to a scan when an access path's
// key errors), same join expansion order (index position order), same
// conjunct narrowing order, same first-seen group order, same accumulation
// order (so float sums are bit-identical), and the same shared sort/LIMIT
// code. Grouped finalization is hybrid: aggregates are accumulated here,
// batch-at-a-time, then the scalar parts of the projection and HAVING run
// through the row evaluator with the aggregate call sites pre-folded
// (execCtx.aggPre), against the group's representative row — and, once an
// aggregate is read, its last row (execCtx.aggLast).

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// vecGroup is the streaming state of one group: the row positions of the
// group's first row (mirroring the row engine's rep tuple) and of its last
// (the row its aggregate loop leaves bound), one accumulator per aggregate
// call site, and the tuple count.
type vecGroup struct {
	rep    []int32
	last   []int32
	hasRep bool
	accs   []aggAcc
	n      int64
}

func (ec *execCtx) vecExecSelect(st *SelectStmt, sp *selectPlan, parent *frame) (*ResultSet, error) {
	rows, err := ec.vecExecRows(st, sp, parent)
	if err != nil {
		return nil, err
	}
	set := &ResultSet{Columns: sp.vec.columns}
	set.Rows = make([]Row, len(rows))
	for i := range rows {
		set.Rows[i] = rows[i].row
	}
	return set, nil
}

// vecExecSub evaluates a planned SELECT in scalar-subquery or EXISTS
// position (subValue) without materializing a ResultSet — the shape the
// property queries hit once per attribute dereference.
func (ec *execCtx) vecExecSub(st *SelectStmt, sp *selectPlan, exists bool, parent *frame) (Value, error) {
	rows, err := ec.vecExecRows(st, sp, parent)
	if err != nil {
		return Null, err
	}
	return subValue(exists, len(sp.vec.columns), len(rows), func(i int) Value { return rows[i].row[0] })
}

// vecExecRows runs the compiled pipeline of one planned SELECT and returns
// the ordered, limited output rows. Row cells are freshly allocated —
// nothing aliases the pooled context, which is released on return.
func (ec *execCtx) vecExecRows(st *SelectStmt, sp *selectPlan, parent *frame) ([]sortableRow, error) {
	vp := sp.vec
	vc := acquireVecCtx(ec, vp.nTab)
	defer vc.release()

	var rows []sortableRow

	// Grouped state, shared across batches: first-seen key order, as in
	// groupTuples. Without GROUP BY the single group exists even when empty —
	// and lives on the pooled context (the scalar-aggregation shape of the
	// property queries), skipping the key/map machinery entirely.
	var groups map[string]*vecGroup
	var groupOrder []string
	var single *vecGroup
	newGroup := func() *vecGroup {
		g := &vecGroup{}
		if len(vp.aggs) > 0 {
			g.accs = make([]aggAcc, len(vp.aggs))
			for i := range g.accs {
				g.accs[i] = newAggAcc()
			}
		}
		return g
	}
	if vp.grouped {
		if len(vp.groupBy) == 0 {
			single = vc.singleGroup(vp)
		} else {
			groups = make(map[string]*vecGroup)
		}
	}

	keyBuf := vc.keyBuf
	err := vc.scan(sp, parent, func(b *vbatch) error {
		if !vp.grouped {
			out, err := vc.project(b, vp)
			rows = append(rows, out...)
			return err
		}
		if single != nil {
			return vc.accumulateSingle(b, vp, single)
		}
		var err error
		keyBuf, err = vc.accumulate(b, vp, groups, &groupOrder, newGroup, keyBuf)
		return err
	})
	vc.keyBuf = keyBuf
	if err != nil {
		return nil, err
	}

	if vp.grouped {
		seq := vc.groupSeq[:0]
		if single != nil {
			seq = append(seq, single)
		} else {
			for _, k := range groupOrder {
				seq = append(seq, groups[k])
			}
		}
		vc.groupSeq = seq
		rows, err = vc.finalizeGroups(st, vp, seq)
		if err != nil {
			return nil, err
		}
	}

	if err := sortRows(rows, st.OrderBy); err != nil {
		return nil, err
	}

	if st.Limit != nil {
		lv, err := ec.eval(st.Limit, &vc.fr)
		if err != nil {
			return nil, err
		}
		if !lv.IsNumeric() {
			return nil, fmt.Errorf("sqldb: LIMIT is not numeric")
		}
		n := int(lv.Float())
		if n < 0 {
			n = 0
		}
		if n < len(rows) {
			rows = rows[:n]
		}
	}

	return rows, nil
}

// vecMatch is execDMLLocked's phase 1 on the vectorized engine: it runs the
// pipeline of sp, the SELECT that finds an UPDATE's or DELETE's rows, up to
// its WHERE, and lists the surviving positions of its table and, row after
// row, its items' values, evaluated column-major per batch and coerced to
// the types of the columns they are written to (stmtPlan.sets).
func (ec *execCtx) vecMatch(sp *selectPlan) (pos []int32, vals []Value, err error) {
	vc := acquireVecCtx(ec, sp.vec.nTab)
	defer vc.release()
	items := sp.vec.items
	err = vc.scan(sp, nil, func(b *vbatch) error {
		base, ns := len(vals), len(items)
		vals = slices.Grow(vals, b.n*ns)[:base+b.n*ns]
		c := vc.getCol()
		defer vc.putCol(c)
		for j, item := range items {
			if err := item(vc, b, c); err != nil {
				return err
			}
			typ := sp.from.Columns[ec.plan.sets[j]].Type
			for i := 0; i < b.n; i++ {
				v, err := coerce(c.at(i), typ)
				if err != nil {
					return err
				}
				vals[base+i*ns+j] = v
			}
		}
		if pos == nil {
			pos = make([]int32, 0, len(vc.seed)) // no more matches than seeded rows
		}
		pos = append(pos, b.pos[0][:b.n]...)
		return nil
	})
	return pos, vals, err
}

// scan runs the pipeline of a planned SELECT up to its WHERE clause — seed,
// joins, filter — with parent as the enclosing frame, and hands every batch
// with surviving rows to sink: the projection or grouping of vecExecRows,
// or an UPDATE's or DELETE's list of matches (vecMatch).
func (vc *vecCtx) scan(sp *selectPlan, parent *frame, sink func(b *vbatch) error) error {
	vc.bind(sp, parent)
	if sp.vec.nTab == 0 {
		return vc.scanSeed(sp, nil, sink)
	}
	// Seed positions while the frame holds only the first table —
	// access-path keys resolve exactly as they would in the row engine's
	// seed phase.
	vc.fr.tables = vc.bts[:1]
	vc.seed = vc.ec.seed(sp, &vc.fr, vc.seed[:0])
	return vc.scanSeed(sp, vc.seed, sink)
}

// bind binds the tables of a planned SELECT, with parent as the enclosing
// frame. No row is bound — batch positions replace the binding — except
// while grouped finalization evaluates one row through the row evaluator.
func (vc *vecCtx) bind(sp *selectPlan, parent *frame) {
	vc.fr = frame{parent: parent, level: sp.level}
	if sp.vec.nTab == 0 {
		return
	}
	vc.btStore[0] = boundTable{binding: sp.fromBinding, table: sp.from}
	vc.tabs[0] = sp.from
	for i := range sp.joins {
		vc.btStore[i+1] = boundTable{binding: sp.joins[i].binding, table: sp.joins[i].table}
		vc.tabs[i+1] = sp.joins[i].table
	}
}

// scanSeed runs the pipeline of a bound SELECT (bind) from seed, the
// positions of its first table's candidate rows in storage order (a scan, or
// a build side's — vecCtx.startBuild). A table-less SELECT runs one batch of
// one empty tuple, mirroring the row engine's single seed tuple.
func (vc *vecCtx) scanSeed(sp *selectPlan, seed []int32, sink func(b *vbatch) error) error {
	vp := sp.vec
	tabs := vc.tabs
	if vp.nTab > 0 {
		vc.fr.tables = vc.bts
	}

	// Grab each equi-join's probe index once: indexes mutate only under the
	// exclusive DB statement lock, so probes need no further locking.
	// Nested-loop joins (eqCol < 0) have no index.
	idxs := vc.idxBuf[:0]
	for k := range vp.joins {
		if vp.joins[k].eqCol < 0 {
			idxs = append(idxs, nil)
			continue
		}
		t := tabs[k+1]
		t.createIndex(vp.joins[k].eqCol)
		idxs = append(idxs, t.index(vp.joins[k].eqCol))
	}
	vc.idxBuf = idxs

	// Decide the filter strategy for the whole execution: fused kernels when
	// every comparand binds and class-checks, the compiled filter tree
	// otherwise (which also reproduces comparand errors).
	fused := vp.fused
	if fused != nil && !vc.fuseReady(fused) {
		fused = nil
	}

	b, nb := &vc.b, &vc.nb
	for start := 0; ; start += vecBatchSize {
		if vp.nTab == 0 {
			// One batch of one empty tuple, like the row engine's seed.
			if start > 0 {
				break
			}
			b.n = 1
		} else {
			if start >= len(seed) {
				break
			}
			end := start + vecBatchSize
			if end > len(seed) {
				end = len(seed)
			}
			b.n = end - start
			// Copy the chunk out of the seed buffer into the batch's own
			// position array: a gather reusing a batch in place must never
			// write into unconsumed seed positions, and b and nb (which trade
			// places as the stages narrow) must never share an array — a join
			// expansion writes the one while it reads the other.
			b.pos[0] = append(b.pos[0][:0], seed[start:end]...)
			for t := 1; t < vp.nTab; t++ {
				b.pos[t] = b.pos[t][:0]
			}
		}

		// Join expansions, narrowing by the residual conjuncts after each.
		for k := range vp.joins {
			if b.n == 0 {
				break
			}
			if vp.joins[k].eqCol < 0 {
				vc.crossJoin(b, nb, k)
			} else if err := vc.probeJoin(b, nb, &vp.joins[k], k, idxs[k]); err != nil {
				return err
			}
			b, nb = nb, b
			for _, rest := range vp.joins[k].rest {
				if b.n == 0 {
					break
				}
				out, err := vc.narrow(b, nb, rest)
				if err != nil {
					return err
				}
				if out != b {
					b, nb = nb, b
				}
			}
		}
		if b.n == 0 {
			continue
		}

		// WHERE.
		if vp.filter != nil {
			if fused != nil {
				out := vc.narrowFused(b, nb, fused)
				if out != b {
					b, nb = nb, b
				}
			} else {
				out, err := vc.narrow(b, nb, vp.filter)
				if err != nil {
					return err
				}
				if out != b {
					b, nb = nb, b
				}
			}
			if b.n == 0 {
				continue
			}
		}

		if err := sink(b); err != nil {
			return err
		}
	}
	return nil
}

// corrBuild is one execution's build side of a decorrelated subquery
// (corrBuildPlan), started by the first probe that needs it: each key finds
// its entry in hits and, for an aggregate item, in accs. via is the
// bp.keyed entry the build is seeded through, -1 once it holds every key;
// seeded through a key, it holds the entries of the keys whose component
// there is one of vals, the values it read, ascending — others it may hold
// in part, and a probe for one rebuilds it by scan. plan is the build plan
// the state belongs to (corrBuildPlan.spares).
//
// A build its maker lent to an analysis's build table (lent; buildTable.claim)
// is the table's until it closes: params is the fingerprint of the values of
// the markers it read, next chains the builds under one buildKey, and done
// and ok tell that it is settled and complete. From settle on it is read,
// never written, by its maker too.
//
// A one-component key finds its entry by array offset while dense: slots[k-lo]
// holds the entry plus one, 0 for a key with none. A two-component key, one
// whose keys spread over more than denseFactor slots per row the build reads
// (rows), and every key of a plan one such build spilled in
// (corrBuildPlan.spills), go through index instead.
type corrBuild struct {
	via   int
	vals  []Value
	dense bool
	lo    int64
	rows  int
	slots []int32
	index map[corrHashKey]int32
	hits  []corrHit
	accs  []aggAcc
	plan  *corrBuildPlan

	params         []byte
	next           *corrBuild
	lent, done, ok bool
}

// minSlots is the smallest slot array a dense build lays out.
const minSlots = 64

// reset empties the build for its next use, keeping its slot array's, map's
// and slices' capacity.
func (bd *corrBuild) reset() {
	bd.next, bd.lent, bd.done, bd.ok = nil, false, false, false
	clear(bd.vals)
	bd.vals = bd.vals[:0]
	bd.clearEntries()
}

// clearEntries empties the build's entries: the slots it set, or its map.
func (bd *corrBuild) clearEntries() {
	if bd.dense {
		for i := range bd.hits {
			bd.slots[bd.hits[i].key-bd.lo] = 0
		}
	} else {
		clear(bd.index)
	}
	clear(bd.hits)
	clear(bd.accs)
	bd.hits, bd.accs = bd.hits[:0], bd.accs[:0]
}

// find returns the entry of key k.
func (bd *corrBuild) find(k corrHashKey) (e int32, found bool) {
	if bd.dense {
		if i := uint64(k[0] - bd.lo); i < uint64(len(bd.slots)) {
			e := bd.slots[i]
			return e - 1, e != 0
		}
		return 0, false
	}
	e, found = bd.index[k]
	return e, found
}

// insert adds an entry for key k, which has none, and returns it.
func (bd *corrBuild) insert(k corrHashKey, agg bool) int32 {
	e := int32(len(bd.hits))
	if bd.dense && !bd.place(k[0]) {
		bd.spill()
	}
	if bd.dense {
		bd.slots[k[0]-bd.lo] = e + 1
	} else {
		if bd.index == nil {
			bd.index = make(map[corrHashKey]int32)
		}
		bd.index[k] = e
	}
	bd.hits = append(bd.hits, corrHit{key: k[0]})
	if agg {
		bd.accs = append(bd.accs, newAggAcc())
	}
	return e
}

// place lays the slot array over key k and the keys the build holds. It
// moves the array only when k falls outside, growing it to twice the span
// where it is shorter, so that the next move waits for the span to grow by
// half. false, the array left as it is, when it would have to grow over
// more than denseFactor slots per row the build reads.
func (bd *corrBuild) place(k int64) bool {
	if uint64(k-bd.lo) < uint64(len(bd.slots)) {
		return true
	}
	lo, hi := k, k
	for i := range bd.hits {
		lo, hi = min(lo, bd.hits[i].key), max(hi, bd.hits[i].key)
	}
	span := hi - lo + 1
	grow := 2*span > int64(len(bd.slots))
	if grow && span > denseFactor*int64(bd.rows) {
		return false
	}
	for i := range bd.hits {
		bd.slots[bd.hits[i].key-bd.lo] = 0
	}
	if grow {
		bd.slots = make([]int32, max(2*span, minSlots))
	}
	bd.lo = lo - (int64(len(bd.slots))-span)/2
	for i := range bd.hits {
		bd.slots[bd.hits[i].key-bd.lo] = int32(i) + 1
	}
	return true
}

// spill moves a dense build's entries to the map.
func (bd *corrBuild) spill() {
	if bd.index == nil {
		bd.index = make(map[corrHashKey]int32, len(bd.hits))
	}
	for i := range bd.hits {
		bd.slots[bd.hits[i].key-bd.lo] = 0
		bd.index[corrHashKey{bd.hits[i].key}] = int32(i)
	}
	bd.dense = false
}

// corrHashKey is a build-side hash key: the INTEGER or BOOLEAN payloads of
// its one or two components.
type corrHashKey [2]int64

// corrHit is what a build side holds per key: the number of rows carrying it
// and the subquery's value — the first row's item, or the aggregate over the
// rows, finalized from accs once the build is complete.
type corrHit struct {
	key  int64 // the first component
	rows int64
	v    Value
}

// exactInt bounds the INTEGER keys a build side hashes: within ±2^53 float64
// represents every integer, so Compare's equality — through float64 — is
// integer equality.
const exactInt = 1 << 53

// errReplay is what a vectorized SELECT returns when a build or a probe
// cannot reproduce the row engine (see decorrelate): the SELECT node's
// dispatch site runs it again, whole, on the row interpreter (replayed). It
// never leaves the package.
var errReplay = errors.New("sqldb: replay on the row interpreter")

// corrHash packs a key tuple. null reports a NULL component, which never
// matches; ok=false a component hashing cannot compare as Compare does — an
// INTEGER beyond ±2^53, or a kind keyType never lets through.
func corrHash(vals []Value) (k corrHashKey, null, ok bool) {
	for j, v := range vals {
		switch v.kind {
		case kindNull:
			return k, true, true
		case kindBool:
			k[j] = v.i
		case kindInt:
			if v.i > exactInt || v.i < -exactInt {
				return k, false, false
			}
			k[j] = v.i
		default:
			return k, false, false
		}
	}
	return k, false, true
}

// buildSide returns this execution's build side of bp holding every key the
// n probe rows of keys ask for: the first probe takes it from the analysis's
// build table (sharedSide) or starts one in the plan's state (startBuild),
// and a later one that asks a build seeded by a key for a value it has not
// read rebuilds it by scan — a lent build, into state of the execution's
// own. A build the execution makes counts once in VecSelects.
func (vc *vecCtx) buildSide(bp *corrBuildPlan, keys []*vcol, n int) (*corrBuild, error) {
	for len(vc.builds) <= bp.slot {
		vc.builds = append(vc.builds, nil)
	}
	bd := vc.builds[bp.slot]
	switch {
	case bd == nil:
		if t := vc.ec.builds; t != nil && bp.share != nil {
			if bd, ok, err := vc.sharedSide(t, bp, keys, n); ok {
				vc.builds[bp.slot] = bd
				return bd, err
			}
		}
		bd = bp.take()
		vc.builds[bp.slot] = bd
		vc.ec.db.vecSelects.Add(1)
		return bd, vc.startBuild(bp, bd, keys, n)
	case bd.via >= 0 && !bd.holds(bp, keys, n):
		if bd.lent {
			bd = bp.take()
			vc.builds[bp.slot] = bd
			vc.ec.db.vecSelects.Add(1)
		} else {
			bd.clearEntries()
		}
		bd.via = -1
		return bd, vc.runBuild(bp, bd, keyAccess{}, nil, nil)
	}
	return bd, nil
}

// startBuild runs bp's build for its first probe batch. It seeds the FROM
// table through whichever access reaches the fewest index hits: the join
// access its residue pins, with one value, or an inner key (bp.keyed), with
// the distinct values the batch probes it with — sideways information
// passing from the probe to the build. Every value must be exact for the
// column (pinExact), and a key seeds only where the pin, if any, is: the
// pin conjunct may raise on a row the key would skip. A NULL value matches
// nothing and reads nothing. Where no access reaches fewer rows than the
// table holds, the build scans it whole.
func (vc *vecCtx) startBuild(bp *corrBuildPlan, bd *corrBuild, keys []*vcol, n int) error {
	sp := bp.sp
	bd.via = -1
	best, keyed := sp.from.nrows, len(bp.keyed) > 0
	var pin Value
	pinned := false
	if sp.pin.val != nil {
		v, ok := vc.ec.pinValue(sp, &vc.fr)
		switch ix := sp.keyIndex(sp.pin.keyAccess); {
		case !ok:
			keyed = false
		case ix != nil:
			if hits := keyHits(ix, sp.pin.keyAccess, v); hits < best {
				best, pin, pinned = hits, v, true
			}
		}
	}
	for c := 0; keyed && c < len(bp.keyed); c++ {
		pk := &bp.keyed[c]
		ix := sp.keyIndex(pk.ka)
		if ix == nil {
			continue
		}
		vals, ok := probeVals(keys[pk.key], n, sp.colType(pk.ka), vc.probeVals)
		vc.probeVals = vals
		if !ok {
			continue
		}
		hits := 0
		for _, v := range vals {
			if hits += keyHits(ix, pk.ka, v); hits >= best {
				break
			}
		}
		if hits < best {
			best, bd.via, pinned = hits, c, false
			bd.vals, vc.probeVals = vals, bd.vals[:0]
		}
	}
	switch {
	case bd.via >= 0:
		ka := bp.keyed[bd.via].ka
		return vc.runBuild(bp, bd, ka, sp.keyIndex(ka), bd.vals)
	case pinned:
		return vc.runBuild(bp, bd, sp.pin.keyAccess, sp.keyIndex(sp.pin.keyAccess), []Value{pin})
	}
	return vc.runBuild(bp, bd, keyAccess{}, nil, nil)
}

// probeVals lists in buf the distinct values, ascending, the n rows of col
// carry, NULLs left out. false when one is not exact for a column of type
// typ (pinExact).
func probeVals(col *vcol, n int, typ ColType, buf []Value) ([]Value, bool) {
	buf = buf[:0]
	for i := 0; i < n; i++ {
		switch v := col.at(i); {
		case v.IsNull():
		case !pinExact(v, typ):
			return buf, false
		case len(buf) == 0 || buf[len(buf)-1].i != v.i:
			buf = append(buf, v)
		}
	}
	slices.SortFunc(buf, comparePayload)
	return slices.CompactFunc(buf, func(a, b Value) bool { return a.i == b.i }), true
}

// comparePayload orders INTEGER or BOOLEAN values of one kind.
func comparePayload(a, b Value) int { return cmp.Compare(a.i, b.i) }

// holds reports whether a build seeded by a key has read every value the n
// probe rows of keys carry for it. Both sides of a key share one static
// type (keyType), so a payload found in vals is a value read.
func (bd *corrBuild) holds(bp *corrBuildPlan, keys []*vcol, n int) bool {
	col := keys[bp.keyed[bd.via].key]
	for i := 0; i < n; i++ {
		v := col.at(i)
		if v.IsNull() {
			continue
		}
		if _, found := slices.BinarySearchFunc(bd.vals, v, comparePayload); !found {
			return false
		}
	}
	return true
}

// runBuild runs bp's synthesized SELECT over the FROM rows ka reaches from
// vals through ix, ka's index (seedBy; every row when ix is nil) — with the
// compiling SELECT's frame as parent, as the correlated subquery has —
// folding its batches straight into the hash table, and finalizes the
// aggregates. Any error, and any key corrHash refuses, is errReplay: the
// build may have read rows the correlated executions never visit.
func (vc *vecCtx) runBuild(bp *corrBuildPlan, bd *corrBuild, ka keyAccess, ix *hashIndex, vals []Value) error {
	bvc := acquireVecCtx(vc.ec, bp.sp.vec.nTab)
	defer bvc.release()
	bvc.bind(bp.sp, &vc.fr)
	bvc.seed = vc.ec.seedBy(bp.sp, ka, ix, vals, bvc.seed[:0])
	vc.ec.db.buildRows.Add(int64(len(bvc.seed)))
	dense := bp.nkey == 1 && bp.spills.Load() == 0
	bd.dense, bd.rows = dense, len(bvc.seed)
	err := bvc.scanSeed(bp.sp, bvc.seed, func(b *vbatch) error { return bvc.fold(bp, bd, b) })
	if dense && !bd.dense {
		bp.spills.Add(1) // the plan's later builds start in the map
	}
	if err != nil {
		return errReplay
	}
	if bp.agg != "" {
		for i := range bd.hits {
			h := &bd.hits[i]
			if bp.star {
				h.v = NewInt(h.rows)
				continue
			}
			v, err := bd.accs[i].final(bp.agg, bp.agg)
			if err != nil {
				return errReplay
			}
			h.v = v
		}
	}
	return nil
}

// fold hashes one batch of a build's rows: it evaluates the keys and the
// value — the item, or the aggregate's argument — over the batch, then routes
// every row with a non-NULL key to its entry, in batch order.
func (vc *vecCtx) fold(bp *corrBuildPlan, bd *corrBuild, b *vbatch) error {
	items := bp.sp.vec.items
	var cols [3]*vcol
	defer func() {
		for _, c := range cols[:len(items)] {
			if c != nil {
				vc.putCol(c)
			}
		}
	}()
	for j, item := range items {
		cols[j] = vc.getCol()
		if err := item(vc, b, cols[j]); err != nil {
			return err
		}
	}
	var kv [2]Value
	for i := 0; i < b.n; i++ {
		for j := range bp.nkey {
			kv[j] = cols[j].at(i)
		}
		k, null, ok := corrHash(kv[:bp.nkey])
		switch {
		case !ok:
			return errReplay
		case null:
			continue
		}
		e, found := bd.find(k)
		if !found {
			e = bd.insert(k, bp.agg != "")
		}
		h := &bd.hits[e]
		h.rows++
		switch {
		case bp.agg == "":
			if h.rows == 1 {
				h.v = cols[bp.nkey].at(i)
			}
		case !bp.star:
			if err := bd.accs[e].add(bp.agg, cols[bp.nkey].at(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// probeJoin expands the batch through one equi-join: evaluate the outer key,
// skip NULL keys, and emit one output row per index hit, in index position
// order — the same candidate order as the row engine's lookup loop.
func (vc *vecCtx) probeJoin(b, nb *vbatch, vj *vecJoin, k int, idx *hashIndex) error {
	keys := vc.getCol()
	defer vc.putCol(keys)
	if err := vj.outer(vc, b, keys); err != nil {
		return err
	}
	nb.n = 0
	for t := 0; t <= k+1; t++ {
		nb.pos[t] = nb.pos[t][:0]
	}
	for i := 0; i < b.n; i++ {
		key := keys.at(i)
		if key.IsNull() {
			continue
		}
		for _, p := range idx.get(key) {
			for t := 0; t <= k; t++ {
				nb.pos[t] = append(nb.pos[t], b.pos[t][i])
			}
			nb.pos[k+1] = append(nb.pos[k+1], p)
		}
	}
	nb.n = len(nb.pos[k+1])
	for t := k + 2; t < len(nb.pos); t++ {
		nb.pos[t] = nb.pos[t][:0]
	}
	return nil
}

// crossJoin expands the batch through a nested-loop join: every batch row
// pairs with every storage row of the joined table, outer-major in storage
// order — the row engine's iteration order. The ON conjuncts all live in the
// join's rest list and narrow the product immediately after, reproducing
// checkConjuncts's early exit block-wise.
func (vc *vecCtx) crossJoin(b, nb *vbatch, k int) {
	inner := vc.tabs[k+1].nrows // stable under the statement lock
	nb.n = 0
	for t := 0; t <= k+1; t++ {
		nb.pos[t] = nb.pos[t][:0]
	}
	for i := 0; i < b.n; i++ {
		for p := 0; p < inner; p++ {
			for t := 0; t <= k; t++ {
				nb.pos[t] = append(nb.pos[t], b.pos[t][i])
			}
			nb.pos[k+1] = append(nb.pos[k+1], int32(p))
		}
	}
	nb.n = len(nb.pos[k+1])
	for t := k + 2; t < len(nb.pos); t++ {
		nb.pos[t] = nb.pos[t][:0]
	}
}

// narrow filters the batch by one predicate, with the row engine's evalBool
// semantics: NULL and false drop the row, a non-NULL non-boolean raises. It
// returns the surviving batch: b itself when no row was dropped (skipping the
// gather), nb otherwise.
func (vc *vecCtx) narrow(b, nb *vbatch, pred vexpr) (*vbatch, error) {
	c := vc.getCol()
	defer vc.putCol(c)
	if err := pred(vc, b, c); err != nil {
		return nil, err
	}
	sel := vc.selBuf[:0]
	for i := 0; i < b.n; i++ {
		v := c.at(i)
		if v.IsNull() {
			continue
		}
		if !v.IsBool() {
			return nil, fmt.Errorf("sqldb: predicate evaluated to %s, want boolean", v)
		}
		if v.Bool() {
			sel = append(sel, int32(i))
		}
	}
	vc.selBuf = sel
	if len(sel) == b.n {
		return b, nil
	}
	gatherBatch(nb, b, sel)
	return nb, nil
}

// project evaluates the projection and ORDER BY keys over a batch, emitting
// one output row per batch row with a single backing allocation per batch.
func (vc *vecCtx) project(b *vbatch, vp *vecSelectPlan) ([]sortableRow, error) {
	ncol := len(vp.items)
	// A projection with no columns (table-less SELECT *) leaves every row
	// nil, as the row engine's does.
	var cells Row
	if ncol > 0 {
		cells = make(Row, b.n*ncol)
	}
	rows := make([]sortableRow, b.n)
	for i := range rows {
		rows[i].row = cells[i*ncol : (i+1)*ncol : (i+1)*ncol]
	}
	c := vc.getCol()
	defer vc.putCol(c)
	for j, item := range vp.items {
		if err := item(vc, b, c); err != nil {
			return nil, err
		}
		for i := 0; i < b.n; i++ {
			rows[i].row[j] = c.at(i)
		}
	}
	if len(vp.order) > 0 {
		kcells := make([]Value, b.n*len(vp.order))
		for i := range rows {
			rows[i].keys = kcells[i*len(vp.order) : (i+1)*len(vp.order) : (i+1)*len(vp.order)]
		}
		for j := range vp.order {
			key := &vp.order[j]
			switch {
			case key.outCol >= 0:
				for i := range rows {
					rows[i].keys[j] = rows[i].row[key.outCol]
				}
			case key.ex != nil:
				if err := key.ex(vc, b, c); err != nil {
					return nil, err
				}
				for i := 0; i < b.n; i++ {
					rows[i].keys[j] = c.at(i)
				}
			default:
				for i := range rows {
					rows[i].keys[j] = key.cval
				}
			}
		}
	}
	return rows, nil
}

// accumulate folds one batch into the grouped state: evaluate the GROUP BY
// keys and aggregate arguments batch-wise, then route each row to its group
// in first-seen order. Accumulation order equals the row engine's tuple
// order, so float sums stay bit-identical.
func (vc *vecCtx) accumulate(b *vbatch, vp *vecSelectPlan, groups map[string]*vecGroup, order *[]string, newGroup func() *vecGroup, keyBuf []byte) ([]byte, error) {
	keyCols := make([]*vcol, len(vp.groupBy))
	for j, g := range vp.groupBy {
		c := vc.getCol()
		keyCols[j] = c
		if err := g(vc, b, c); err != nil {
			for _, cc := range keyCols[:j+1] {
				vc.putCol(cc)
			}
			return keyBuf, err
		}
	}
	argCols := make([]*vcol, len(vp.aggs))
	for j := range vp.aggs {
		if vp.aggs[j].arg == nil {
			continue
		}
		c := vc.getCol()
		argCols[j] = c
		if err := vp.aggs[j].arg(vc, b, c); err != nil {
			for _, cc := range keyCols {
				vc.putCol(cc)
			}
			for _, cc := range argCols[:j+1] {
				if cc != nil {
					vc.putCol(cc)
				}
			}
			return keyBuf, err
		}
	}
	defer func() {
		for _, c := range keyCols {
			vc.putCol(c)
		}
		for _, c := range argCols {
			if c != nil {
				vc.putCol(c)
			}
		}
	}()

	for i := 0; i < b.n; i++ {
		keyBuf = keyBuf[:0]
		for _, c := range keyCols {
			keyBuf = c.at(i).AppendKey(keyBuf)
			keyBuf = append(keyBuf, 0)
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = newGroup()
			k := string(keyBuf)
			groups[k] = g
			*order = append(*order, k)
		}
		if !g.hasRep {
			g.hasRep = true
			g.rep, g.last = positions(g.rep, b, i), positions(g.last, b, i)
		} else {
			g.last = positions(g.last, b, i)
		}
		g.n++
		for j := range vp.aggs {
			if argCols[j] == nil {
				continue
			}
			if err := g.accs[j].add(vp.aggs[j].name, argCols[j].at(i)); err != nil {
				return keyBuf, err
			}
		}
	}
	return keyBuf, nil
}

// singleGroup readies the pooled lone-group state of a scalar aggregation
// (GROUP BY absent): the accumulators and representative-position buffer are
// reused across executions.
func (vc *vecCtx) singleGroup(vp *vecSelectPlan) *vecGroup {
	g := &vc.sg
	g.hasRep = false
	g.n = 0
	g.rep, g.last = g.rep[:0], g.last[:0]
	if cap(g.accs) < len(vp.aggs) {
		g.accs = make([]aggAcc, len(vp.aggs))
	}
	g.accs = g.accs[:len(vp.aggs)]
	for i := range g.accs {
		g.accs[i] = newAggAcc()
	}
	return g
}

// accumulateSingle folds one batch into the lone group of a scalar
// aggregation: no key building, no map routing. The tuple-then-aggregate
// iteration order matches the row engine exactly, so float accumulation and
// error surfacing are identical.
func (vc *vecCtx) accumulateSingle(b *vbatch, vp *vecSelectPlan, g *vecGroup) error {
	args := vc.argBuf[:0]
	defer func() {
		for _, c := range args {
			if c != nil {
				vc.putCol(c)
			}
		}
	}()
	for j := range vp.aggs {
		if vp.aggs[j].arg == nil {
			args = append(args, nil)
			continue
		}
		c := vc.getCol()
		args = append(args, c)
		if err := vp.aggs[j].arg(vc, b, c); err != nil {
			vc.argBuf = args
			return err
		}
	}
	vc.argBuf = args

	if b.n > 0 {
		if !g.hasRep {
			g.hasRep = true
			g.rep = positions(g.rep, b, 0)
		}
		g.last = positions(g.last, b, b.n-1)
	}
	for i := 0; i < b.n; i++ {
		g.n++
		for j := range vp.aggs {
			if args[j] == nil {
				continue
			}
			if err := g.accs[j].add(vp.aggs[j].name, args[j].at(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// positions stores row i of the batch's position lists into dst, one entry
// per bound table.
func positions(dst []int32, b *vbatch, i int) []int32 {
	dst = dst[:0]
	for t := range b.pos {
		dst = append(dst, b.pos[t][i])
	}
	return dst
}

// groupRow returns the tuple at the given row positions, built in buf: empty
// for an empty group.
func (vc *vecCtx) groupRow(buf tuple, g *vecGroup, pos []int32) tuple {
	buf = buf[:0]
	if g.hasRep {
		for t := range vc.tabs {
			buf = append(buf, int(pos[t])+1)
		}
	}
	return buf
}

// finalizeGroups emits one output row per surviving group, in first-seen
// order: fold the accumulated aggregates into execCtx.aggPre, bind the
// group's representative row, and run HAVING and the projection through the
// row evaluator — the hybrid path that keeps scalar semantics (subqueries,
// aliases, functions) byte-identical to the row engine's grouped output.
// The row engine binds the representative row anew for HAVING, for the
// projection and for the ORDER BY keys, and evaluating an aggregate leaves
// the group's last row bound; a bare column beside an aggregate reads
// whichever was bound last, and so it does here.
func (vc *vecCtx) finalizeGroups(st *SelectStmt, vp *vecSelectPlan, seq []*vecGroup) ([]sortableRow, error) {
	ec := vc.ec
	pre := vc.pre
	if pre == nil {
		pre = make(map[*ECall]Value, len(vp.aggs))
		vc.pre = pre
	}
	clear(pre)
	saved, savedLast := ec.aggPre, ec.aggLast
	defer func() { ec.aggPre, ec.aggLast = saved, savedLast }()

	var rows []sortableRow
	for _, g := range seq {
		vc.repRow = vc.groupRow(vc.repRow, g, g.rep)
		vc.lastRow = vc.groupRow(vc.lastRow, g, g.last)
		rep := vc.repRow
		ec.aggLast = vc.lastRow
		setTuple(&vc.fr, rep)
		for j := range vp.aggs {
			ag := &vp.aggs[j]
			if ag.star {
				pre[ag.call] = NewInt(g.n)
				continue
			}
			v, err := g.accs[j].final(ag.name, ag.call.Name)
			if err != nil {
				return nil, err
			}
			pre[ag.call] = v
		}
		ec.aggPre = pre

		if st.Having != nil {
			ok, err := ec.evalBool(st.Having, &vc.fr)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			setTuple(&vc.fr, rep)
		}
		out := make(Row, 0, len(st.Items))
		for _, item := range st.Items {
			v, err := ec.eval(item.Expr, &vc.fr)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		var keys []Value
		if len(vp.order) > 0 {
			setTuple(&vc.fr, rep)
			keys = make([]Value, len(vp.order))
			for j := range vp.order {
				switch {
				case vp.order[j].outCol >= 0:
					keys[j] = out[vp.order[j].outCol]
				case vp.order[j].gx != nil:
					// Evaluate the key through the row evaluator while the
					// representative row is bound and the aggregates are
					// pre-folded — exactly the row engine's orderKeys timing.
					v, err := ec.eval(vp.order[j].gx, &vc.fr)
					if err != nil {
						return nil, err
					}
					keys[j] = v
				default:
					keys[j] = vp.order[j].cval
				}
			}
		}
		rows = append(rows, sortableRow{row: out, keys: keys})
	}
	// Leave the frame rows clear: later lazy evaluations (LIMIT) must not
	// see a stale representative row.
	for _, bt := range vc.bts {
		bt.at = 0
	}
	return rows, nil
}
