package sqldb

import "slices"

// Columnar DML. UPDATE and DELETE evaluate their WHERE clause as a vectorized
// predicate over the column vectors — fused kernels when the clause is all
// plain comparisons, the compiled vexpr tree otherwise — one chunk at a time,
// and hand the matched rows to the table's write phase (Table.updateRows,
// Table.deleteRows), the same one the row engine's path calls.
//
// Semantics mirror execUpdateLocked/execDeleteLocked: the WHERE and SET
// expressions read the pre-mutation state (phase 1), and the write phase
// runs only after every expression evaluated without error (phase 2).
// Error presence matches the row engine; which of several simultaneous errors
// surfaces may differ (the documented engines-agree caveat), because the
// columnar path evaluates chunk-at-a-time and column-major where the row
// engine interleaves per row.

// vecDMLPlan is the compiled columnar pipeline of one UPDATE or DELETE.
type vecDMLPlan struct {
	binding string
	where   vexpr   // nil when the statement has no WHERE
	fused   []vpred // fused WHERE kernels, nil unless every conjunct fused
	sets    []vexpr // UPDATE: one per SET clause, in declaration order
	cols    []int   // UPDATE: target column of each SET
}

// compileVecDML compiles the WHERE clause of an UPDATE or DELETE, and an
// UPDATE's SET expressions, in sp, the scope of its one table. Any refusal
// returns nil: the row path runs (and raises resolution errors like a
// missing SET column itself).
func compileVecDML(p *stmtPlan, sp *selectPlan, where Expr, sets []SetClause) *vecDMLPlan {
	t := sp.from
	dp := &vecDMLPlan{binding: sp.fromBinding}
	cp := &vecCompiler{p: p, sp: sp, tabs: []*Table{t}}
	if where != nil {
		f, ok := cp.compile(where, 1)
		if !ok {
			return nil
		}
		dp.where = f
		dp.fused = cp.fuseFilter(where, 1)
	}
	for _, set := range sets {
		c := t.ColumnIndex(set.Column)
		if c < 0 {
			return nil
		}
		sx, ok := cp.compile(set.Value, 1)
		if !ok {
			return nil
		}
		dp.sets = append(dp.sets, sx)
		dp.cols = append(dp.cols, c)
	}
	return dp
}

// vecDMLMatch narrows t, one chunk at a time in storage order, to the rows
// the WHERE clause of plan.dml keeps (every row when it has none) and hands
// each non-empty narrowed chunk to fn. db.mu must be held exclusively and
// plan.dml must be compiled against t.
func (db *DB) vecDMLMatch(params *Params, plan *stmtPlan, t *Table, fn func(vc *vecCtx, cur *vbatch) error) error {
	dp := plan.dml
	ec := &execCtx{db: db, params: params, plan: plan}
	vc := acquireVecCtx(ec, 1)
	defer vc.release()
	vc.btStore[0] = boundTable{binding: dp.binding, table: t}
	vc.tabs[0] = t
	vc.fr = frame{tables: vc.bts[:1]} // no parent, like the row DML frame
	fused := dp.fused
	if fused != nil && !vc.fuseReady(fused) {
		fused = nil
	}

	b, nb := &vc.b, &vc.nb
	nrows := t.nrows // stable: we hold the exclusive statement lock
	for start := 0; start < nrows; start += vecBatchSize {
		end := min(start+vecBatchSize, nrows)
		b.n = end - start
		b.pos[0] = b.pos[0][:0]
		for p := start; p < end; p++ {
			b.pos[0] = append(b.pos[0], int32(p))
		}

		cur := b
		switch {
		case dp.where == nil:
		case fused != nil:
			cur = vc.narrowFused(b, nb, fused)
		default:
			out, err := vc.narrow(b, nb, dp.where)
			if err != nil {
				return err
			}
			cur = out
		}
		if cur.n == 0 {
			continue
		}
		if err := fn(vc, cur); err != nil {
			return err
		}
	}
	return nil
}

// vecExecUpdateLocked is the columnar UPDATE core; db.mu must be held
// exclusively and plan.dml must be compiled against t.
func (db *DB) vecExecUpdateLocked(params *Params, plan *stmtPlan, t *Table) (*Result, error) {
	dp := plan.dml
	// pos lists the matched rows; vals holds their new values, one per SET
	// in declaration order, row after row.
	var pos []int
	var vals []Value
	err := db.vecDMLMatch(params, plan, t, func(vc *vecCtx, cur *vbatch) error {
		// Evaluate the SET expressions column-major over the matched rows,
		// coercing to the target column types; errors surface before any
		// mutation.
		base, ns := len(vals), len(dp.sets)
		vals = slices.Grow(vals, cur.n*ns)[:base+cur.n*ns]
		setCol := vc.getCol()
		defer vc.putCol(setCol)
		for j, sx := range dp.sets {
			if err := sx(vc, cur, setCol); err != nil {
				return err
			}
			ct := t.Columns[dp.cols[j]].Type
			for i := 0; i < cur.n; i++ {
				cv, err := coerce(setCol.at(i), ct)
				if err != nil {
					return err
				}
				vals[base+i*ns+j] = cv
			}
		}
		for _, p := range cur.pos[0][:cur.n] {
			pos = append(pos, int(p))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2 (write): shared with the row path.
	t.updateRows(db, dp.cols, pos, vals)
	return &Result{Affected: len(pos)}, nil
}

// vecExecDeleteLocked is the columnar DELETE core; db.mu must be held
// exclusively and plan.dml must be compiled against t.
func (db *DB) vecExecDeleteLocked(params *Params, plan *stmtPlan, t *Table) (*Result, error) {
	keep := make([]bool, t.nrows)
	for i := range keep {
		keep[i] = true
	}
	n := 0
	err := db.vecDMLMatch(params, plan, t, func(_ *vecCtx, cur *vbatch) error {
		for _, p := range cur.pos[0][:cur.n] {
			keep[p] = false
		}
		n += cur.n
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2 (write): shared with the row path.
	t.deleteRows(db, keep, n)
	return &Result{Affected: n}, nil
}
