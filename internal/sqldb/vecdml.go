package sqldb

import "strings"

// Columnar DML. UPDATE and DELETE evaluate their WHERE clause as a vectorized
// predicate over the column vectors — fused kernels when the clause is all
// plain comparisons, the compiled vexpr tree otherwise — and mutate or
// compact the columns in place under the exclusive statement lock. The row
// engine's path materializes the row-major view (Table.scan) just to iterate
// it; this path never touches the view, only drops it, so a DML statement on
// a cold table costs no rowView rebuild.
//
// Semantics mirror execUpdateLocked/execDeleteLocked: the WHERE and SET
// expressions read the pre-mutation state (phase 1), mutation happens only
// after every expression evaluated without error (phase 2), the cached
// rowView is dropped, indexes rebuild, and the table's data version bumps.
// Error presence matches the row engine; which of several simultaneous errors
// surfaces may differ (the documented engines-agree caveat), because the
// columnar path evaluates chunk-at-a-time and column-major where the row
// engine interleaves per row.

// vecDMLPlan is the compiled columnar pipeline of one UPDATE or DELETE.
type vecDMLPlan struct {
	table   *Table
	binding string
	where   vexpr   // nil when the statement has no WHERE
	fused   []vpred // fused WHERE kernels, nil unless every conjunct fused
	sets    []vexpr // UPDATE: one per SET clause, in declaration order
	cols    []int   // UPDATE: target column of each SET
}

// compileVecUpdate compiles an UPDATE's WHERE and SET expressions against its
// table. Any refusal returns nil: the row path runs (and raises resolution
// errors like a missing SET column itself).
func compileVecUpdate(p *stmtPlan, st *UpdateStmt, t *Table) *vecDMLPlan {
	if t == nil {
		return nil
	}
	dp := &vecDMLPlan{table: t, binding: strings.ToLower(st.Table)}
	cp := &vecCompiler{p: p, tabs: []*Table{t}, binds: []string{dp.binding}}
	if st.Where != nil {
		f, ok := cp.compile(st.Where, 1)
		if !ok {
			return nil
		}
		dp.where = f
		dp.fused = cp.fuseFilter(st.Where, 1)
	}
	for _, set := range st.Sets {
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

// compileVecDelete compiles a DELETE's WHERE against its table.
func compileVecDelete(p *stmtPlan, st *DeleteStmt, t *Table) *vecDMLPlan {
	if t == nil {
		return nil
	}
	dp := &vecDMLPlan{table: t, binding: strings.ToLower(st.Table)}
	cp := &vecCompiler{p: p, tabs: []*Table{t}, binds: []string{dp.binding}}
	if st.Where != nil {
		f, ok := cp.compile(st.Where, 1)
		if !ok {
			return nil
		}
		dp.where = f
		dp.fused = cp.fuseFilter(st.Where, 1)
	}
	return dp
}

// vecExecUpdateLocked is the columnar UPDATE core; db.mu must be held
// exclusively and plan.dml must be compiled against t.
func (db *DB) vecExecUpdateLocked(params *Params, plan *stmtPlan, t *Table) (*Result, error) {
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

	type patch struct {
		pos    int32
		values Row
	}
	var patches []patch
	b, nb := &vc.b, &vc.nb
	setCol := vc.getCol()
	defer vc.putCol(setCol)
	nrows := t.nrows // stable: we hold the exclusive statement lock
	for start := 0; start < nrows; start += vecBatchSize {
		end := start + vecBatchSize
		if end > nrows {
			end = nrows
		}
		b.n = end - start
		b.pos[0] = b.pos[0][:0]
		for p := start; p < end; p++ {
			b.pos[0] = append(b.pos[0], int32(p))
		}

		cur := b
		if dp.where != nil {
			if fused != nil {
				cur = vc.narrowFused(b, nb, fused)
			} else {
				out, err := vc.narrow(b, nb, dp.where)
				if err != nil {
					return nil, err
				}
				cur = out
			}
			if cur.n == 0 {
				continue
			}
		}

		// Evaluate the SET expressions column-major over the survivors,
		// coercing to the target column types; errors surface before any
		// mutation.
		base := len(patches)
		for i := 0; i < cur.n; i++ {
			patches = append(patches, patch{pos: cur.pos[0][i], values: make(Row, len(dp.sets))})
		}
		for j, sx := range dp.sets {
			if err := sx(vc, cur, setCol); err != nil {
				return nil, err
			}
			ct := t.Columns[dp.cols[j]].Type
			for i := 0; i < cur.n; i++ {
				cv, err := coerce(setCol.at(i), ct)
				if err != nil {
					return nil, err
				}
				patches[base+i].values[j] = cv
			}
		}
	}

	// Phase 2 (write): identical to the row path — patch the column vectors,
	// drop the cached row view, rebuild the indexes over assigned columns,
	// bump the data version.
	if len(patches) > 0 {
		t.mu.Lock()
		for _, p := range patches {
			for j, cv := range p.values {
				t.cols[dp.cols[j]].setVal(int(p.pos), cv)
			}
		}
		t.rowView = nil
		t.mu.Unlock()
		t.rebuildIndexesOn(dp.cols)
		db.bumpData(t)
	}
	return &Result{Affected: len(patches)}, nil
}

// vecExecDeleteLocked is the columnar DELETE core; db.mu must be held
// exclusively and plan.dml must be compiled against t.
func (db *DB) vecExecDeleteLocked(params *Params, plan *stmtPlan, t *Table) (*Result, error) {
	dp := plan.dml
	ec := &execCtx{db: db, params: params, plan: plan}
	vc := acquireVecCtx(ec, 1)
	defer vc.release()
	vc.btStore[0] = boundTable{binding: dp.binding, table: t}
	vc.tabs[0] = t
	vc.fr = frame{tables: vc.bts[:1]}
	fused := dp.fused
	if fused != nil && !vc.fuseReady(fused) {
		fused = nil
	}

	nrows := t.nrows
	var keep []bool
	n := 0
	if dp.where == nil {
		// No WHERE: every row goes; the selection bitmap stays all-false.
		keep = make([]bool, nrows)
		n = nrows
	} else {
		keep = make([]bool, nrows)
		for i := range keep {
			keep[i] = true
		}
		b, nb := &vc.b, &vc.nb
		for start := 0; start < nrows; start += vecBatchSize {
			end := start + vecBatchSize
			if end > nrows {
				end = nrows
			}
			b.n = end - start
			b.pos[0] = b.pos[0][:0]
			for p := start; p < end; p++ {
				b.pos[0] = append(b.pos[0], int32(p))
			}

			cur := b
			if fused != nil {
				cur = vc.narrowFused(b, nb, fused)
			} else {
				out, err := vc.narrow(b, nb, dp.where)
				if err != nil {
					return nil, err
				}
				cur = out
			}
			for i := 0; i < cur.n; i++ {
				keep[cur.pos[0][i]] = false
				n++
			}
		}
	}

	// Phase 2 (write): identical to the row path — compact every column,
	// drop the cached row view, rebuild indexes, bump the data version.
	if n > 0 {
		t.mu.Lock()
		for _, c := range t.cols {
			c.compact(keep)
		}
		t.nrows -= n
		t.rowView = nil
		t.mu.Unlock()
		t.rebuildIndexes()
		db.bumpData(t)
	}
	return &Result{Affected: n}, nil
}
