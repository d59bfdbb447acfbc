package sqldb

import (
	"context"
	"fmt"
	"math"
)

// Batched execution: the array-binding analogue of classic database drivers.
// A statement that runs many times with only its parameters changing (the ASL
// property queries run once per property × context instance) can ship all its
// parameter sets at once; the engine then runs every binding against one
// immutable plan under a single statement-lock acquisition, instead of paying
// one acquisition — and, over the wire protocol, one client/server round
// trip — per binding.
//
// Partial failure does not abort a batch: each binding gets its own result or
// error, in binding order, so callers can map outcomes back to their inputs.
// Only statement-level failures (a closed handle, a plan that cannot be
// rebuilt after DDL, a non-DML statement) fail the batch as a whole.

// BatchResult is the outcome of one binding of a batched execution: exactly
// one of Res and Err is non-nil.
type BatchResult struct {
	Res *Result
	Err error
}

// ExecuteBatch runs the prepared statement once per binding, in order,
// holding the statement lock once for the whole batch (shared for SELECT,
// exclusive for writes). Per-binding failures are reported in the returned
// slice and do not stop later bindings. Batches are restricted to DML — DDL
// has no parameters to bind and moves the schema under the batch's own plan.
func (ps *PreparedStmt) ExecuteBatch(bindings []*Params) ([]BatchResult, error) {
	return ps.ExecuteBatchContext(context.Background(), bindings)
}

// ExecuteBatchContext is ExecuteBatch observing a context: cancellation is
// checked between bindings (the per-binding work itself is uninterruptible,
// so a cancel overshoots by at most one binding), and a canceled batch
// returns the context's error with no results — partial batches are never
// reported as success, so callers cannot mistake them for complete ones.
func (ps *PreparedStmt) ExecuteBatchContext(ctx context.Context, bindings []*Params) ([]BatchResult, error) {
	if ps.closed.Load() {
		return nil, fmt.Errorf("sqldb: prepared statement is closed")
	}
	out := make([]BatchResult, len(bindings))
	if len(bindings) == 0 {
		return out, nil
	}
	for attempt := 0; attempt < 8; attempt++ {
		plan := ps.plan.Load()
		if plan.version != ps.db.ddl.Load() {
			var err error
			if plan, err = ps.replan(); err != nil {
				return nil, err
			}
		}
		err := ps.db.execBatch(ctx, plan, bindings, out)
		if err == errPlanStale {
			continue
		}
		if err != nil {
			return nil, err
		}
		ps.db.batchExecs.Add(1)
		ps.db.batchBindings.Add(int64(len(bindings)))
		return out, nil
	}
	return nil, fmt.Errorf("sqldb: statement kept replanning during concurrent DDL")
}

// execBatch runs every binding against the plan under one lock acquisition.
// The plan version is re-validated under the lock, exactly as execStmt does
// per execution, so DDL racing the batch forces a replan rather than running
// against stale table storage; once the batch holds the lock no DDL can move
// the schema mid-batch.
func (db *DB) execBatch(ctx context.Context, plan *stmtPlan, bindings []*Params, out []BatchResult) error {
	switch st := plan.stmt.(type) {
	case *SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		if err := db.planFresh(plan); err != nil {
			return err
		}
		// The batch is the natural cache unit: each binding is looked up in
		// the result cache individually, and only the misses execute. All
		// bindings share one data-version snapshot — the shared statement
		// lock is held for the whole batch, so no DML can move the versions
		// between the first lookup and the last store.
		// The bindings that do execute share the invariant subqueries that
		// read only parameters the whole batch agrees on (batchSubs), from
		// the first result-cache miss on: an all-hit batch allocates nothing
		// for it.
		var subs *batchSubs
		var buf [keyBufSize]byte
		key := buf[:0]
		defer func() {
			if subs != nil {
				db.batchSubReuses.Add(subs.reuses)
			}
		}()
		for i, params := range bindings {
			if err := ctx.Err(); err != nil {
				return err
			}
			var dataVer int64
			var cacheable bool
			key, dataVer, cacheable = db.cacheKeyFor(plan, params, key)
			if cacheable {
				if set, hit := db.lookupResult(key, plan.version, dataVer); hit {
					out[i] = BatchResult{Res: &Result{Set: set, Cached: true}}
					continue
				}
			}
			if subs == nil && len(bindings) > 1 && len(plan.free) > 0 {
				subs = newBatchSubs(plan, bindings)
			}
			ec := &execCtx{db: db, params: params, plan: plan, batch: subs}
			set, err := ec.execSelect(st, nil)
			if err != nil {
				out[i] = BatchResult{Err: err}
				continue
			}
			if cacheable {
				db.storeResult(key, plan.version, dataVer, set)
			}
			out[i] = BatchResult{Res: &Result{Set: set}}
		}
		return nil
	case *InsertStmt, *UpdateStmt, *DeleteStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := db.planFresh(plan); err != nil {
			return err
		}
		for i, params := range bindings {
			if err := ctx.Err(); err != nil {
				return err
			}
			var res *Result
			var err error
			switch s := st.(type) {
			case *InsertStmt:
				res, err = db.execInsertLocked(s, params, plan)
			case *UpdateStmt:
				res, err = db.execUpdateLocked(s, params, plan)
			case *DeleteStmt:
				res, err = db.execDeleteLocked(s, params, plan)
			}
			out[i] = BatchResult{Res: res, Err: err}
			if err != nil {
				out[i].Res = nil
			}
		}
		return nil
	}
	return fmt.Errorf("sqldb: batch execution supports DML statements only, not %T", plan.stmt)
}

// batchSubs is the invariant-subquery cache of one SELECT batch. Within one
// execution a subquery that can observe no row of the enclosing query is
// evaluated once (execCtx.subCache); when, besides, every parameter it reads
// holds one value across the batch's bindings — the run and the ranking basis
// of a property query, while the region or call under test varies — its value
// is the same in every binding, and the batch evaluates it once. The batch
// holds the shared statement lock from its first binding to its last, so no
// DML can move the data the value was read from and nothing ever needs
// invalidating; the cache dies with the batch. Failed evaluations are not
// cached (see storeSub). A batch runs on one goroutine, so the maps need no
// lock.
type batchSubs struct {
	// shared marks the subquery nodes of the plan whose parameters are all
	// constant across the batch.
	shared map[Expr]bool
	// vals holds their values, keyed like execCtx.subCache by the plan's
	// canonical subquery text.
	vals map[string]Value
	// reuses counts the bindings that took a value another binding computed.
	reuses int64
}

func newBatchSubs(plan *stmtPlan, bindings []*Params) *batchSubs {
	bs := &batchSubs{shared: make(map[Expr]bool, len(plan.free)), vals: make(map[string]Value)}
	constant := make(map[EParam]bool)
	for e, fi := range plan.free {
		shared := true
		for _, p := range fi.params {
			c, known := constant[*p]
			if !known {
				c = constantParam(bindings, p)
				constant[*p] = c
			}
			if !c {
				shared = false
				break
			}
		}
		if shared {
			bs.shared[e] = true
		}
	}
	return bs
}

// constantParam reports whether the parameter is bound to one and the same
// value in every binding. Same means indistinguishable to any expression —
// kind and payload, so 1 and 1.0 differ, as do 0.0 and -0.0 — and a NaN is
// not the same as anything, itself included.
func constantParam(bindings []*Params, p *EParam) bool {
	first, ok := bindings[0].lookup(p)
	if !ok || first.f != first.f {
		return false
	}
	for _, b := range bindings[1:] {
		v, ok := b.lookup(p)
		if !ok || v.kind != first.kind || v.i != first.i || v.s != first.s ||
			math.Float64bits(v.f) != math.Float64bits(first.f) {
			return false
		}
	}
	return true
}
