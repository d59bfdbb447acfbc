package sqldb

import (
	"context"
	"fmt"
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
// rebuilt after DDL, a non-DML statement) fail the batch as a whole. A single
// Execute is a batch of one, so the two cannot drift apart.

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
		return nil, errClosed
	}
	out := make([]BatchResult, len(bindings))
	if len(bindings) == 0 {
		return out, nil
	}
	if err := ps.execBatch(ctx, bindings, out); err != nil {
		return nil, err
	}
	ps.db.batchExecs.Add(1)
	ps.db.batchBindings.Add(int64(len(bindings)))
	return out, nil
}

// execBatch runs every binding against the plan under one acquisition of the
// statement lock, and is the one body every SELECT, INSERT, UPDATE and DELETE
// runs through. A plan the schema moved past is rebuilt under that lock, where
// no DDL can move the schema again, so no binding runs against stale table
// storage.
func (s *sharedStmt) execBatch(ctx context.Context, bindings []*Params, out []BatchResult) error {
	db := s.db
	plan := s.plan.Load()
	switch plan.stmt.(type) {
	case *SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
	case *InsertStmt, *UpdateStmt, *DeleteStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
	default:
		return fmt.Errorf("sqldb: batch execution supports DML statements only, not %T", plan.stmt)
	}
	if plan.version != db.ddl.Load() {
		var err error
		if plan, err = s.replan(); err != nil {
			return err
		}
	}
	switch st := plan.stmt.(type) {
	case *SelectStmt:
		// The batch is the natural cache unit: each binding is looked up in
		// the result cache individually, and only the misses execute. All
		// bindings share one data-version snapshot — the shared statement
		// lock is held for the whole batch, so no DML can move the versions
		// between the first lookup and the last store, and a stored result is
		// never stamped newer than the rows it was computed from.
		//
		// A batch of several bindings that runs under no analysis build
		// table — over the wire, or from a caller that opened none — opens
		// one at its first miss, so its bindings share the builds they make
		// as an analysis's statements do (ShareBuilds).
		var buf [keyBufSize]byte
		key := buf[:0]
		builds := buildTableOf(ctx)
		for i, params := range bindings {
			if err := ctx.Err(); err != nil {
				return err
			}
			var dataVer int64
			var cacheable bool
			key, dataVer, cacheable = s.cacheKeyFor(plan, params, key)
			if cacheable {
				if set, hit := db.lookupResult(key, plan.version, dataVer); hit {
					out[i] = BatchResult{Res: &Result{Set: set, Cached: true}}
					continue
				}
			}
			if builds == nil && len(bindings) > 1 {
				builds = newBuildTable()
				defer builds.close()
			}
			ec := &execCtx{db: db, params: params, plan: plan, builds: builds}
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
	default:
		for i, params := range bindings {
			if err := ctx.Err(); err != nil {
				return err
			}
			var res *Result
			var err error
			switch s := st.(type) {
			case *InsertStmt:
				res, err = db.execInsertLocked(s, params, plan)
			case *UpdateStmt, *DeleteStmt:
				res, err = db.execDMLLocked(params, plan)
			}
			out[i] = BatchResult{Res: res, Err: err}
			if err != nil {
				out[i].Res = nil
			}
		}
	}
	return nil
}
