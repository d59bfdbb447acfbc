package godbc

// Batched statement execution: the JDBC addBatch/executeBatch analogue.
// The bindings of a prepared statement are shipped to the server in
// one ReqExecBatch round trip (split transparently when they exceed the
// protocol's MaxBatch), so N executions of the same statement cost one
// client/server round trip instead of N. The request is built and its reply
// decoded in request.go (execBatch).

import (
	"context"
	"fmt"
	"time"

	"repro/internal/asl/sqlgen"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// BatchResult is the per-binding outcome of an executed batch: Err, or an
// affected-row count and (for SELECT) the binding's result set.
type BatchResult struct {
	Set      *sqldb.ResultSet
	Affected int
	Err      error
}

// ExecBatch executes the statement once per binding. Batches larger than
// wire.MaxBatch are split into multiple requests; results are returned in
// binding order regardless of the split, and per-binding failures are
// reported in the results without stopping later bindings.
func (st *Stmt) ExecBatch(bindings []*sqldb.Params) ([]BatchResult, error) {
	if st.closed {
		return nil, errStmtClosed
	}
	return execBatch(context.Background(), st.conn, st.id, bindings)
}

// ---------------------------------------------------------------------------
// sqlgen.BatchPreparedQuery implementations — one per preparer, so the
// analyzer's batched path runs against every executor.
// ---------------------------------------------------------------------------

// ExecQueryBatch implements sqlgen.BatchPreparedQuery on a connection-bound
// prepared statement.
func (st *Stmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return st.ExecQueryBatchContext(context.Background(), bindings)
}

// ExecQueryBatchContext is ExecQueryBatch observing ctx on every chunk's
// round trip.
func (st *Stmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	if st.closed {
		return nil, errStmtClosed
	}
	return queryBatch(ctx, st.conn, st.id, bindings)
}

// ExecQueryBatch implements sqlgen.BatchPreparedQuery over the pool: the
// whole batch executes on one checked-out connection, so it costs one
// round trip per wire.MaxBatch chunk.
func (ps *PooledStmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return ps.ExecQueryBatchContext(context.Background(), bindings)
}

// ExecQueryBatchContext is ExecQueryBatch observing ctx at checkout and on
// every round trip.
func (ps *PooledStmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	c, st, err := ps.checkout(ctx)
	if err != nil {
		return nil, err
	}
	defer ps.pool.Put(c)
	return st.ExecQueryBatchContext(ctx, bindings)
}

// ExecQueryBatch implements sqlgen.BatchPreparedQuery on the in-process
// engine: one statement-lock acquisition for the whole batch, with the
// vendor's per-binding costs applied. There is no round trip to amortize in
// process; a profiled batch costs what the same executions cost one by one.
func (s embeddedStmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return s.ExecQueryBatchContext(context.Background(), bindings)
}

// ExecQueryBatchContext hands ctx to the engine, which observes it between
// bindings, and to the vendor delay.
func (s embeddedStmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	results, err := s.ps.ExecuteBatchContext(ctx, bindings)
	if err != nil {
		return nil, err
	}
	var delay time.Duration
	for _, r := range results {
		if r.Err == nil && r.Res.Cached {
			continue // the cache answered; no vendor work to charge
		}
		delay += s.profile.PerStatement
		if r.Err == nil && r.Res.Set != nil {
			delay += time.Duration(len(r.Res.Set.Rows)) * s.profile.PerRowRead
		}
	}
	if err := wire.DelayCtx(ctx, delay); err != nil {
		return nil, err
	}
	return toQueryResults(results), nil
}

func toQueryResults(results []sqldb.BatchResult) []sqlgen.BatchQueryResult {
	out := make([]sqlgen.BatchQueryResult, len(results))
	for i, r := range results {
		switch {
		case r.Err != nil:
			out[i] = sqlgen.BatchQueryResult{Err: r.Err}
		case r.Res.Set == nil:
			out[i] = sqlgen.BatchQueryResult{Err: fmt.Errorf("godbc: statement produced no result set")}
		default:
			out[i] = sqlgen.BatchQueryResult{Set: r.Res.Set}
		}
	}
	return out
}

var _ sqlgen.BatchPreparedQuery = (*Stmt)(nil)
var _ sqlgen.BatchPreparedQuery = (*PooledStmt)(nil)
var _ sqlgen.BatchPreparedQuery = embeddedStmt{}
var _ sqlgen.ContextBatchPreparedQuery = (*Stmt)(nil)
var _ sqlgen.ContextBatchPreparedQuery = (*PooledStmt)(nil)
var _ sqlgen.ContextBatchPreparedQuery = embeddedStmt{}
