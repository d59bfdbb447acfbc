package core

// Context-observing analysis entry points. The resident service (see
// internal/service) runs many concurrent analyses with per-request deadlines;
// these variants let a client's cancel or deadline stop an analysis wherever
// it is — queued, mid-batch, or idle in a profiled vendor delay — instead of
// letting abandoned work occupy the capacity other tenants are waiting for.
//
// Cancellation propagates layer by layer. The SQL engines' one execution call,
// a prepared handle's ExecQueryBatchContext, takes the context outright; the
// client-side engine's table fetch probes for ContextQueryExecutor:
//
//	core      between work units (this package)
//	godbc     pool checkout; the wire round trip (the caller is freed and the
//	          pooled connection sacrificed — the server finishes the request
//	          it is serving); the embedded executors' profiled vendor delays
//	sqldb     between the bindings of a batched execution (embedded executors)
//
// A canceled analysis always returns the context's error — never a partial
// report, which would be indistinguishable from a complete one.

import (
	"context"
	"fmt"

	"repro/internal/asl/sqlgen"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// AnalyzeObjectCtx is AnalyzeObject observing a context. The interpreter runs
// in process with no blocking points, so cancellation is checked between
// property instances.
func (a *Analyzer) AnalyzeObjectCtx(ctx context.Context, run *model.TestRun) (*Report, error) {
	pl, err := a.planFor(run)
	if err != nil {
		return nil, err
	}
	instances, err := a.evalObject(ctx, pl.ctxs)
	if err != nil {
		return nil, err
	}
	return a.finish("object", run.NoPe, instances), nil
}

// AnalyzeClientSideCtx is AnalyzeClientSide observing a context: the
// store-fetching queries observe it when the executor supports contexts, and
// the interpretation phase checks it between instances.
func (a *Analyzer) AnalyzeClientSideCtx(ctx context.Context, run *model.TestRun, q QueryExec) (*Report, error) {
	if a.constErr != nil {
		return nil, a.constErr
	}
	store, err := sqlgen.ReadStore(a.world, ctxQueryExec(ctx, q))
	if err != nil {
		return nil, err
	}
	version := a.versionOf(run)
	if version == nil {
		return nil, fmt.Errorf("core: run not part of the analyzed dataset")
	}
	sc, err := a.scopeFromStore(store, version, run.NoPe)
	if err != nil {
		return nil, err
	}
	items, err := a.enumerate(sc)
	if err != nil {
		return nil, err
	}
	instances, err := a.evalObject(ctx, items)
	if err != nil {
		return nil, err
	}
	return a.finish("client-sql", run.NoPe, instances), nil
}

// ctxQueryExec binds a context to an executor: the returned executor routes
// every ExecQuery through the context-observing call when the underlying
// executor has one. With no context support (or an uncancellable context) the
// executor is returned unwrapped.
func ctxQueryExec(ctx context.Context, q QueryExec) QueryExec {
	ce, ok := q.(sqlgen.ContextQueryExecutor)
	if !ok || ctx.Done() == nil {
		return q
	}
	return boundExec{ctx: ctx, q: ce}
}

// boundExec is a QueryExec with a context pre-bound to every execution.
type boundExec struct {
	ctx context.Context
	q   sqlgen.ContextQueryExecutor
}

func (b boundExec) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return b.q.ExecQueryContext(b.ctx, query, params)
}
