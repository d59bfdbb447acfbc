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

	"repro/internal/asl/object"
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
	pl, err := a.planFor(run)
	if err != nil {
		return nil, err
	}
	store, err := sqlgen.ReadStore(a.world, ctxQueryExec(ctx, q))
	if err != nil {
		return nil, err
	}
	items, err := fetched(pl.ctxs, store)
	if err != nil {
		return nil, err
	}
	instances, err := a.evalObject(ctx, items)
	if err != nil {
		return nil, err
	}
	return a.finish("client-sql", run.NoPe, instances), nil
}

// fetched returns the planned contexts over a store fetched from the
// database: every argument object is replaced by the fetched object of its
// id, so the interpreter reads the database's data, not the graph's.
func fetched(ctxs []instCtx, store *object.Store) ([]instCtx, error) {
	byID := make(map[int64]*object.Object, store.Len())
	for _, o := range store.All() {
		byID[o.ID] = o
	}
	out := make([]instCtx, len(ctxs))
	for i, c := range ctxs {
		args := make([]object.Value, len(c.args))
		for k, arg := range c.args {
			planned := arg.(*object.Object)
			o := byID[planned.ID]
			if o == nil || o.Class.Name != planned.Class.Name {
				return nil, fmt.Errorf("core: %s %d not in database", planned.Class.Name, planned.ID)
			}
			args[k] = o
		}
		out[i] = instCtx{prop: c.prop, label: c.label, args: args}
	}
	return out, nil
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
