package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/asl/sqlgen"
	"repro/internal/sqldb"
)

// Batched execution: how the contexts of a property reach the database.
//
// Every execution is one call of a prepared handle's ExecQueryBatchContext —
// the one contract the SQL engines ask of an executor (sqlgen.QueryPreparer,
// or sqlgen.RoutedPreparer where it routes) and of its handles
// (sqlgen.ContextBatchPreparedQuery). What varies is the bindings a call
// carries.
//
// The set form is the default. A property compiles to one statement whose
// contexts are a relation (sqlgen.CompilePropertySet); an analysis executes
// it once — a batch of one binding, the run and the ranking basis — and maps
// the rows it answers with to the plan's instances by their ctx column
// (evalSQLSet): one round trip, one result-cache entry and one result set per
// property instead of one per context. Guided search (AnalyzeGuidedSQL) runs
// the same evaluation (evalSQL) and reads the instances it visits.
//
// The per-context path is what the set form falls back to, and what runs
// outright where the set form does not apply. Every context of a property
// executes the same prepared handle with only the parameters changing, so the
// analyzer ships them as array-bound batches of up to BatchSize parameter sets
// (evalSQLCtxs): one round trip per batch. It runs
//
//   - for a property whose set statement failed to prepare or to execute, or
//     did not answer with exactly one well-formed row per planned context —
//     one region with two summaries for a run makes UNIQUE raise, which fails
//     the whole statement; executed per context, that region gets its
//     diagnostic and its neighbours their outcomes, which is what a report has
//     always shown;
//   - for every property under WithBatchSize(1), "per-instance execution": a
//     batch of one binding per context, which makes it the differential oracle
//     of the set form in every determinism test that varies the batch size.
//
// Work units — a set-form property, or a chunk of per-context instances — are
// independent items for the worker pool, and results are written into the
// same pre-assigned enumeration-order slots either way, so reports render
// byte-identical on both paths at any worker count.

// DefaultBatchSize is the number of parameter sets shipped per batched
// request when no explicit size is configured.
const DefaultBatchSize = 32

// WithBatchSize sets the number of context instances executed per batched
// request on the SQL engines: n = 1 executes per instance, one batch of one
// binding per context; n > 1 evaluates each property by its set form — one
// execution for all contexts — and sizes the array-bound batches of the
// per-context path wherever that runs (the set-form fallback); and n <= 0
// selects DefaultBatchSize.
func WithBatchSize(n int) Option { return func(a *Analyzer) { a.batchSize = n } }

// BatchSize returns the effective batch size used for an analysis.
func (a *Analyzer) BatchSize() int {
	if a.batchSize <= 0 {
		return DefaultBatchSize
	}
	return a.batchSize
}

// chunk is one worker-pool unit of a SQL analysis: a run of consecutive
// enumerated instances of one property. A set unit covers all of a property's
// instances with one execution of its set form; any other executes them per
// context, in one batch.
type chunk struct {
	prop     int // index into the plan's (and the analysis's) properties
	start, n int
	set      bool
}

// abortSentinel matches errors that must abort a whole analysis rather than
// become an instance diagnostic. The sharding driver tags transport failures
// with the dead shard's address through this interface (godbc.ShardError):
// with one of N servers unreachable, an analysis would otherwise emit a
// partial report whose missing instances hide as diagnostics.
type abortSentinel interface{ ShardAddr() string }

// fatalExecErr reports whether an execution error must abort the analysis:
// a shard loss, or the analysis context being canceled — a canceled caller
// has stopped waiting, so executing the remaining instances would spend
// capacity on a report nobody reads.
func fatalExecErr(err error) bool {
	var se abortSentinel
	return errors.As(err, &se) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// analysisAbort collects the first fatal execution failure of an analysis.
// Workers keep filling their pre-assigned slots (the merge stays
// deterministic), but the report is discarded and the failure returned.
type analysisAbort struct {
	mu  sync.Mutex
	err error
}

// record keeps the first fatal error.
func (f *analysisAbort) record(err error) {
	if f == nil || err == nil || !fatalExecErr(err) {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// Err returns the recorded failure, if any.
func (f *analysisAbort) Err() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// evalSQLCtxs evaluates contexts of one compiled property, writing one
// Instance per context into out (out[i] belongs to ctxs[i], bindings[i] is
// its parameter set), in batches of up to BatchSize bindings. Shard losses
// are recorded in fail as well as diagnosed; once one is recorded, remaining
// contexts are diagnosed without executing — the analysis is already doomed
// to abort, and issuing more requests at a dead shard would pay a timeout
// apiece for a report that will be discarded.
func (a *Analyzer) evalSQLCtxs(ctx context.Context, c preparedProp, ctxs []instCtx, bindings []*sqldb.Params, out []Instance, fail *analysisAbort) {
	// A binding mismatch (runPlan.bind) or a statement without a handle
	// diagnoses the whole group without issuing a single query.
	if c.err != nil {
		diagnose(ctxs, out, c.err)
		return
	}
	size := a.BatchSize()
	for start := 0; start < len(ctxs); start += size {
		end := min(start+size, len(ctxs))
		if err := ctx.Err(); err != nil {
			fail.record(err)
		}
		if aborted(ctxs[start:], out[start:], fail) {
			return
		}
		a.evalSQLBatch(ctx, c, ctxs[start:end], bindings[start:end], out[start:end], fail)
	}
}

// diagnose fills every slot with one failure as its diagnostic.
func diagnose(ctxs []instCtx, out []Instance, err error) {
	for i, ictx := range ctxs {
		out[i] = Instance{Property: ictx.prop, Context: ictx.label, Outcome: Outcome{Diagnostic: err.Error()}}
	}
}

// aborted reports whether the analysis has already recorded a fatal failure;
// if so it fills the remaining slots with that failure as their diagnostic,
// keeping every slot populated for the (discarded) merge.
func aborted(ctxs []instCtx, out []Instance, fail *analysisAbort) bool {
	err := fail.Err()
	if err == nil {
		return false
	}
	diagnose(ctxs, out, err)
	return true
}

// execBatch runs the handle once per binding in one call.
func (c preparedProp) execBatch(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	results, err := c.batch.ExecQueryBatchContext(ctx, bindings)
	if err == nil && len(results) != len(bindings) {
		err = fmt.Errorf("core: batch returned %d results for %d bindings", len(results), len(bindings))
	}
	return results, err
}

// evalSQLBatch ships one chunk of contexts as a single batched request. A
// batch-level failure (transport, closed handle, a statement the server will
// not prepare) diagnoses every context of the chunk; per-binding failures
// diagnose only their own context.
func (a *Analyzer) evalSQLBatch(ctx context.Context, c preparedProp, ctxs []instCtx, bindings []*sqldb.Params, out []Instance, fail *analysisAbort) {
	results, err := c.execBatch(ctx, bindings)
	fail.record(err)
	for i, ictx := range ctxs {
		in := Instance{Property: ictx.prop, Context: ictx.label}
		switch {
		case err != nil:
			in.Diagnostic = err.Error()
		case results[i].Err != nil:
			fail.record(results[i].Err)
			in.Diagnostic = results[i].Err.Error()
		default:
			in.Outcome = interpretRow(c.cp, results[i].Set)
		}
		out[i] = in
	}
}

// evalSQLSet evaluates every context of a property with one execution of its
// set form, a batch of one binding, and folds the row of each planned context
// into its slot. It reports false, having settled nothing, when the per-
// context path must answer instead: the statement did not prepare, or failed
// for a reason that is some context's own (fatal errors — a lost shard,
// cancellation — abort the analysis as everywhere and are never retried), or
// its rows are not exactly one well-formed row per planned context.
func (a *Analyzer) evalSQLSet(ctx context.Context, c preparedProp, p *planProp, ctxs []instCtx, out []Instance, fail *analysisAbort) bool {
	if err := ctx.Err(); err != nil {
		fail.record(err)
	}
	if aborted(ctxs, out, fail) {
		return true
	}
	if c.err != nil {
		return false
	}
	results, err := c.execBatch(ctx, p.setBinding)
	var set *sqldb.ResultSet
	if err == nil {
		set, err = results[0].Set, results[0].Err
	}
	if err != nil {
		if !fatalExecErr(err) {
			return false
		}
		fail.record(err)
		diagnose(ctxs, out, err)
		return true
	}
	// Rows of contexts outside the plan — call sites a filter excludes — are
	// not this analysis's; a planned context answered for twice, or not at
	// all, is what the fallback exists for.
	width, seen := 1+rowWidth(c.cp), 0
	for _, row := range set.Rows {
		if len(row) != width || !row[0].IsInt() {
			return false
		}
		i, planned := p.index[row[0].Int()]
		if !planned {
			continue
		}
		if out[i].Property != "" {
			return false
		}
		out[i] = Instance{Property: ctxs[i].prop, Context: ctxs[i].label, Outcome: foldRow(c.cp, row[1:])}
		seen++
	}
	return seen == len(ctxs)
}
