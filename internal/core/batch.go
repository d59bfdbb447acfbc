package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/asl/sqlgen"
	"repro/internal/sqldb"
)

// The batched execution pipeline. PR 2 removed the per-execution parse and
// plan cost; what remained was one client/server round trip per
// (property × context) instance. Since every context of a property executes
// the same prepared handle with only the parameters changing, the analyzer
// groups the contexts per property and ships each group as one array-bound
// batch (sqlgen.BatchPreparedQuery): one round trip per batch instead of one
// per instance. Chunking by the batch size bounds request and response
// sizes; chunks are independent work items for the worker pool, so batching
// composes with parallel evaluation. Results are written into the same
// pre-assigned enumeration-order slots as ever, so batched reports render
// byte-identical to unbatched ones at any worker count.

// DefaultBatchSize is the number of parameter sets shipped per batched
// request when no explicit size is configured.
const DefaultBatchSize = 32

// WithBatchSize sets the number of context instances executed per batched
// request on the SQL engines: n > 1 batches in chunks of n, n = 1 forces the
// per-instance execution of the prepared pipeline, and n <= 0 selects
// DefaultBatchSize. Executors without batch support fall back to
// per-instance execution regardless.
func WithBatchSize(n int) Option { return func(a *Analyzer) { a.batchSize = n } }

// BatchSize returns the effective batch size used for an analysis.
func (a *Analyzer) BatchSize() int {
	if a.batchSize <= 0 {
		return DefaultBatchSize
	}
	return a.batchSize
}

// chunk is one worker-pool unit of a SQL analysis: a run of consecutive
// enumerated instances of one property that execute as one batch (n > 1
// requires the property's handle to support array binding).
type chunk struct {
	prop     int // index into the plan's (and the analysis's) properties
	start, n int
}

// chunksFor returns the execution units of one analysis. The plan's layout —
// up to BatchSize instances of one property per chunk — holds when every
// property's handle supports array binding, which is every analysis of a
// batch-capable executor. A property that cannot batch (no prepared handle,
// or one without array binding) is split into single-instance chunks, so its
// instances still spread over the worker pool on the exact per-instance path.
func (pl *runPlan) chunksFor(props []preparedProp) []chunk {
	if !slices.ContainsFunc(props, func(c preparedProp) bool { return c.bq == nil }) {
		return pl.chunks
	}
	var chunks []chunk
	for _, ch := range pl.chunks {
		if props[ch.prop].bq != nil {
			chunks = append(chunks, ch)
			continue
		}
		for i := range ch.n {
			chunks = append(chunks, chunk{prop: ch.prop, start: ch.start + i, n: 1})
		}
	}
	return chunks
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
// its parameter set). When the prepared handle supports array binding and
// batching is enabled, every context executes through batched requests;
// otherwise each context pays its own execution, the per-instance prepared
// (or text) path. Shard losses are recorded in fail as well as diagnosed;
// once one is recorded, remaining contexts are diagnosed without executing —
// the analysis is already doomed to abort, and issuing more requests at a
// dead shard would pay a timeout apiece for a report that will be discarded.
func (a *Analyzer) evalSQLCtxs(ctx context.Context, q QueryExec, c preparedProp, ctxs []instCtx, bindings []*sqldb.Params, out []Instance, fail *analysisAbort) {
	if err := ctx.Err(); err != nil {
		fail.record(err)
	}
	if aborted(ctxs, out, fail) {
		return
	}
	// The plan checked every context's bindings against the compiled
	// parameter list (runPlan.bind); a mismatch diagnoses the whole group
	// without issuing a single query.
	if c.bindErr != nil {
		diagnose(ctxs, out, c.bindErr)
		return
	}
	size := a.BatchSize()
	if c.bq == nil || size <= 1 {
		for i, ictx := range ctxs {
			if err := ctx.Err(); err != nil {
				fail.record(err)
			}
			if aborted(ctxs[i:], out[i:], fail) {
				return
			}
			in := Instance{Property: ictx.prop, Context: ictx.label}
			set, err := c.exec(ctx, q, bindings[i])
			if err != nil {
				fail.record(err)
				in.Diagnostic = err.Error()
			} else {
				in.Outcome = interpretRow(c.cp, set)
			}
			out[i] = in
		}
		return
	}
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

// evalSQLBatch ships one chunk of contexts as a single batched request. A
// batch-level failure (transport, closed handle) diagnoses every context of
// the chunk, mirroring what per-instance execution of the same failing
// statement would report; per-binding failures diagnose only their own
// context.
func (a *Analyzer) evalSQLBatch(ctx context.Context, c preparedProp, ctxs []instCtx, bindings []*sqldb.Params, out []Instance, fail *analysisAbort) {
	var results []sqlgen.BatchQueryResult
	var err error
	if cb, ok := c.bq.(sqlgen.ContextBatchPreparedQuery); ok && ctx.Done() != nil {
		results, err = cb.ExecQueryBatchContext(ctx, bindings)
	} else {
		results, err = c.bq.ExecQueryBatch(bindings)
	}
	if err == nil && len(results) != len(ctxs) {
		err = fmt.Errorf("core: batch returned %d results for %d bindings", len(results), len(ctxs))
	}
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
