package core

import (
	"context"
	"errors"
	"fmt"
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
// enumerated items that share a property and execute as one batch (n > 1
// requires the property's handle to support array binding).
type chunk struct {
	start, n int
}

// batchChunks slices the enumerated items into execution units. Items whose
// property cannot batch (no prepared handle, the handle does not support
// array binding, or batching disabled) become single-instance chunks running
// the exact per-instance path.
func (a *Analyzer) batchChunks(items []evalItem) []chunk {
	size := a.BatchSize()
	var chunks []chunk
	for i := 0; i < len(items); {
		it := items[i]
		if it.sqlProp == nil || it.sqlProp.bq == nil || size <= 1 {
			chunks = append(chunks, chunk{start: i, n: 1})
			i++
			continue
		}
		n := 1
		for i+n < len(items) && n < size && items[i+n].sqlProp == it.sqlProp {
			n++
		}
		chunks = append(chunks, chunk{start: i, n: n})
		i += n
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

// evalSQLCtxs evaluates the contexts of one compiled property, writing one
// Instance per context into out (out[i] belongs to ctxs[i]). When the
// prepared handle supports array binding and batching is enabled, every
// context executes through batched requests; otherwise each context pays its
// own execution, the per-instance prepared (or text) path. Shard losses are
// recorded in fail as well as diagnosed; once one is recorded, remaining
// contexts are diagnosed without executing — the analysis is already doomed
// to abort, and issuing more requests at a dead shard would pay a timeout
// apiece for a report that will be discarded.
func (a *Analyzer) evalSQLCtxs(ctx context.Context, q QueryExec, c *compiledProp, prop string, ctxs []instCtx, out []Instance, fail *analysisAbort) {
	if err := ctx.Err(); err != nil {
		fail.record(err)
	}
	if aborted(prop, ctxs, out, fail) {
		return
	}
	// Validate every context's bindings against the compiled parameter list
	// before anything executes, and fill the positional slice when the
	// dialect renders positional markers. A mismatch is systematic — every
	// context of a property binds the same parameter shape — so the first
	// failure diagnoses the whole group without issuing a single query.
	for _, ictx := range ctxs {
		err := c.cp.CheckBinding(ictx.params)
		if err == nil && c.paramOrder != nil {
			err = sqlgen.FillPositional(ictx.params, c.paramOrder)
		}
		if err != nil {
			for i, ic := range ctxs {
				out[i] = Instance{Property: prop, Context: ic.label, Outcome: Outcome{Diagnostic: err.Error()}}
			}
			return
		}
	}
	size := a.BatchSize()
	if c.bq == nil || size <= 1 {
		for i, ictx := range ctxs {
			if err := ctx.Err(); err != nil {
				fail.record(err)
			}
			if aborted(prop, ctxs[i:], out[i:], fail) {
				return
			}
			in := Instance{Property: prop, Context: ictx.label}
			set, err := c.exec(ctx, q, ictx.params)
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
		if aborted(prop, ctxs[start:], out[start:], fail) {
			return
		}
		a.evalSQLBatch(ctx, c, prop, ctxs[start:end], out[start:end], fail)
	}
}

// aborted reports whether the analysis has already recorded a fatal failure;
// if so it fills the remaining slots with that failure as their diagnostic,
// keeping every slot populated for the (discarded) merge.
func aborted(prop string, ctxs []instCtx, out []Instance, fail *analysisAbort) bool {
	err := fail.Err()
	if err == nil {
		return false
	}
	for i, ctx := range ctxs {
		out[i] = Instance{Property: prop, Context: ctx.label, Outcome: Outcome{Diagnostic: err.Error()}}
	}
	return true
}

// evalSQLBatch ships one chunk of contexts as a single batched request. A
// batch-level failure (transport, closed handle) diagnoses every context of
// the chunk, mirroring what per-instance execution of the same failing
// statement would report; per-binding failures diagnose only their own
// context.
func (a *Analyzer) evalSQLBatch(ctx context.Context, c *compiledProp, prop string, ctxs []instCtx, out []Instance, fail *analysisAbort) {
	bindings := make([]*sqldb.Params, len(ctxs))
	for i, ictx := range ctxs {
		bindings[i] = ictx.params
	}
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
		in := Instance{Property: prop, Context: ictx.label}
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
