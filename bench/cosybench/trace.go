package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/asl/sqlgen"
	"repro/internal/core"
	"repro/internal/sqldb"
)

// Tracing from outside. The traced pass records a span around every call
// the harness makes into a layer and — through timedExec, which stands
// between core and godbc — around every call core makes into the driver.
// Nothing inside the layers is edited. Spans stay in memory and are written
// out when the child ends.

// span is one timed call. Times are nanoseconds since the tracer started.
type span struct {
	ID int `json:"id"`
	// Parent is the span that caused this one, 0 for a root. Op numbers the
	// benchmark op the span belongs to; 0 means the span could not be
	// attributed to one op (executor calls made on behalf of concurrent
	// service requests: the service boundary hides which request issued a
	// call, so those are attributed by totals instead).
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Stmt indexes the trace's statement table (1-based, 0 = none) and
	// Bindings counts the parameter sets the call carried.
	Stmt     int `json:"stmt,omitempty"`
	Bindings int `json:"bindings,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names of executor calls, by what they carry.
const (
	spanPrepare = "godbc.prepare"
	spanBatch   = "godbc.exec_batch"
	spanQuery   = "godbc.exec_query"
	spanUpdate  = "godbc.exec.update"
	spanDelete  = "godbc.exec.delete"
	spanInsert  = "godbc.exec.insert"
	spanAnalyze = "core.analyze"
	spanOp      = "op"
)

// call is the payload of one executor span, kept for the first few ops so
// the replay can drive the lower boundaries with exactly what the op sent.
type call struct {
	name     string
	op       int
	sql      string
	bindings []*sqldb.Params
	sets     []*sqldb.ResultSet
	affected int
}

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// open is the stack of harness spans on a single-client pass; executor
	// spans hang under its top. op is the current op on such a pass.
	open []int
	op   int
	// keepOps bounds payload recording: calls of ops 1..keepOps are kept.
	keepOps  int
	calls    []call
	stmtIdx  map[string]int
	stmtList []string
}

func newTracer(keepOps int) *tracer {
	return &tracer{t0: time.Now(), keepOps: keepOps, stmtIdx: make(map[string]int)}
}

// beginOp opens the root span of op n on a single-client pass. A nil tracer
// records nothing, so op code is the same traced or not.
func (t *tracer) beginOp(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = n
	t.mu.Unlock()
	t.push(spanOp)
}

func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.pop()
	t.mu.Lock()
	t.op = 0
	t.mu.Unlock()
}

// push opens a harness span under the innermost open one.
func (t *tracer) push(name string) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.top(), Op: t.op, Name: name, Start: now})
	t.open = append(t.open, id)
}

// pop closes the innermost open harness span.
func (t *tracer) pop() {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = now
}

func (t *tracer) top() int {
	if len(t.open) == 0 {
		return 0
	}
	return t.open[len(t.open)-1]
}

// concurrentOp records a finished op of a pass with several clients, where
// there is no single stack of open spans to hang it on and no one current op.
func (t *tracer) concurrentOp(start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: spanOp,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// leaf records one finished executor call under the innermost open harness
// span, with its payload while the op is among the first keepOps.
func (t *tracer) leaf(name string, start, end time.Time, sql string, bindings []*sqldb.Params, sets []*sqldb.ResultSet, affected int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.stmtIdx[sql]
	if !ok {
		t.stmtList = append(t.stmtList, sql)
		idx = len(t.stmtList)
		t.stmtIdx[sql] = idx
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.top(), Op: t.op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Stmt: idx, Bindings: len(bindings),
	})
	if t.op >= 1 && t.op <= t.keepOps {
		t.calls = append(t.calls, call{name: name, op: t.op, sql: sql, bindings: bindings, sets: sets, affected: affected})
	}
}

// mark returns the number of spans recorded so far, to delimit a phase.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// traceFile is the layout of bench/out/trace_<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	// Statements is the table span.Stmt indexes (1-based).
	Statements []string `json:"statements"`
	// Spans holds every span of the first maxTraceOps ops plus all
	// unattributed (op 0) spans recorded while those ops ran.
	Spans []span `json:"spans"`
	// TotalSpans counts the spans of the whole traced pass.
	TotalSpans int `json:"total_spans"`
}

// maxTraceOps bounds the trace file: per-layer totals use every span, the
// file keeps the first ops so it stays readable (an op has 70-450 spans).
const maxTraceOps = 32

func (t *tracer) write(path, workload string) error {
	t.mu.Lock()
	tf := traceFile{Workload: workload, Statements: t.stmtList, TotalSpans: len(t.spans)}
	var cutoff int64 = -1
	for _, s := range t.spans {
		if s.Name == spanOp && s.Op == maxTraceOps {
			cutoff = s.End
		}
	}
	for _, s := range t.spans {
		if cutoff >= 0 && s.Start > cutoff {
			continue
		}
		tf.Spans = append(tf.Spans, s)
	}
	t.mu.Unlock()
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, for every span named name among spans, its duration
// minus the time its direct children cover.
func selfTimes(spans []span, name string) []time.Duration {
	children := make(map[int]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur()-children[s.ID])
		}
	}
	return out
}

// execInner is everything core probes an executor for. timedExec requires
// all of it from what it wraps, so wrapping can never hide a capability and
// silently move core onto a different execution path.
type execInner interface {
	sqlgen.QueryExecutor
	sqlgen.QueryPreparer
	sqlgen.ContextQueryExecutor
	core.ConcurrentQuerier
}

// stmtInner is everything core probes a prepared handle for.
type stmtInner interface {
	sqlgen.BatchPreparedQuery
	sqlgen.ContextPreparedQuery
	sqlgen.ContextBatchPreparedQuery
}

// timedExec wraps the executor core runs on, forwarding every interface
// core probes and recording a span (and the statement and bindings carried)
// per call.
type timedExec struct {
	tr    *tracer
	inner execInner
}

func newTimedExec(tr *tracer, q core.QueryExec) (*timedExec, error) {
	inner, ok := q.(execInner)
	if !ok {
		return nil, fmt.Errorf("trace: executor %T lacks an interface core probes for", q)
	}
	return &timedExec{tr: tr, inner: inner}, nil
}

func (e *timedExec) ConcurrentQuery() bool { return e.inner.ConcurrentQuery() }

func (e *timedExec) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	t0 := time.Now()
	set, err := e.inner.ExecQuery(query, params)
	e.tr.leaf(spanQuery, t0, time.Now(), query, []*sqldb.Params{params}, []*sqldb.ResultSet{set}, 0)
	return set, err
}

func (e *timedExec) ExecQueryContext(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	t0 := time.Now()
	set, err := e.inner.ExecQueryContext(ctx, query, params)
	e.tr.leaf(spanQuery, t0, time.Now(), query, []*sqldb.Params{params}, []*sqldb.ResultSet{set}, 0)
	return set, err
}

func (e *timedExec) PrepareQuery(query string) (sqlgen.PreparedQuery, error) {
	t0 := time.Now()
	pq, err := e.inner.PrepareQuery(query)
	e.tr.leaf(spanPrepare, t0, time.Now(), query, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	inner, ok := pq.(stmtInner)
	if !ok {
		pq.Close()
		return nil, fmt.Errorf("trace: prepared handle %T lacks an interface core probes for", pq)
	}
	return &timedStmt{tr: e.tr, sql: query, inner: inner}, nil
}

type timedStmt struct {
	tr    *tracer
	sql   string
	inner stmtInner
}

func (s *timedStmt) Close() error { return s.inner.Close() }

func (s *timedStmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	t0 := time.Now()
	set, err := s.inner.ExecQuery(params)
	s.tr.leaf(spanQuery, t0, time.Now(), s.sql, []*sqldb.Params{params}, []*sqldb.ResultSet{set}, 0)
	return set, err
}

func (s *timedStmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	t0 := time.Now()
	set, err := s.inner.ExecQueryContext(ctx, params)
	s.tr.leaf(spanQuery, t0, time.Now(), s.sql, []*sqldb.Params{params}, []*sqldb.ResultSet{set}, 0)
	return set, err
}

func (s *timedStmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	t0 := time.Now()
	res, err := s.inner.ExecQueryBatch(bindings)
	s.tr.leaf(spanBatch, t0, time.Now(), s.sql, bindings, batchSets(res), 0)
	return res, err
}

func (s *timedStmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	t0 := time.Now()
	res, err := s.inner.ExecQueryBatchContext(ctx, bindings)
	s.tr.leaf(spanBatch, t0, time.Now(), s.sql, bindings, batchSets(res), 0)
	return res, err
}

func batchSets(res []sqlgen.BatchQueryResult) []*sqldb.ResultSet {
	sets := make([]*sqldb.ResultSet, len(res))
	for i, r := range res {
		sets[i] = r.Set
	}
	return sets
}
