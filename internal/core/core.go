// Package core implements the KOJAK Cost Analyzer (COSY): it enumerates
// property instances over a performance-data snapshot, evaluates them with
// either the ASL object interpreter (client-side) or the generated SQL
// queries (server-side), ranks properties by severity, and reports
// performance problems and the bottleneck, following Section 3 and 4 of the
// paper.
package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/asl/ast"
	"repro/internal/asl/eval"
	"repro/internal/asl/object"
	"repro/internal/asl/sem"
	"repro/internal/asl/sqlgen"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// DefaultThreshold is the severity above which a property is a performance
// problem: 5% of the ranking basis duration.
const DefaultThreshold = 0.05

// Outcome is the result of evaluating one property instance.
type Outcome struct {
	// Holds reports whether any condition of the property was true.
	Holds bool
	// Confidence in [0,1].
	Confidence float64
	// Severity relative to the ranking basis.
	Severity float64
	// Diagnostic is non-empty when the instance could not be evaluated
	// (missing data; UNIQUE over an empty set and similar), in which case
	// Holds is false.
	Diagnostic string
}

// Instance is one evaluated property instance.
type Instance struct {
	// Property is the ASL property name.
	Property string
	// Context describes the instance parameters, e.g. "region main/sweep".
	Context string
	Outcome
}

// Report is the analysis result for one test run.
type Report struct {
	Program   string
	NoPe      int
	Engine    string
	Threshold float64
	// Instances holds every instance that holds, sorted by decreasing
	// severity (ties broken by property and context for determinism).
	Instances []Instance
	// Skipped counts instances that did not hold; Diagnostics lists
	// instances that could not be evaluated.
	Skipped     int
	Diagnostics []Instance
}

// Problems returns the instances whose severity exceeds the threshold, i.e.
// the performance problems of the paper's definition.
func (r *Report) Problems() []Instance {
	var out []Instance
	for _, in := range r.Instances {
		if in.Severity > r.Threshold {
			out = append(out, in)
		}
	}
	return out
}

// Bottleneck returns the most severe instance, or nil if nothing holds. Per
// the paper, if the bottleneck is not a performance problem the program
// needs no further tuning.
func (r *Report) Bottleneck() *Instance {
	if len(r.Instances) == 0 {
		return nil
	}
	return &r.Instances[0]
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithThreshold sets the performance-problem severity threshold.
func WithThreshold(t float64) Option { return func(a *Analyzer) { a.threshold = t } }

// WithProperties restricts and orders the evaluated properties.
func WithProperties(names ...string) Option {
	return func(a *Analyzer) { a.props = append([]string(nil), names...) }
}

// WithConst overrides a specification constant (e.g. ImbalanceThreshold).
func WithConst(name string, value float64) Option {
	return func(a *Analyzer) { a.consts[name] = value }
}

// WithSQLDialect selects the SQL dialect the property compiler renders for
// on the SQL engine paths (see internal/sqlast/build). The default is the
// canonical "kojakdb" dialect, whose rendering is the byte-exact text the
// plan and result caches key on. Positional-marker dialects ("ansi") make
// the analyzer fill each context's positional parameter slice from its named
// bindings in rendered marker order. The name is validated when an analysis
// first compiles a property, not here.
func WithSQLDialect(name string) Option {
	return func(a *Analyzer) { a.dialect = name }
}

// Analyzer evaluates the canonical property set over a materialized graph.
// Every engine reads the analyzer's one world — the specification with the
// constant overrides declared in it — and its one plan per run. Property
// instances are evaluated on a bounded worker pool (see WithWorkers
// and parallel.go); results are merged deterministically, so reports do not
// depend on the worker count.
type Analyzer struct {
	// world is the graph's specification, with every constant override
	// declared as a literal of its value (see New).
	world     *sem.World
	graph     *model.Graph
	threshold float64
	props     []string
	consts    map[string]float64
	// constErr, set by New, names a constant override the specification does
	// not declare; every engine refuses to analyze with it.
	constErr error
	// workers is the evaluation worker count; <= 0 means GOMAXPROCS.
	workers int
	// batchSize is the number of context instances per batched request on
	// the SQL engines; <= 0 means DefaultBatchSize, 1 disables batching.
	batchSize int
	// dialect is the SQL dialect properties are rendered in; "" means the
	// canonical kojakdb dialect.
	dialect string

	// plans holds the evaluation plan of every run analyzed so far (see
	// plan.go); planMu guards the map, the plans themselves are read-only.
	planMu sync.Mutex
	plans  map[*model.TestRun]*runPlan
	// compiled holds the properties' queries, made by the first SQL analysis.
	compileOnce sync.Once
	compiled    []compiledProp

	// setFallbacks counts the properties an analysis had to evaluate context
	// by context because their set-form statement did not answer with one
	// well-formed row per planned context; lastFallback names the latest.
	setFallbacks atomic.Int64
	lastFallback atomic.Pointer[string]
}

// New returns an analyzer over the graph.
func New(g *model.Graph, opts ...Option) *Analyzer {
	a := &Analyzer{
		world:     g.World,
		graph:     g,
		threshold: DefaultThreshold,
		props:     append([]string(nil), model.AllProperties...),
		consts:    make(map[string]float64),
		plans:     make(map[*model.TestRun]*runPlan),
	}
	for _, o := range opts {
		o(a)
	}
	if len(a.consts) > 0 {
		a.world, a.constErr = withConsts(g.World, a.consts)
	}
	return a
}

// withConsts returns a shallow copy of w in which each named constant is
// declared as a literal of its override value. The object interpreter and the
// SQL compiler both read a constant from its declaration, so every engine sees
// the same override, and a constant computed from an overridden one follows
// it. A name w does not declare is an error, and w is returned as it is.
func withConsts(w *sem.World, consts map[string]float64) (*sem.World, error) {
	over := *w
	over.ConstDecls = maps.Clone(w.ConstDecls)
	for _, name := range slices.Sorted(maps.Keys(consts)) {
		decl, ok := w.ConstDecls[name]
		if !ok {
			return w, fmt.Errorf("core: unknown constant %s", name)
		}
		lit := &ast.FloatLit{LitPos: decl.Value.Pos(), Value: consts[name]}
		over.ConstDecls[name] = &ast.ConstDecl{Type: decl.Type, Name: name, Value: lit}
	}
	return &over, nil
}

// Fallbacks reports how many times a property's set-form statement — one
// execution for all its contexts — failed or came back malformed, so that the
// analysis evaluated the property per context instead, and the name of the
// last such property. Zero on healthy data; a count that keeps growing says
// the data violates a UNIQUE somewhere (one region with two summaries for a
// run fails the whole statement) and every analysis pays a request per batch
// of contexts rather than one for that property.
func (a *Analyzer) Fallbacks() (n int64, last string) {
	if p := a.lastFallback.Load(); p != nil {
		last = *p
	}
	return a.setFallbacks.Load(), last
}

// instCtx is one property instance before evaluation.
type instCtx struct {
	prop  string
	label string
	args  []object.Value
	// reg is the pre-order index, in the scope, of the region that scopes the
	// context for guided search: the region itself, or the calling region of
	// a call site (-1 when the call site has none). [reg, regEnd) is that
	// region's subtree; without a region it is every region.
	reg, regEnd int
}

// id is the context's object id: the ctx column of its set-form row, and what
// the restricted statement binds under the context parameter.
func (c *instCtx) id() int64 { return c.args[0].(*object.Object).ID }

// scope is the slice of a database one analysis looks at: the regions and
// call sites of one program version, the selected test run, and the ranking
// basis. The COSY database holds multiple applications and versions; the
// scope is what the paper's "select a program version and a specific test
// run" step produces.
type scope struct {
	regions []*object.Object
	calls   []*object.Object
	run     *object.Object
	basis   *object.Object
	// subtree maps each region to the index range [lo, hi) of its subtree in
	// regions. Their order is a pre-order walk of each function's region
	// trees (model.Region.Walk), so a subtree is contiguous.
	subtree map[*object.Object][2]int
}

// scopeFromGraph builds the scope for a run of the analyzer's own dataset.
func (a *Analyzer) scopeFromGraph(run *model.TestRun) (*scope, error) {
	runObj, ok := a.graph.Runs[run]
	if !ok {
		return nil, fmt.Errorf("core: run not part of the analyzed dataset")
	}
	sc := &scope{regions: a.graph.OrderedRegions, calls: a.graph.OrderedCalls, run: runObj}
	var err error
	if sc.basis, err = findBasis(sc.regions); err != nil {
		return nil, err
	}
	// Backwards, a region's descendants are done before it, and reading its
	// ParentRegion once extends the parent's range.
	sc.subtree = make(map[*object.Object][2]int, len(sc.regions))
	for i := len(sc.regions) - 1; i >= 0; i-- {
		r := sc.regions[i]
		span := [2]int{i, max(sc.subtree[r][1], i+1)}
		sc.subtree[r] = span
		if p, ok := r.Get("ParentRegion").(*object.Object); ok {
			sc.subtree[p] = [2]int{0, max(sc.subtree[p][1], span[1])}
		}
	}
	return sc, nil
}

// versionRuns and contextPaths declare, once, how the canonical data model
// contains an analysis's contexts: a program version owns its test runs and,
// through its functions, the regions and the call sites. The set form of a
// property query joins the path's junction tables into its context relation
// (sqlgen.CompilePropertySet).
const (
	versionClass = "ProgVersion"
	versionRuns  = "Runs"
)

var contextPaths = map[string]sqlgen.ContextPath{
	"Region":       {Root: versionClass, Runs: versionRuns, Steps: []string{"Functions", "Regions"}},
	"FunctionCall": {Root: versionClass, Runs: versionRuns, Steps: []string{"Functions", "Calls"}},
}

// ContextPath returns the containment path of a context class of the
// canonical model, the one AnalyzeSQL compiles set-form statements with.
func ContextPath(class string) (sqlgen.ContextPath, bool) {
	p, ok := contextPaths[class]
	return p, ok
}

// contexts enumerates the instances of a property over a scope: properties
// with a Region first parameter get one instance per region; properties
// with a FunctionCall first parameter one per call site (LoadImbalance's only
// those of the barrier routine, as the paper prescribes). The test run and
// ranking basis fill the remaining parameters. Every engine binds them by
// position, so this is where a property's signature is vouched for: a
// context of either class, a TestRun and a Region, in that order, or the
// analysis is refused.
func (a *Analyzer) contexts(sc *scope, prop string) ([]instCtx, error) {
	if a.world.PropDecls[prop] == nil {
		return nil, fmt.Errorf("core: unknown property %s", prop)
	}
	sig := a.world.Props[prop].Params
	if len(sig) != 3 || !isClass(sig[0], "Region", "FunctionCall") || !isClass(sig[1], "TestRun") || !isClass(sig[2], "Region") {
		return nil, fmt.Errorf("core: property %s: parameters %s, want (Region or FunctionCall context, TestRun run, Region basis)", prop, paramList(sig))
	}

	mk := func(label string, first, region *object.Object) instCtx {
		span, ok := sc.subtree[region]
		if !ok {
			span = [2]int{-1, len(sc.regions)}
		}
		return instCtx{
			prop:   prop,
			label:  label,
			args:   []object.Value{first, sc.run, sc.basis},
			reg:    span[0],
			regEnd: span[1],
		}
	}

	var out []instCtx
	if isClass(sig[0], "Region") {
		for _, r := range sc.regions {
			name, _ := r.Get("Name").(object.Str)
			out = append(out, mk("region "+string(name), r, r))
		}
		return out, nil
	}
	for _, c := range sc.calls {
		callee, _ := c.Get("Callee").(object.Str)
		if prop == "LoadImbalance" && string(callee) != model.BarrierFunction {
			continue
		}
		where := ""
		reg, _ := c.Get("CallingReg").(*object.Object)
		if reg != nil {
			if n, ok := reg.Get("Name").(object.Str); ok {
				where = "@" + string(n)
			}
		}
		out = append(out, mk("call "+string(callee)+where, c, reg))
	}
	return out, nil
}

// isClass reports whether a parameter is typed by one of the named classes.
func isClass(p sem.Attr, names ...string) bool {
	cls, ok := p.Type.(*sem.Class)
	return ok && slices.Contains(names, cls.Name)
}

// paramList spells a parameter list as declared: "(Region r, TestRun t)".
func paramList(params []sem.Attr) string {
	parts := make([]string, len(params))
	for i, p := range params {
		parts[i] = p.Type.String() + " " + p.Name
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// findBasis locates the whole-program region, the default ranking basis.
func findBasis(regions []*object.Object) (*object.Object, error) {
	for _, r := range regions {
		if k, ok := r.Get("Kind").(object.Str); ok && string(k) == string(model.KindProgram) {
			return r, nil
		}
	}
	return nil, fmt.Errorf("core: no program region to use as ranking basis")
}

// finish sorts, classifies, and wraps evaluated instances into a report.
func (a *Analyzer) finish(engine string, nope int, instances []Instance) *Report {
	rep := &Report{
		Program:   a.graph.Dataset.Program,
		NoPe:      nope,
		Engine:    engine,
		Threshold: a.threshold,
	}
	keys := make([]severityKey, 0, len(instances))
	for i := range instances {
		in := &instances[i]
		switch {
		case in.Diagnostic != "":
			rep.Diagnostics = append(rep.Diagnostics, *in)
		case in.Holds:
			keys = append(keys, severityKey{in.Severity, int32(i)})
		default:
			rep.Skipped++
		}
	}
	rep.Instances = sortBySeverity(instances, keys)
	return rep
}

// severityKey is what the report sort moves in place of an Instance: its
// severity and its index, 16 bytes with no pointer for the sort's moves to
// pass through the write barrier.
type severityKey struct {
	severity float64
	i        int32
}

// sortBySeverity returns the instances the keys index, ordered as reports list
// them: decreasing severity, ties broken by property and context for
// determinism. The sort is stable, so instances equal in all three keep the
// order of keys. The result is allocated once, at its length (nil for no
// keys).
func sortBySeverity(in []Instance, keys []severityKey) []Instance {
	if len(keys) == 0 {
		return nil
	}
	slices.SortStableFunc(keys, func(x, y severityKey) int {
		if x.severity != y.severity {
			// A NaN severity is neither above nor below anything: it ties
			// with every other, without falling through to the names.
			switch {
			case x.severity > y.severity:
				return -1
			case x.severity < y.severity:
				return 1
			}
			return 0
		}
		a, b := &in[x.i], &in[y.i]
		if c := strings.Compare(a.Property, b.Property); c != 0 {
			return c
		}
		return strings.Compare(a.Context, b.Context)
	})
	out := make([]Instance, len(keys))
	for j, k := range keys {
		out[j] = in[k.i]
	}
	return out
}

// AnalyzeObject evaluates all properties for the run using the ASL object
// interpreter over the in-memory graph.
func (a *Analyzer) AnalyzeObject(run *model.TestRun) (*Report, error) {
	return a.AnalyzeObjectCtx(context.Background(), run)
}

// preparedProp is a compiled property as one analysis executes it: one of its
// renderings and the prepared handle, shared by every execution of the
// property in the analysis, or why it has none.
type preparedProp struct {
	*compiledProp
	// err, when set, diagnoses every context of the property without a query
	// being issued: a prepare the executor refused, or a handle that cannot
	// execute batches.
	err error
	// handle is the prepared statement, closed after the analysis; batch is
	// its context-observing batch execution, the one call every work unit
	// makes (see batch.go). Both are nil when err is set.
	handle sqlgen.PreparedQuery
	batch  sqlgen.ContextBatchPreparedQuery
}

// prepare readies one rendering of a compiled property for one analysis by
// preparing it. Sharded executors (sqlgen.RoutedPreparer) are handed the
// property's run parameter so every execution routes to the shard owning its
// context's run. A refused prepare, or a handle without
// sqlgen.ContextBatchPreparedQuery, becomes the property's diagnostic: errors
// never abort a run.
func (c *compiledProp) prepare(preparer sqlgen.QueryPreparer, sql string) preparedProp {
	p := preparedProp{compiledProp: c}
	var pq sqlgen.PreparedQuery
	if rp, ok := preparer.(sqlgen.RoutedPreparer); ok {
		pq, p.err = rp.PrepareRoutedQuery(sql, c.runParam)
	} else {
		pq, p.err = preparer.PrepareQuery(sql)
	}
	if p.err != nil {
		return p
	}
	batch, ok := pq.(sqlgen.ContextBatchPreparedQuery)
	if !ok {
		pq.Close()
		p.err = fmt.Errorf("core: prepared handle %T cannot execute batches", pq)
		return p
	}
	p.handle, p.batch = pq, batch
	return p
}

// close releases the prepared handle, if any.
func (c preparedProp) close() {
	if c.handle != nil {
		c.handle.Close()
	}
}

// evalObject runs the object engine over planned instances, fanning them
// out across the worker pool. The ASL evaluator caches constants and tracks
// call depth, so each worker interprets with its own Evaluator; the object
// graph itself is read-only during evaluation. Cancellation is observed
// between instances: a canceled evaluation returns ctx's error, never a
// partial result.
func (a *Analyzer) evalObject(ctx context.Context, items []instCtx) ([]Instance, error) {
	workers := a.Workers()
	evs := make([]*eval.Evaluator, min(workers, max(len(items), 1)))
	instances := make([]Instance, len(items))
	runPool(workers, len(items), func(worker, i int) {
		if ctx.Err() != nil {
			return
		}
		ev := evs[worker]
		if ev == nil {
			ev = eval.New(a.world)
			evs[worker] = ev
		}
		instances[i] = evalInstance(ev, items[i])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return instances, nil
}

// evalInstance evaluates one property instance with the object interpreter.
func evalInstance(ev *eval.Evaluator, it instCtx) Instance {
	in := Instance{Property: it.prop, Context: it.label}
	res, err := ev.EvalProperty(it.prop, it.args...)
	if err != nil {
		in.Diagnostic = err.Error()
	} else {
		in.Holds = res.Holds
		in.Confidence = res.Confidence
		in.Severity = res.Severity
	}
	return in
}

// QueryExec is the query interface shared by the embedded engine and godbc
// connections.
type QueryExec = sqlgen.QueryExecutor

// AnalyzeSQL evaluates all properties for the run by executing the compiled
// SQL queries against a database that holds the dataset (see sqlgen.Load).
// This is the paper's preferred configuration: conditions and severity
// expressions run entirely inside the database.
//
// The executor must prepare statements (sqlgen.QueryPreparer; every godbc
// executor does): each property's query is prepared once and executed with
// only the parameters changing — the PreparedStatement usage of the measured
// JDBC deployments — and every execution is one call of the handle's
// ExecQueryBatchContext. An executor that cannot prepare is refused before any
// work is done.
//
// With batching on (BatchSize > 1, the default) a property is evaluated by its
// set form: one statement whose contexts are a relation, executed once per
// analysis as a batch of one binding, and answering with one row per context
// (see batch.go). A property whose set statement fails, or does not answer for
// exactly its planned contexts, is evaluated per context instead — the same
// statement restricted to one context — in batches of up to BatchSize
// bindings; WithBatchSize(1) evaluates every property so, one binding per
// batch. Reports are byte-identical across all execution modes, diagnostics
// included.
//
// Queries are issued from the worker pool when q is safe for concurrent use
// (godbc.Pool keeps one connection per in-flight query; godbc.Embedded
// queries the in-process engine, whose readers run concurrently). With a
// plain godbc.Conn the evaluation stays serial on the one socket.
func (a *Analyzer) AnalyzeSQL(run *model.TestRun, q QueryExec) (*Report, error) {
	return a.AnalyzeSQLCtx(context.Background(), run, q)
}

// AnalyzeSQLCtx is AnalyzeSQL observing a context. Cancellation propagates
// into every layer of the batch call — pool checkout, the wire round trip,
// per-binding batch progress, profiled vendor delays — and is additionally
// checked between work units here. A canceled analysis returns the context's
// error, never a partial report.
func (a *Analyzer) AnalyzeSQLCtx(ctx context.Context, run *model.TestRun, q QueryExec) (*Report, error) {
	preparer, err := queryPreparer(q)
	if err != nil {
		return nil, err
	}
	pl, err := a.planFor(run)
	if err != nil {
		return nil, err
	}
	instances, err := a.evalSQL(ctx, pl, preparer, a.queryWorkers(q))
	if err != nil {
		return nil, err
	}
	return a.finish("sql", run.NoPe, instances), nil
}

// evalSQL evaluates every instance of the plan in the database, instance i
// into slot i: the SQL engines' one evaluation, which the exhaustive analysis
// reports in full and the guided search reads the visited instances of. A
// property that does not compile, a lost shard and cancellation are errors;
// every other failure is the diagnostic of the instances it hits.
func (a *Analyzer) evalSQL(ctx context.Context, pl *runPlan, preparer sqlgen.QueryPreparer, workers int) ([]Instance, error) {
	compiled := a.compiledProps()
	for i := range compiled {
		if err := compiled[i].err; err != nil {
			return nil, err
		}
	}
	props := make([]preparedProp, 0, len(compiled))
	defer func() {
		for _, c := range props {
			c.close()
		}
	}()
	// One work unit per set-form property, the per-context chunks of the rest.
	units := make([]chunk, 0, len(compiled))
	for i := range compiled {
		c, p := &compiled[i], &pl.props[i]
		if a.BatchSize() > 1 && p.n > 0 {
			props = append(props, c.prepare(preparer, c.whole.sql))
			units = append(units, chunk{prop: i, start: p.start, n: p.n, set: true})
			continue
		}
		props = append(props, c.prepare(preparer, c.restricted.sql))
		units = append(units, p.chunks...)
	}
	instances := make([]Instance, len(pl.ctxs))
	fail := &analysisAbort{}
	// The analysis's statements share the decorrelated builds their
	// byte-identical subqueries make, where the engine runs in process.
	bctx, closeBuilds := sqldb.ShareBuilds(ctx)
	runPool(workers, len(units), func(_, ui int) {
		u := units[ui]
		end, p := u.start+u.n, &pl.props[u.prop]
		ctxs, out := pl.ctxs[u.start:end], instances[u.start:end]
		if !u.set {
			a.evalSQLCtxs(bctx, props[u.prop], p, ctxs, out, fail)
			return
		}
		if a.evalSQLSet(bctx, props[u.prop], p, ctxs, out, fail) {
			return
		}
		// The set statement did not prepare, failed or came back malformed:
		// the restricted statement, per context, says which contexts are to
		// blame.
		a.setFallbacks.Add(1)
		a.lastFallback.Store(&p.name)
		c := &compiled[u.prop]
		per := c.prepare(preparer, c.restricted.sql)
		defer per.close()
		a.evalSQLCtxs(bctx, per, p, ctxs, out, fail)
	})
	closeBuilds()
	// A lost shard aborts the analysis: a report missing one shard's answers
	// is not a smaller report, it is a wrong one. Cancellation aborts the
	// same way (fatalExecErr matches context errors); prefer reporting the
	// context's own error so callers can errors.Is against it.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := fail.Err(); err != nil {
		return nil, err
	}
	return instances, nil
}

// queryPreparer returns the one capability the SQL engines ask of an
// executor: preparing statements.
func queryPreparer(q QueryExec) (sqlgen.QueryPreparer, error) {
	p, ok := q.(sqlgen.QueryPreparer)
	if !ok {
		return nil, fmt.Errorf("core: executor %T cannot prepare statements", q)
	}
	return p, nil
}

// interpretRow folds the answer of a restricted statement into an Outcome:
// exactly one row, the bound context's, whose columns after ctx fold as a
// set-form row does.
func interpretRow(cp *sqlgen.CompiledProperty, id int64, set *sqldb.ResultSet) Outcome {
	if len(set.Rows) != 1 {
		return Outcome{Diagnostic: fmt.Sprintf("compiled query returned %d rows", len(set.Rows))}
	}
	row := set.Rows[0]
	if len(row) == 0 || !row[0].IsInt() || row[0].Int() != id {
		return Outcome{Diagnostic: "compiled query answered for another context"}
	}
	return foldRow(cp, row[1:])
}

// rowWidth is the number of condition, confidence and severity columns of a
// property's result row.
func rowWidth(cp *sqlgen.CompiledProperty) int {
	return len(cp.CondLabels) + len(cp.ConfGuards) + len(cp.SevGuards)
}

// foldRow folds one context's condition, confidence and severity columns into
// an Outcome, applying the condition/guard semantics of the ASL evaluator. It
// is the one row-folding function of the per-context and the set path, which
// both hand it a row without its leading ctx column, and allocates nothing.
func foldRow(cp *sqlgen.CompiledProperty, row sqldb.Row) Outcome {
	var out Outcome
	nc := len(cp.CondLabels)
	nf := len(cp.ConfGuards)
	if len(row) != rowWidth(cp) {
		out.Diagnostic = "compiled query returned wrong column count"
		return out
	}
	for _, v := range row[:nc] {
		if v.IsNull() {
			out.Diagnostic = "condition not evaluable (NULL)"
			return out
		}
		if !v.IsBool() {
			out.Diagnostic = "condition column is not boolean"
			return out
		}
		if v.Bool() {
			out.Holds = true
		}
	}
	if !out.Holds {
		return out
	}
	// A guarded entry counts when a condition of that label is true; a
	// property has a handful of conditions, so scanning beats a set of labels.
	guardHolds := func(g string) bool {
		for i, label := range cp.CondLabels {
			if label == g && row[i].Bool() {
				return true
			}
		}
		return false
	}
	fold := func(guards []string, base int) (float64, string) {
		best := 0.0
		for i, g := range guards {
			if g != "" && !guardHolds(g) {
				continue
			}
			v := row[base+i]
			if v.IsNull() {
				return 0, "guarded expression not evaluable (NULL)"
			}
			if !v.IsNumeric() {
				return 0, "guarded expression is not numeric"
			}
			if f := v.Float(); f > best {
				best = f
			}
		}
		return best, ""
	}
	var diag string
	if out.Confidence, diag = fold(cp.ConfGuards, nc); diag != "" {
		return Outcome{Diagnostic: diag}
	}
	if out.Severity, diag = fold(cp.SevGuards, nc+nf); diag != "" {
		return Outcome{Diagnostic: diag}
	}
	return out
}

// AnalyzeClientSide fetches the entire dataset out of the database first and
// then evaluates the properties with the object interpreter — the slow
// configuration of the paper's Section 5 ("first accessing the data
// components and evaluating the expressions in the analysis tool").
func (a *Analyzer) AnalyzeClientSide(run *model.TestRun, q QueryExec) (*Report, error) {
	return a.AnalyzeClientSideCtx(context.Background(), run, q)
}
