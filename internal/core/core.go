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
	"strconv"
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

// Render formats the report as a text table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "COSY analysis: program %s, %d PEs (engine: %s)\n", r.Program, r.NoPe, r.Engine)
	fmt.Fprintf(&b, "severity threshold: %.3f\n", r.Threshold)
	if len(r.Instances) == 0 {
		b.WriteString("no performance properties hold; nothing to tune\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-28s %-34s %10s %6s %s\n", "PROPERTY", "CONTEXT", "SEVERITY", "CONF", "PROBLEM")
	for _, in := range r.Instances {
		mark := ""
		if in.Severity > r.Threshold {
			mark = "yes"
		}
		fmt.Fprintf(&b, "%-28s %-34s %10.4f %6.2f %s\n", in.Property, in.Context, in.Severity, in.Confidence, mark)
	}
	if bn := r.Bottleneck(); bn != nil {
		fmt.Fprintf(&b, "bottleneck: %s at %s (severity %.4f)\n", bn.Property, bn.Context, bn.Severity)
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintf(&b, "diagnostic: %s %s: %s\n", d.Property, d.Context, d.Diagnostic)
	}
	return b.String()
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithThreshold sets the performance-problem severity threshold.
func WithThreshold(t float64) Option { return func(a *Analyzer) { a.threshold = t } }

// WithProperties restricts and orders the evaluated properties.
func WithProperties(names ...string) Option {
	return func(a *Analyzer) { a.props = append([]string(nil), names...) }
}

// WithCallFilter restricts a FunctionCall-context property to call sites of
// the named callee ("" removes the restriction). By default LoadImbalance is
// restricted to the barrier routine, as the paper prescribes.
func WithCallFilter(property, callee string) Option {
	return func(a *Analyzer) { a.callFilter[property] = callee }
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
// Property instances are evaluated on a bounded worker pool (see WithWorkers
// and parallel.go); results are merged deterministically, so reports do not
// depend on the worker count.
type Analyzer struct {
	world      *sem.World
	graph      *model.Graph
	threshold  float64
	props      []string
	callFilter map[string]string
	consts     map[string]float64
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
		world:      g.World,
		graph:      g,
		threshold:  DefaultThreshold,
		props:      append([]string(nil), model.AllProperties...),
		callFilter: map[string]string{"LoadImbalance": model.BarrierFunction},
		consts:     make(map[string]float64),
		plans:      make(map[*model.TestRun]*runPlan),
	}
	for _, o := range opts {
		o(a)
	}
	for _, name := range slices.Sorted(maps.Keys(a.consts)) {
		if _, ok := a.world.ConstDecls[name]; !ok {
			a.constErr = fmt.Errorf("core: unknown constant %s", name)
			break
		}
	}
	return a
}

// Threshold returns the configured problem threshold.
func (a *Analyzer) Threshold() float64 { return a.threshold }

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
	// params carries the argument object ids for the SQL engine, keyed by
	// parameter name.
	params *sqldb.Params
}

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
	return sc, nil
}

// versionRuns and contextPaths declare, once, how the canonical data model
// contains an analysis's contexts: a program version owns its test runs and,
// through its functions, the regions and the call sites. scopeFromStore walks
// these attributes over fetched objects; the set form of a property query
// joins the same path's junction tables into its context relation
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

// elems returns the objects of a set attribute, in set order.
func elems(o *object.Object, attr string) []*object.Object {
	set, _ := o.Get(attr).(*object.Set)
	if set == nil {
		return nil
	}
	var out []*object.Object
	for _, e := range set.Elems {
		if eo, ok := e.(*object.Object); ok {
			out = append(out, eo)
		}
	}
	return out
}

// reach returns the objects a path of set attributes leads to from root, in
// depth-first set order.
func reach(root *object.Object, steps []string) []*object.Object {
	if len(steps) == 0 {
		return []*object.Object{root}
	}
	var out []*object.Object
	for _, o := range elems(root, steps[0]) {
		out = append(out, reach(o, steps[1:])...)
	}
	return out
}

// scopeFromStore rebuilds the scope inside a store fetched back from the
// database: it locates the analyzer's program by name, the version by
// compilation timestamp, and the run by processor count, then walks the
// containment paths in order.
func (a *Analyzer) scopeFromStore(store *object.Store, version *model.Version, nope int) (*scope, error) {
	var prog *object.Object
	for _, p := range store.OfClass("Program") {
		if n, ok := p.Get("Name").(object.Str); ok && string(n) == a.graph.Dataset.Program {
			prog = p
			break
		}
	}
	if prog == nil {
		return nil, fmt.Errorf("core: program %s not in database", a.graph.Dataset.Program)
	}
	var verObj *object.Object
	for _, vo := range elems(prog, "Versions") {
		if c, ok := vo.Get("Compilation").(object.DateTime); ok && int64(c) == version.Compilation.Unix() {
			verObj = vo
			break
		}
	}
	if verObj == nil {
		return nil, fmt.Errorf("core: program version not in database")
	}
	sc := &scope{}
	for _, ro := range elems(verObj, versionRuns) {
		if n, ok := ro.Get("NoPe").(object.Int); ok && int(n) == nope {
			sc.run = ro
			break
		}
	}
	if sc.run == nil {
		return nil, fmt.Errorf("core: no test run with %d PEs", nope)
	}
	sc.regions = reach(verObj, contextPaths["Region"].Steps)
	sc.calls = reach(verObj, contextPaths["FunctionCall"].Steps)
	var err error
	if sc.basis, err = findBasis(sc.regions); err != nil {
		return nil, err
	}
	return sc, nil
}

// contexts enumerates the instances of a property over a scope: properties
// with a Region first parameter get one instance per region; properties
// with a FunctionCall first parameter one per (optionally filtered) call
// site. The test run and ranking basis fill the remaining parameters.
func (a *Analyzer) contexts(sc *scope, prop string) ([]instCtx, error) {
	decl := a.world.PropDecls[prop]
	if decl == nil {
		return nil, fmt.Errorf("core: unknown property %s", prop)
	}
	sig := a.world.Props[prop]
	if len(sig.Params) != 3 {
		return nil, fmt.Errorf("core: property %s: unsupported parameter count %d", prop, len(sig.Params))
	}
	firstClass, ok := sig.Params[0].Type.(*sem.Class)
	if !ok {
		return nil, fmt.Errorf("core: property %s: first parameter is not class typed", prop)
	}

	mk := func(label string, first *object.Object) instCtx {
		return instCtx{
			prop:  prop,
			label: label,
			args:  []object.Value{first, sc.run, sc.basis},
			params: &sqldb.Params{Named: map[string]sqldb.Value{
				sig.Params[0].Name: sqldb.NewInt(first.ID),
				sig.Params[1].Name: sqldb.NewInt(sc.run.ID),
				sig.Params[2].Name: sqldb.NewInt(sc.basis.ID),
			}},
		}
	}

	var out []instCtx
	switch firstClass.Name {
	case "Region":
		for _, r := range sc.regions {
			name, _ := r.Get("Name").(object.Str)
			out = append(out, mk("region "+string(name), r))
		}
	case "FunctionCall":
		filter := a.callFilter[prop]
		for _, c := range sc.calls {
			callee, _ := c.Get("Callee").(object.Str)
			if filter != "" && string(callee) != filter {
				continue
			}
			where := ""
			if reg, ok := c.Get("CallingReg").(*object.Object); ok {
				if n, ok := reg.Get("Name").(object.Str); ok {
					where = "@" + string(n)
				}
			}
			out = append(out, mk("call "+string(callee)+where, c))
		}
	default:
		return nil, fmt.Errorf("core: property %s: unsupported context class %s", prop, firstClass.Name)
	}
	return out, nil
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
	for _, in := range instances {
		switch {
		case in.Diagnostic != "":
			rep.Diagnostics = append(rep.Diagnostics, in)
		case in.Holds:
			rep.Instances = append(rep.Instances, in)
		default:
			rep.Skipped++
		}
	}
	slices.SortStableFunc(rep.Instances, bySeverity)
	return rep
}

// bySeverity orders instances as reports list them: decreasing severity,
// ties broken by property and context for determinism.
func bySeverity(a, b Instance) int {
	if a.Severity != b.Severity {
		// A NaN severity is neither above nor below anything: it ties with
		// every other, without falling through to the names.
		switch {
		case a.Severity > b.Severity:
			return -1
		case a.Severity < b.Severity:
			return 1
		}
		return 0
	}
	if c := strings.Compare(a.Property, b.Property); c != 0 {
		return c
	}
	return strings.Compare(a.Context, b.Context)
}

// AnalyzeObject evaluates all properties for the run using the ASL object
// interpreter over the in-memory graph.
func (a *Analyzer) AnalyzeObject(run *model.TestRun) (*Report, error) {
	return a.AnalyzeObjectCtx(context.Background(), run)
}

// objectEvaluator builds the object engine with the configured constant
// overrides applied.
func (a *Analyzer) objectEvaluator() *eval.Evaluator {
	ev := eval.New(a.world)
	for name, v := range a.consts {
		ev.SetConst(name, object.Float(v))
	}
	return ev
}

// preparedProp is a compiled property as one analysis executes it: the query
// and its prepared handle, shared by every context of the property, or why it
// has none.
type preparedProp struct {
	*compiledProp
	// err, when set, diagnoses every context of the property without a query
	// being issued: the plan's verdict on the run's bindings (runPlan.bind), a
	// prepare the executor refused, or a handle that cannot execute batches.
	err error
	// handle is the prepared statement, closed after the analysis; batch is
	// its context-observing batch execution, the one call every work unit
	// makes (see batch.go). Both are nil when err is set.
	handle sqlgen.PreparedQuery
	batch  sqlgen.ContextBatchPreparedQuery
}

// runParam returns the name of a property's TestRun-typed parameter, or ""
// when the property has none to route on.
func (a *Analyzer) runParam(prop string) string {
	sig := a.world.Props[prop]
	if sig == nil {
		return ""
	}
	for _, p := range sig.Params {
		if cls, ok := p.Type.(*sem.Class); ok && cls.Name == "TestRun" {
			return p.Name
		}
	}
	return ""
}

// prepare readies a compiled property for one analysis by preparing its
// query. Sharded executors (sqlgen.RoutedPreparer) are handed the property's
// run parameter so every execution routes to the shard owning its context's
// run. A refused prepare, or a handle without sqlgen.ContextBatchPreparedQuery,
// becomes the property's diagnostic like a binding mismatch: errors never
// abort a run.
func (c *compiledProp) prepare(preparer sqlgen.QueryPreparer, bindErr error) preparedProp {
	p := preparedProp{compiledProp: c, err: bindErr}
	if bindErr != nil {
		return p
	}
	var pq sqlgen.PreparedQuery
	if rp, ok := preparer.(sqlgen.RoutedPreparer); ok && c.runParam != "" {
		pq, p.err = rp.PrepareRoutedQuery(c.sql, c.runParam)
	} else {
		pq, p.err = preparer.PrepareQuery(c.sql)
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

// enumerate lists every property instance of a scope in the canonical
// sequence, afresh. Only scopes rebuilt from a fetched store come here: their
// objects are new on every fetch, so a plan keyed on them would never be
// found again and never released. Runs of the analyzer's own graph go
// through planFor.
func (a *Analyzer) enumerate(sc *scope) ([]instCtx, error) {
	var all []instCtx
	for _, prop := range a.props {
		ctxs, err := a.contexts(sc, prop)
		if err != nil {
			return nil, err
		}
		all = append(all, ctxs...)
	}
	return all, nil
}

// evalObject runs the object engine over enumerated instances, fanning them
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
			ev = a.objectEvaluator()
			evs[worker] = ev
		}
		it := items[i]
		in := Instance{Property: it.prop, Context: it.label}
		res, err := ev.EvalProperty(it.prop, it.args...)
		if err != nil {
			in.Diagnostic = err.Error()
		} else {
			in.Holds = res.Holds
			in.Confidence = res.Confidence
			in.Severity = res.Severity
		}
		instances[i] = in
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return instances, nil
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
// exactly its planned contexts, is evaluated per context instead, in batches
// of up to BatchSize bindings; WithBatchSize(1) evaluates every property so,
// one binding per batch. Reports are byte-identical across all execution
// modes, diagnostics included.
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
	compiled := a.compiledProps()
	bindErrs, setErrs := pl.bind(compiled)
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
		if c.err != nil {
			return nil, c.err
		}
		if a.BatchSize() > 1 && p.n > 0 && c.set != nil && setErrs[i] == nil {
			props = append(props, c.set.prepare(preparer, nil))
			units = append(units, chunk{prop: i, start: p.start, n: p.n, set: true})
			continue
		}
		props = append(props, c.prepare(preparer, bindErrs[i]))
		units = append(units, p.chunks...)
	}
	instances := make([]Instance, len(pl.ctxs))
	fail := &analysisAbort{}
	runPool(a.queryWorkers(q), len(units), func(_, ui int) {
		u := units[ui]
		end := u.start + u.n
		ctxs, bindings, out := pl.ctxs[u.start:end], pl.bindings[u.start:end], instances[u.start:end]
		if !u.set {
			a.evalSQLCtxs(ctx, props[u.prop], ctxs, bindings, out, fail)
			return
		}
		if a.evalSQLSet(ctx, props[u.prop], &pl.props[u.prop], ctxs, out, fail) {
			return
		}
		// The set statement did not prepare, failed or came back malformed:
		// the per-context path says which contexts are to blame.
		a.setFallbacks.Add(1)
		a.lastFallback.Store(&pl.props[u.prop].name)
		per := compiled[u.prop].prepare(preparer, bindErrs[u.prop])
		defer per.close()
		a.evalSQLCtxs(ctx, per, ctxs, bindings, out, fail)
	})
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
	return a.finish("sql", run.NoPe, instances), nil
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

// overrideConsts applies the constant overrides to a property's rendered SQL.
// The compiler inlines constants as their literal SQL spelling, so an
// override is a textual substitution of that spelling; number spellings are
// dialect-invariant, so the substitution works on any dialect's rendering.
// Only literal-valued constants (the canonical spec's thresholds) can be
// overridden on the SQL path.
//
// All overrides are applied in one pass over whole numeric tokens (see
// replaceNumbers), so an override neither touches a longer literal that
// merely contains the old spelling nor sees another override's new value.
func (a *Analyzer) overrideConsts(sql string) (string, error) {
	if len(a.consts) == 0 {
		return sql, nil
	}
	subst := make(map[string]string, len(a.consts)) // old spelling -> new spelling
	for _, name := range slices.Sorted(maps.Keys(a.consts)) {
		decl := a.world.ConstDecls[name] // New vetted the names (constErr)
		var old string
		switch lit := decl.Value.(type) {
		case *ast.FloatLit:
			old = strconv.FormatFloat(lit.Value, 'g', -1, 64)
		case *ast.IntLit:
			old = strconv.FormatInt(lit.Value, 10)
		default:
			return "", fmt.Errorf("core: constant %s is not a literal; cannot override it in the SQL engine", name)
		}
		repl := strconv.FormatFloat(a.consts[name], 'g', -1, 64)
		if prev, dup := subst[old]; dup && prev != repl {
			return "", fmt.Errorf("core: constant %s is spelled %s like another overridden constant; the SQL engine cannot override them apart", name, old)
		}
		subst[old] = repl
	}
	return replaceNumbers(sql, subst), nil
}

// replaceNumbers rewrites the numeric literals of sql that subst maps, in one
// left-to-right pass. A literal is a whole token: a maximal run of digits,
// letters, '_' and '.' (with an exponent's sign taken into a token that
// starts like a number), so "0.25" is never found inside "10.25", "d25" or
// "1e-25". Quoted strings and identifiers are copied through untouched, and
// substituted text is never rescanned.
func replaceNumbers(sql string, subst map[string]string) string {
	word := func(c byte) bool {
		return c == '_' || c == '.' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
	}
	var b strings.Builder
	for i := 0; i < len(sql); {
		j := i + 1
		switch c := sql[i]; {
		case c == '\'' || c == '"':
			for j < len(sql) && sql[j] != c {
				j++
			}
			j = min(j+1, len(sql))
		case word(c):
			number := c == '.' || '0' <= c && c <= '9'
			for j < len(sql) && word(sql[j]) {
				if number && (sql[j] == 'e' || sql[j] == 'E') && j+1 < len(sql) && (sql[j+1] == '+' || sql[j+1] == '-') {
					j++
				}
				j++
			}
			if repl, ok := subst[sql[i:j]]; ok {
				b.WriteString(repl)
				i = j
				continue
			}
		}
		b.WriteString(sql[i:j])
		i = j
	}
	return b.String()
}

// interpretRow folds the result of a per-context property query — a single
// row — into an Outcome.
func interpretRow(cp *sqlgen.CompiledProperty, set *sqldb.ResultSet) Outcome {
	if len(set.Rows) != 1 {
		return Outcome{Diagnostic: fmt.Sprintf("compiled query returned %d rows", len(set.Rows))}
	}
	return foldRow(cp, set.Rows[0])
}

// rowWidth is the number of condition, confidence and severity columns of a
// property's result row.
func rowWidth(cp *sqlgen.CompiledProperty) int {
	return len(cp.CondLabels) + len(cp.ConfGuards) + len(cp.SevGuards)
}

// foldRow folds one context's condition, confidence and severity columns into
// an Outcome, applying the condition/guard semantics of the ASL evaluator. It
// is the one row-folding function of the per-context and the set path (which
// hands it the row without its leading ctx column), and allocates nothing.
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

// versionOf returns the dataset version containing the run.
func (a *Analyzer) versionOf(run *model.TestRun) *model.Version {
	for _, v := range a.graph.Dataset.Versions {
		for _, r := range v.Runs {
			if r == run {
				return v
			}
		}
	}
	return nil
}
