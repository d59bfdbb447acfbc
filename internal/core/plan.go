package core

import (
	"fmt"
	"sync"

	"repro/internal/asl/sqlgen"
	"repro/internal/model"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// The evaluation plan. Everything an analysis derives from (graph, options,
// run) alone is the same on every analysis of that run: the enumerated
// instances with their labels and parameter sets, the binding check, the
// positional fill of a positional-marker dialect, and the batch layout. The
// Analyzer builds it once per run and every later analysis of the run — the
// tuning cycle's repeats, every tenant of the resident service — reads it.
// What depends on (graph, options) only — each property's compiled, rendered
// and const-overridden query — is built once per Analyzer (compiledProps).
// Options are only applied in New and the graph is immutable, so neither ever
// goes stale; what a plan retains is bounded by the runs of the one graph the
// Analyzer holds. A plan is read-only once published: the parameter sets in
// particular are shared by concurrent analyses and handed to executors as
// they are.
//
// Per analysis there remain the prepared handles (they belong to the
// executor), the []Instance and the report.

// runPlan is the evaluation plan of one run.
type runPlan struct {
	// props follows the analyzer's property order.
	props []planProp
	// ctxs lists every property instance in the canonical (property order ×
	// context order) sequence — the merge order of the parallel pipeline:
	// instance i is written to slot i of the result, so the output is
	// identical for any worker count. bindings[i] is ctxs[i].params, kept
	// flat so a chunk's bindings are a subslice.
	ctxs     []instCtx
	bindings []*sqldb.Params
	// chunks is the batch layout when every property's handle supports array
	// binding (see chunksFor).
	chunks []chunk

	// The SQL engines' half, made by the run's first SQL analysis (bind); the
	// object engine neither waits for it nor reads a parameter set.
	bindOnce sync.Once
	// bindErrs[i], when set, is why property i's contexts cannot be bound to
	// its query; it diagnoses every one of them without a query being issued.
	bindErrs []error
}

// planProp delimits one property's instances in runPlan.ctxs.
type planProp struct {
	name     string
	start, n int
}

// planFor returns the run's plan, building it on first use. Failures — a run
// outside the dataset, a property the enumeration cannot place — are not
// kept.
func (a *Analyzer) planFor(run *model.TestRun) (*runPlan, error) {
	a.planMu.Lock()
	defer a.planMu.Unlock()
	if pl, ok := a.plans[run]; ok {
		return pl, nil
	}
	sc, err := a.scopeFromGraph(run)
	if err != nil {
		return nil, err
	}
	pl, err := a.buildPlan(sc)
	if err != nil {
		return nil, err
	}
	a.plans[run] = pl
	return pl, nil
}

func (a *Analyzer) buildPlan(sc *scope) (*runPlan, error) {
	pl := &runPlan{props: make([]planProp, len(a.props))}
	for i, name := range a.props {
		ctxs, err := a.contexts(sc, name)
		if err != nil {
			return nil, err
		}
		pl.props[i] = planProp{name: name, start: len(pl.ctxs), n: len(ctxs)}
		pl.ctxs = append(pl.ctxs, ctxs...)
	}
	pl.bindings = make([]*sqldb.Params, len(pl.ctxs))
	for i := range pl.ctxs {
		pl.bindings[i] = pl.ctxs[i].params
	}
	size := a.BatchSize()
	for i, p := range pl.props {
		for off := 0; off < p.n; off += size {
			pl.chunks = append(pl.chunks, chunk{prop: i, start: p.start + off, n: min(size, p.n-off)})
		}
	}
	return pl, nil
}

// bind validates every context's bindings against its property's compiled
// parameter list and, when the dialect renders positional markers, fills each
// context's positional slice from its named bindings in marker order — the
// one write a parameter set ever sees, made once, before any SQL analysis
// reads the set. A mismatch is systematic (every context of a property binds
// the same parameter shape), so the first failure stands for the whole
// property. It returns the verdict per property.
func (pl *runPlan) bind(compiled []compiledProp) []error {
	pl.bindOnce.Do(func() {
		pl.bindErrs = make([]error, len(pl.props))
		for i, p := range pl.props {
			if compiled[i].err == nil {
				pl.bindErrs[i] = compiled[i].bind(pl.ctxs[p.start : p.start+p.n])
			}
		}
	})
	return pl.bindErrs
}

// compiledProp is one property's compiled query: the SQL text (rendered in
// the analyzer's dialect, with constant overrides applied) and the compiler's
// column layout. It depends on nothing but the graph and the options, so the
// Analyzer makes one per property and every plan and analysis shares it.
type compiledProp struct {
	sql string
	cp  *sqlgen.CompiledProperty
	// paramOrder is the rendered marker order of a positional-marker dialect;
	// nil for named-marker dialects (kojakdb, oracle7).
	paramOrder []string
	// runParam names the property's TestRun-typed parameter, the routing key
	// of sharded executors: every execution goes to the shard owning the run
	// bound under this name.
	runParam string
	// err says why the property has no query.
	err error
}

// compiledProps returns the compiled queries in the analyzer's property
// order, compiling them on the first SQL analysis.
func (a *Analyzer) compiledProps() []compiledProp {
	a.compileOnce.Do(func() {
		a.compiled = make([]compiledProp, len(a.props))
		for i, name := range a.props {
			a.compiled[i] = a.compileProp(name)
		}
	})
	return a.compiled
}

// compileProp compiles a property for the SQL engines.
func (a *Analyzer) compileProp(prop string) compiledProp {
	cp, err := sqlgen.CompileProperty(a.world, prop)
	if err != nil {
		return compiledProp{err: fmt.Errorf("core: compiling %s: %w", prop, err)}
	}
	// The canonical dialect's rendering is cp.SQL itself — reuse it so the
	// default path pays no render and keeps the exact plan-cache text.
	sql := cp.SQL
	var paramOrder []string
	if a.dialect != "" && a.dialect != build.Kojakdb.Name {
		r, err := cp.Render(a.dialect)
		if err != nil {
			return compiledProp{err: fmt.Errorf("core: rendering %s: %w", prop, err)}
		}
		sql = r.SQL
		paramOrder = r.ParamOrder
	}
	sql, err = a.overrideConsts(sql)
	if err != nil {
		return compiledProp{err: err}
	}
	return compiledProp{sql: sql, cp: cp, runParam: a.runParam(prop), paramOrder: paramOrder}
}

// bind checks and fills the parameter sets of one property's contexts (see
// runPlan.bind).
func (c *compiledProp) bind(ctxs []instCtx) error {
	for _, ictx := range ctxs {
		if err := c.cp.CheckBinding(ictx.params); err != nil {
			return err
		}
		if c.paramOrder != nil {
			if err := sqlgen.FillPositional(ictx.params, c.paramOrder); err != nil {
				return err
			}
		}
	}
	return nil
}
