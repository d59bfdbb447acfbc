package core

import (
	"fmt"
	"sync"

	"repro/internal/asl/object"
	"repro/internal/asl/sem"
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
// What depends on (graph, options) only — each property's compiled and
// rendered queries, per-context and set form, with the constant overrides
// inlined as the literals the analyzer's world declares — is built once per
// Analyzer (compiledProps).
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
	// The SQL engines' half, made by the run's first SQL analysis (bind); the
	// object engine neither waits for it nor reads a parameter set.
	bindOnce sync.Once
	// bindErrs[i], when set, is why property i's contexts cannot be bound to
	// its query; it diagnoses every one of them without a query being issued.
	// setErrs[i] is the same verdict on the one binding of its set form; a
	// property it is set for is evaluated per context.
	bindErrs []error
	setErrs  []error
}

// planProp delimits one property's instances in runPlan.ctxs and holds its
// per-context batch layout and what its set-form statement needs.
type planProp struct {
	name     string
	start, n int
	// chunks is the per-context batch layout: up to BatchSize consecutive
	// instances per chunk, in instance order.
	chunks []chunk
	// setBinding is the set form's batch of one: the run and the ranking basis
	// under their parameter names — every parameter but the context.
	setBinding []*sqldb.Params
	// index maps a context's object id, the ctx column of a set-form row, to
	// its offset among the property's instances.
	index map[int64]int
}

// planFor returns the run's plan, building it on first use. Failures — a run
// outside the dataset, a property the enumeration cannot place — are not
// kept. Every engine starts here, so this is also where an unknown constant
// override refuses the analysis.
func (a *Analyzer) planFor(run *model.TestRun) (*runPlan, error) {
	if a.constErr != nil {
		return nil, a.constErr
	}
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
	size := a.BatchSize()
	for i, name := range a.props {
		ctxs, err := a.contexts(sc, name)
		if err != nil {
			return nil, err
		}
		p := planProp{name: name, start: len(pl.ctxs), n: len(ctxs)}
		for off := 0; off < p.n; off += size {
			p.chunks = append(p.chunks, chunk{prop: i, start: p.start + off, n: min(size, p.n-off)})
		}
		// contexts vouched for the (context, run, basis) parameter shape.
		sig := a.world.Props[name].Params
		p.setBinding = []*sqldb.Params{{Named: map[string]sqldb.Value{
			sig[1].Name: sqldb.NewInt(sc.run.ID),
			sig[2].Name: sqldb.NewInt(sc.basis.ID),
		}}}
		p.index = make(map[int64]int, len(ctxs))
		for k, c := range ctxs {
			p.index[c.args[0].(*object.Object).ID] = k
		}
		pl.props[i] = p
		pl.ctxs = append(pl.ctxs, ctxs...)
	}
	pl.bindings = make([]*sqldb.Params, len(pl.ctxs))
	for i := range pl.ctxs {
		pl.bindings[i] = pl.ctxs[i].params
	}
	return pl, nil
}

// bind validates every context's bindings against its property's compiled
// parameter list and, when the dialect renders positional markers, fills each
// context's positional slice from its named bindings in marker order — the
// one write a parameter set ever sees, made once, before any SQL analysis
// reads the set. A mismatch is systematic (every context of a property binds
// the same parameter shape), so the first failure stands for the whole
// property. The set form's one binding per property gets the same treatment.
// It returns the verdicts per property: per-context, set form.
func (pl *runPlan) bind(compiled []compiledProp) (bindErrs, setErrs []error) {
	pl.bindOnce.Do(func() {
		pl.bindErrs = make([]error, len(pl.props))
		pl.setErrs = make([]error, len(pl.props))
		for i, p := range pl.props {
			c := &compiled[i]
			if c.err != nil {
				continue
			}
			pl.bindErrs[i] = c.bind(pl.bindings[p.start : p.start+p.n])
			if c.set != nil {
				pl.setErrs[i] = c.set.bind(p.setBinding)
			}
		}
	})
	return pl.bindErrs, pl.setErrs
}

// compiledProp is one property's compiled query: the SQL text (rendered in
// the analyzer's dialect) and the compiler's column layout. It depends on
// nothing but the graph and the options, so the Analyzer makes one per
// property and every plan and analysis shares it.
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
	// set is the property's set form — one statement answering for every
	// context of a run, see sqlgen.CompilePropertySet — or nil when the
	// property has none (a context class without a declared containment
	// path); such a property is evaluated per context.
	set *compiledProp
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

// compileProp compiles a property for the SQL engines: the per-context query
// and, where its context class has a containment path, the set form.
func (a *Analyzer) compileProp(prop string) compiledProp {
	cp, err := sqlgen.CompileProperty(a.world, prop)
	if err != nil {
		return compiledProp{err: fmt.Errorf("core: compiling %s: %w", prop, err)}
	}
	c := a.renderProp(cp)
	if c.err != nil || len(cp.Params) == 0 {
		return c
	}
	if cls, ok := cp.Params[0].Type.(*sem.Class); ok {
		if path, ok := contextPaths[cls.Name]; ok {
			if scp, err := sqlgen.CompilePropertySet(a.world, prop, path); err == nil {
				if set := a.renderProp(scp); set.err == nil {
					c.set = &set
				}
			}
		}
	}
	return c
}

// renderProp spells a compiled statement in the analyzer's dialect.
func (a *Analyzer) renderProp(cp *sqlgen.CompiledProperty) compiledProp {
	// The canonical dialect's rendering is cp.SQL itself — reuse it so the
	// default path pays no render and keeps the exact plan-cache text.
	sql := cp.SQL
	var paramOrder []string
	if a.dialect != "" && a.dialect != build.Kojakdb.Name {
		r, err := cp.Render(a.dialect)
		if err != nil {
			return compiledProp{err: fmt.Errorf("core: rendering %s: %w", cp.Name, err)}
		}
		sql = r.SQL
		paramOrder = r.ParamOrder
	}
	return compiledProp{sql: sql, cp: cp, runParam: a.runParam(cp.Name), paramOrder: paramOrder}
}

// bind checks and fills the parameter sets of one statement's executions (see
// runPlan.bind).
func (c *compiledProp) bind(bindings []*sqldb.Params) error {
	for _, params := range bindings {
		if err := c.cp.CheckBinding(params); err != nil {
			return err
		}
		if c.paramOrder != nil {
			if err := sqlgen.FillPositional(params, c.paramOrder); err != nil {
				return err
			}
		}
	}
	return nil
}
