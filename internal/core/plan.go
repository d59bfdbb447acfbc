package core

import (
	"fmt"

	"repro/internal/asl/sem"
	"repro/internal/asl/sqlgen"
	"repro/internal/model"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// The evaluation plan. Everything an analysis derives from (graph, options,
// run) alone is the same on every analysis of that run: the enumerated
// instances with their labels, each property's set binding (the run and the
// ranking basis) and context index, and the per-context batch layout. The
// Analyzer builds it once per run and every later analysis of the run — the
// tuning cycle's repeats, every tenant of the resident service — reads it.
// What depends on (graph, options) only — each property's one compiled
// statement, the set form, rendered whole and restricted to one context, with
// the constant overrides inlined as the literals the analyzer's world
// declares — is built once per Analyzer (compiledProps).
// Options are only applied in New and the graph is immutable, so neither ever
// goes stale; what a plan retains is bounded by the runs of the one graph the
// Analyzer holds. A plan is read-only once published: the set bindings in
// particular are shared by concurrent analyses and handed to executors as
// they are.
//
// Per analysis there remain the prepared handles (they belong to the
// executor), the bindings of whatever runs per context (compiledProp.bind),
// the []Instance and the report.

// runPlan is the evaluation plan of one run.
type runPlan struct {
	// props follows the analyzer's property order.
	props []planProp
	// ctxs lists every property instance in the canonical (property order ×
	// context order) sequence — the merge order of the parallel pipeline:
	// instance i is written to slot i of the result, so the output is
	// identical for any worker count.
	ctxs []instCtx
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
			p.index[c.id()] = k
		}
		pl.props[i] = p
		pl.ctxs = append(pl.ctxs, ctxs...)
	}
	return pl, nil
}

// compiledProp is one property's compiled statement, the set form, and its
// two renderings in the analyzer's dialect. It depends on nothing but the
// graph and the options, so the Analyzer makes one per property and every
// plan and analysis shares it.
type compiledProp struct {
	cp *sqlgen.CompiledProperty
	// whole answers for every context of a run; restricted is the same
	// statement narrowed to the context bound under cp.Context
	// (sqlgen.CompiledProperty.Restrict), what runs per context.
	whole, restricted stmt
	// runParam names the property's TestRun parameter (its second, as
	// contexts vouched), the routing key of sharded executors: every
	// execution goes to the shard owning the run bound under this name.
	runParam string
	// err says why the property has no statement.
	err error
}

// stmt is one rendering of a compiled statement.
type stmt struct {
	sql string
	// paramOrder is the rendered marker order of a positional-marker dialect;
	// nil for named-marker dialects (kojakdb, oracle7).
	paramOrder []string
}

// compiledProps returns the compiled statements in the analyzer's property
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

// compileProp compiles a property's set form over the containment path of its
// context class and renders it whole and restricted. Failing to compile or
// render is the property's error.
func (a *Analyzer) compileProp(prop string) compiledProp {
	// contexts vouched for a Region or FunctionCall context, and each has a
	// containment path.
	sig := a.world.Props[prop].Params
	cp, err := sqlgen.CompilePropertySet(a.world, prop, contextPaths[sig[0].Type.(*sem.Class).Name])
	if err != nil {
		return compiledProp{err: fmt.Errorf("core: compiling the set form of %s: %w", prop, err)}
	}
	c := compiledProp{cp: cp, runParam: sig[1].Name}
	rcp, err := cp.Restrict()
	if err != nil {
		return compiledProp{err: fmt.Errorf("core: compiling %s: %w", prop, err)}
	}
	if c.whole, c.err = a.render(cp); c.err == nil {
		c.restricted, c.err = a.render(rcp)
	}
	return c
}

// render spells a compiled statement in the analyzer's dialect.
func (a *Analyzer) render(cp *sqlgen.CompiledProperty) (stmt, error) {
	// The canonical dialect's rendering is cp.SQL itself — reuse it so the
	// default path pays no render and keeps the exact plan-cache text.
	if a.dialect == "" || a.dialect == build.Kojakdb.Name {
		return stmt{sql: cp.SQL}, nil
	}
	r, err := cp.Render(a.dialect)
	if err != nil {
		return stmt{}, fmt.Errorf("core: rendering %s: %w", cp.Name, err)
	}
	return stmt{sql: r.SQL, paramOrder: r.ParamOrder}, nil
}
