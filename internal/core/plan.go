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
// instances with their labels and parameter sets, the positional fill of a
// positional-marker dialect, and the batch layout. The Analyzer builds it
// once per run and every later analysis of the run — the tuning cycle's
// repeats, every tenant of the resident service — reads it.
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
	bindErr  error
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

// bind fills, when the dialect renders positional markers, each execution's
// positional slice from its named bindings in marker order — the one write a
// parameter set ever sees, made once, before any SQL analysis reads the set.
// contexts vouched for every property's signature, so each binding names
// exactly the parameters its statement's markers do, and a fill cannot fail;
// if one did, it would be the analysis's error.
func (pl *runPlan) bind(compiled []compiledProp) error {
	pl.bindOnce.Do(func() {
		for i, p := range pl.props {
			c := &compiled[i]
			if pl.bindErr = c.fill(pl.bindings[p.start : p.start+p.n]); pl.bindErr != nil {
				return
			}
			if pl.bindErr = c.set.fill(p.setBinding); pl.bindErr != nil {
				return
			}
		}
	})
	return pl.bindErr
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
	// runParam names the property's TestRun parameter (its second, as
	// contexts vouched), the routing key of sharded executors: every
	// execution goes to the shard owning the run bound under this name.
	runParam string
	// err says why the property has no query.
	err error
	// set is the property's set form: one statement answering for every
	// context of a run, see sqlgen.CompilePropertySet.
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
// and the set form, over the containment path of its context class. Either
// failing to compile or render is the property's error.
func (a *Analyzer) compileProp(prop string) compiledProp {
	cp, err := sqlgen.CompileProperty(a.world, prop)
	if err != nil {
		return compiledProp{err: fmt.Errorf("core: compiling %s: %w", prop, err)}
	}
	c := a.renderProp(cp)
	if c.err != nil {
		return c
	}
	// contexts vouched for a Region or FunctionCall context, and each has a
	// containment path.
	path := contextPaths[cp.Params[0].Type.(*sem.Class).Name]
	scp, err := sqlgen.CompilePropertySet(a.world, prop, path)
	if err != nil {
		return compiledProp{err: fmt.Errorf("core: compiling the set form of %s: %w", prop, err)}
	}
	set := a.renderProp(scp)
	if set.err != nil {
		return set
	}
	c.set = &set
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
	runParam := a.world.Props[cp.Name].Params[1].Name
	return compiledProp{sql: sql, cp: cp, runParam: runParam, paramOrder: paramOrder}
}

// fill fills the positional slices of one statement's executions (see
// runPlan.bind); a named-marker dialect has nothing to fill.
func (c *compiledProp) fill(bindings []*sqldb.Params) error {
	if c.paramOrder == nil {
		return nil
	}
	for _, params := range bindings {
		if err := sqlgen.FillPositional(params, c.paramOrder); err != nil {
			return err
		}
	}
	return nil
}
