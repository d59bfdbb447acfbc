package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/asl/eval"
	"repro/internal/asl/object"
	"repro/internal/asl/sem"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// Hierarchy is a property refinement tree: child property -> parent
// property. The paper introduces the idea with "The LoadImbalance property
// is a refinement of the SyncCost property", following the proof/refinement
// rule design of the OPAL tool it cites: a refinement hypothesis is only
// worth evaluating where its parent is already a proven problem.
type Hierarchy map[string]string

// DefaultHierarchy reflects the refinement structure of the canonical
// specification: everything explains a part of the sublinear speedup;
// measured cost splits into synchronization, communication, and I/O;
// imbalance and call granularity refine their respective parents.
func DefaultHierarchy() Hierarchy {
	return Hierarchy{
		"MeasuredCost":             "SublinearSpeedup",
		"UnmeasuredCost":           "SublinearSpeedup",
		"SyncCost":                 "MeasuredCost",
		"CommunicationCost":        "MeasuredCost",
		"IOCost":                   "MeasuredCost",
		"LoadImbalance":            "SyncCost",
		"FrequentFineGrainedCalls": "MeasuredCost",
	}
}

// Roots returns the properties without parents, restricted to the given
// evaluation set, in that set's order.
func (h Hierarchy) Roots(props []string) []string {
	var out []string
	for _, p := range props {
		if _, hasParent := h[p]; !hasParent {
			out = append(out, p)
		}
	}
	return out
}

// Children returns the direct refinements of a property, restricted to the
// given evaluation set, in that set's order.
func (h Hierarchy) Children(parent string, props []string) []string {
	var out []string
	for _, p := range props {
		if h[p] == parent {
			out = append(out, p)
		}
	}
	return out
}

// Validate rejects hierarchies with unknown properties or cycles.
func (h Hierarchy) Validate(known map[string]*sem.PropertySig) error {
	for child, parent := range h {
		if _, ok := known[child]; !ok {
			return fmt.Errorf("core: hierarchy refines unknown property %s", child)
		}
		if _, ok := known[parent]; !ok {
			return fmt.Errorf("core: hierarchy names unknown parent %s", parent)
		}
	}
	for start := range h {
		slow, fast := start, start
		for {
			fast = h[fast]
			if fast == "" {
				break
			}
			fast = h[fast]
			slow = h[slow]
			if fast == "" {
				break
			}
			if slow == fast {
				return fmt.Errorf("core: hierarchy cycle involving %s", start)
			}
		}
	}
	return nil
}

// SearchStats reports how much work the guided search did compared to
// exhaustive evaluation.
type SearchStats struct {
	// Evaluated counts property instances actually evaluated.
	Evaluated int
	// Exhaustive counts the instances a full evaluation would touch.
	Exhaustive int
}

// Savings is the fraction of instance evaluations avoided.
func (s SearchStats) Savings() float64 {
	if s.Exhaustive == 0 {
		return 0
	}
	return 1 - float64(s.Evaluated)/float64(s.Exhaustive)
}

// AnalyzeGuided performs the refinement-driven search of the OPAL design
// the paper builds on: root properties are evaluated for every context, and
// a refinement is evaluated only where its parent is a performance problem
// (severity above the threshold). Refinement descends both axes, property
// and program structure: when a property is proven at region r, its
// refinements are evaluated throughout r's region subtree (a parent
// region's cost is explained by overheads recorded in its descendants),
// and call-scoped refinements at the call sites inside that subtree.
func (a *Analyzer) AnalyzeGuided(run *model.TestRun, h Hierarchy) (*Report, *SearchStats, error) {
	ev := eval.New(a.world)
	evalGroup := func(_ *runPlan, _ int, ctxs []instCtx) []Instance {
		out := make([]Instance, len(ctxs))
		for i, ctx := range ctxs {
			out[i] = evalInstance(ev, ctx)
		}
		return out
	}
	return a.analyzeGuided(run, h, "guided", evalGroup)
}

// AnalyzeGuidedSQL runs the same refinement-driven search with the compiled
// SQL queries executed inside the database. The search revisits each
// property across many contexts as it descends the region tree, so each
// property's query is prepared once, on first use, and executed per context.
// The contexts a search step opens up are evaluated together, so each step
// costs one round trip per BatchSize contexts rather than one per context. A
// step evaluates a subset of a property's contexts, so the search stays on
// the per-context statements: the set form answers for all contexts or none.
// Like AnalyzeSQL, it refuses an executor that cannot prepare statements.
func (a *Analyzer) AnalyzeGuidedSQL(run *model.TestRun, h Hierarchy, q QueryExec) (*Report, *SearchStats, error) {
	preparer, err := queryPreparer(q)
	if err != nil {
		return nil, nil, err
	}
	prepared := make(map[int]preparedProp)
	defer func() {
		for _, c := range prepared {
			c.close()
		}
	}()
	fail := &analysisAbort{}
	evalGroup := func(pl *runPlan, prop int, ctxs []instCtx) []Instance {
		// Compiled after the plan: planFor refuses unknown constants first.
		compiled := a.compiledProps()
		out := make([]Instance, len(ctxs))
		// A property that does not compile produces its diagnostic once per
		// context; the others search on.
		if err := compiled[prop].err; err != nil {
			diagnose(ctxs, out, err)
			return out
		}
		c, ok := prepared[prop]
		if !ok {
			bindErrs, _ := pl.bind(compiled)
			c = compiled[prop].prepare(preparer, bindErrs[prop])
			prepared[prop] = c
		}
		bindings := make([]*sqldb.Params, len(ctxs))
		for i, ctx := range ctxs {
			bindings[i] = ctx.params
		}
		a.evalSQLCtxs(context.Background(), c, ctxs, bindings, out, fail)
		return out
	}
	rep, stats, err := a.analyzeGuided(run, h, "guided-sql", evalGroup)
	if err == nil {
		// A lost shard aborts the search; see AnalyzeSQL.
		if ferr := fail.Err(); ferr != nil {
			return nil, nil, ferr
		}
	}
	return rep, stats, err
}

// analyzeGuided is the engine-agnostic refinement search; evalGroup
// evaluates the instances one search step opened up — contexts of the plan's
// property prop — one Instance per context in context order (batched inside
// the SQL engine when supported).
func (a *Analyzer) analyzeGuided(run *model.TestRun, h Hierarchy, engine string, evalGroup func(pl *runPlan, prop int, ctxs []instCtx) []Instance) (*Report, *SearchStats, error) {
	if err := h.Validate(a.world.Props); err != nil {
		return nil, nil, err
	}
	pl, err := a.planFor(run)
	if err != nil {
		return nil, nil, err
	}

	stats := &SearchStats{Exhaustive: len(pl.ctxs)}

	var instances []Instance
	evaluated := make(map[string]bool)

	// The work list pairs a property with the region subtree that scopes it.
	type item struct {
		prop string
		root *object.Object // nil means "all regions" (search roots)
	}
	var queue []item
	for _, root := range h.Roots(a.props) {
		queue = append(queue, item{prop: root})
	}

	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		pi := slices.Index(a.props, it.prop)
		p := pl.props[pi]
		// Collect the contexts this step opens up, then evaluate them as one
		// group: the refinement decisions below depend only on each
		// instance's own outcome, so deferring them past the group changes
		// neither the visit set nor the visit order.
		var pending []instCtx
		for _, ctx := range pl.ctxs[p.start : p.start+p.n] {
			if it.root != nil && !ctxInSubtree(ctx, it.root) {
				continue
			}
			key := it.prop + "\x00" + ctx.label
			if evaluated[key] {
				continue
			}
			evaluated[key] = true
			pending = append(pending, ctx)
		}
		if len(pending) == 0 {
			continue
		}
		stats.Evaluated += len(pending)
		for i, in := range evalGroup(pl, pi, pending) {
			instances = append(instances, in)
			if in.Holds && in.Severity > a.threshold {
				for _, child := range h.Children(it.prop, a.props) {
					queue = append(queue, item{prop: child, root: pending[i].region})
				}
			}
		}
	}

	rep := a.finish(engine, run.NoPe, instances)
	return rep, stats, nil
}

// ctxInSubtree reports whether a context's region lies in the subtree
// rooted at the given region (following ParentRegion links).
func ctxInSubtree(ctx instCtx, root *object.Object) bool {
	for r := ctx.region; r != nil; {
		if r == root {
			return true
		}
		parent, ok := r.Get("ParentRegion").(*object.Object)
		if !ok {
			return false
		}
		r = parent
	}
	return false
}

// SortedBySeverity returns instances ordered as reports order them; used by
// tests comparing guided and exhaustive results.
func SortedBySeverity(in []Instance) []Instance {
	out := append([]Instance(nil), in...)
	slices.SortStableFunc(out, bySeverity)
	return out
}
