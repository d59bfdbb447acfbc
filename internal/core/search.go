package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/asl/eval"
	"repro/internal/asl/sem"
	"repro/internal/model"
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
	// Evaluated counts the property instances the search visited. The object
	// engine evaluates only those; on the SQL engines the database answers
	// each property with one statement for all its contexts, and the search
	// reads the visited instances from its results.
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
// and call-scoped refinements at the call sites inside that subtree. The
// object engine evaluates only the instances the search visits.
func (a *Analyzer) AnalyzeGuided(run *model.TestRun, h Hierarchy) (*Report, *SearchStats, error) {
	pl, err := a.guidedPlan(run, h)
	if err != nil {
		return nil, nil, err
	}
	ev := eval.New(a.world)
	found, stats := a.search(pl, h, func(k int) Instance { return evalInstance(ev, pl.ctxs[k]) })
	return a.finish("guided", run.NoPe, found), stats, nil
}

// AnalyzeGuidedSQL runs the same refinement-driven search over the compiled
// SQL queries executed inside the database. The database answers every
// property with one set statement for all its contexts, exactly as AnalyzeSQL
// evaluates it, and the search reads the instances it visits from those
// results. Like AnalyzeSQL, it refuses an executor that cannot prepare statements and
// fails on a property that does not compile.
func (a *Analyzer) AnalyzeGuidedSQL(run *model.TestRun, h Hierarchy, q QueryExec) (*Report, *SearchStats, error) {
	preparer, err := queryPreparer(q)
	if err != nil {
		return nil, nil, err
	}
	pl, err := a.guidedPlan(run, h)
	if err != nil {
		return nil, nil, err
	}
	instances, err := a.evalSQL(context.Background(), pl, preparer, a.queryWorkers(q))
	if err != nil {
		return nil, nil, err
	}
	found, stats := a.search(pl, h, func(k int) Instance { return instances[k] })
	return a.finish("guided-sql", run.NoPe, found), stats, nil
}

// guidedPlan validates the hierarchy and returns the run's plan.
func (a *Analyzer) guidedPlan(run *model.TestRun, h Hierarchy) (*runPlan, error) {
	if err := h.Validate(a.world.Props); err != nil {
		return nil, err
	}
	return a.planFor(run)
}

// search is the engine-agnostic refinement search over a plan. It visits
// plan indexes — each instance at most once — and evaluates a visited
// instance k with at(k), in visit order.
func (a *Analyzer) search(pl *runPlan, h Hierarchy, at func(k int) Instance) ([]Instance, *SearchStats) {
	found := make([]Instance, 0, len(pl.ctxs))
	visited := make([]bool, len(pl.ctxs))

	// The work list pairs a property, by its index in a.props, with the
	// region index range [lo, hi) that scopes it; a search root's range,
	// lo = -1, takes every context.
	type item struct{ prop, lo, hi int }
	var queue []item
	for _, root := range h.Roots(a.props) {
		queue = append(queue, item{prop: slices.Index(a.props, root), lo: -1, hi: math.MaxInt})
	}
	children := make([][]int, len(a.props))
	for pi, name := range a.props {
		for _, child := range h.Children(name, a.props) {
			children[pi] = append(children[pi], slices.Index(a.props, child))
		}
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		p := pl.props[it.prop]
		for k := p.start; k < p.start+p.n; k++ {
			ctx := &pl.ctxs[k]
			if visited[k] || ctx.reg < it.lo || ctx.reg >= it.hi {
				continue
			}
			visited[k] = true
			in := at(k)
			found = append(found, in)
			if in.Holds && in.Severity > a.threshold {
				for _, child := range children[it.prop] {
					queue = append(queue, item{prop: child, lo: ctx.reg, hi: ctx.regEnd})
				}
			}
		}
	}
	return found, &SearchStats{Evaluated: len(found), Exhaustive: len(pl.ctxs)}
}

// SortedBySeverity returns instances ordered as reports order them; used by
// tests comparing guided and exhaustive results.
func SortedBySeverity(in []Instance) []Instance {
	out := append([]Instance(nil), in...)
	slices.SortStableFunc(out, bySeverity)
	return out
}
