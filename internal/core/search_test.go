package core

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/object"
	"repro/internal/model"
)

func TestHierarchyValidation(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	a := New(g)
	run := lastRun(g)

	if _, _, err := a.AnalyzeGuided(run, Hierarchy{"Bogus": "SyncCost"}); err == nil {
		t.Fatal("unknown child accepted")
	}
	if _, _, err := a.AnalyzeGuided(run, Hierarchy{"SyncCost": "Bogus"}); err == nil {
		t.Fatal("unknown parent accepted")
	}
	if _, _, err := a.AnalyzeGuided(run, Hierarchy{"SyncCost": "MeasuredCost", "MeasuredCost": "SyncCost"}); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestHierarchyStructure(t *testing.T) {
	h := DefaultHierarchy()
	props := model.AllProperties
	roots := h.Roots(props)
	if len(roots) != 1 || roots[0] != "SublinearSpeedup" {
		t.Fatalf("roots: %v", roots)
	}
	kids := h.Children("MeasuredCost", props)
	if len(kids) != 4 {
		t.Fatalf("MeasuredCost children: %v", kids)
	}
	if got := h.Children("LoadImbalance", props); len(got) != 0 {
		t.Fatalf("leaf with children: %v", got)
	}
}

// sharedLabels is FineGrained with two more functions, each holding a loop
// named "loop": two regions, two contexts per property, one label. Both loops
// are root-level problems.
func sharedLabels() *apprentice.Workload {
	w := apprentice.FineGrained()
	w.Name = "sharedlabels"
	for i, name := range []string{"a", "b"} {
		w.Funcs = append(w.Funcs, &apprentice.FuncSpec{Name: name, Regions: []*apprentice.RegionSpec{{
			Name: name, Kind: model.KindSubprogram,
			Children: []*apprentice.RegionSpec{{
				Name: "loop", Kind: model.KindLoop,
				SerialWork: 0.2 + 0.1*float64(i), ParallelWork: 2.0, Imbalance: 0.3, SyncAfter: true,
			}},
		}}})
	}
	return w
}

// TestGuidedSearchMatchesExhaustiveOnProblems verifies the OPAL-style
// search finds every performance problem the exhaustive evaluation finds
// whose ancestors are problems too (that is the contract of refinement),
// while evaluating fewer instances. Instances are matched per (property,
// context label) key with their counts: distinct contexts may share a label.
func TestGuidedSearchMatchesExhaustiveOnProblems(t *testing.T) {
	workloads := apprentice.Library()
	workloads["sharedlabels"] = sharedLabels()
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			g := buildGraph(t, w)
			a := New(g)
			run := lastRun(g)

			full, err := a.AnalyzeObject(run)
			if err != nil {
				t.Fatal(err)
			}
			guided, stats, err := a.AnalyzeGuided(run, DefaultHierarchy())
			if err != nil {
				t.Fatal(err)
			}

			if stats.Evaluated > stats.Exhaustive {
				t.Fatalf("guided evaluated %d > exhaustive %d", stats.Evaluated, stats.Exhaustive)
			}
			// Everything the guided search reports must exist identically in
			// the full report, as often.
			key := func(in Instance) string { return in.Property + "/" + in.Context }
			fullByKey := map[string][]Instance{}
			for _, in := range full.Instances {
				fullByKey[key(in)] = append(fullByKey[key(in)], in)
			}
			for _, in := range guided.Instances {
				refs := fullByKey[key(in)]
				i := slices.IndexFunc(refs, func(ref Instance) bool { return closeEnough(ref.Severity, in.Severity) })
				if i < 0 {
					t.Fatalf("guided found %s %s (severity %g) absent from exhaustive report", in.Property, in.Context, in.Severity)
				}
				fullByKey[key(in)] = slices.Delete(refs, i, i+1)
			}
			// Root-level problems must never be missed.
			problems := func(rep *Report) map[string]int {
				n := map[string]int{}
				for _, in := range rep.Problems() {
					if in.Property == "SublinearSpeedup" {
						n[key(in)]++
					}
				}
				return n
			}
			if want, got := problems(full), problems(guided); !maps.Equal(want, got) {
				t.Fatalf("root problems: exhaustive %v, guided %v", want, got)
			}
		})
	}
}

func TestGuidedSearchSavesWork(t *testing.T) {
	// The Amdahl workload has no measured overhead to speak of, so once
	// MeasuredCost falls below the threshold everywhere, the entire
	// overhead-refinement subtree (SyncCost, CommunicationCost, IOCost,
	// LoadImbalance, FrequentFineGrainedCalls) is pruned.
	g := buildGraph(t, apprentice.Amdahl())
	a := New(g)
	_, stats, err := a.AnalyzeGuided(lastRun(g), DefaultHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Savings() <= 0.3 {
		t.Fatalf("guided search saved only %.1f%% (%d of %d)", stats.Savings()*100, stats.Exhaustive-stats.Evaluated, stats.Exhaustive)
	}
}

func TestGuidedFindsRefinement(t *testing.T) {
	// The paper's worked chain: SyncCost at the imbalanced loop is a
	// problem, so its LoadImbalance refinement must be evaluated and hold.
	g := buildGraph(t, apprentice.Particles())
	a := New(g)
	rep, _, err := a.AnalyzeGuided(lastRun(g), DefaultHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range rep.Instances {
		if in.Property == "LoadImbalance" && in.Holds {
			found = true
		}
	}
	if !found {
		t.Fatalf("LoadImbalance refinement not reached:\n%s", rep.Render())
	}
}

func TestSearchStatsSavings(t *testing.T) {
	if (SearchStats{}).Savings() != 0 {
		t.Error("zero stats savings")
	}
	s := SearchStats{Evaluated: 25, Exhaustive: 100}
	if s.Savings() != 0.75 {
		t.Errorf("savings = %g", s.Savings())
	}
}

func TestSortedBySeverity(t *testing.T) {
	in := []Instance{
		{Property: "B", Context: "x", Outcome: Outcome{Severity: 0.1}},
		{Property: "A", Context: "y", Outcome: Outcome{Severity: 0.9}},
		{Property: "A", Context: "x", Outcome: Outcome{Severity: 0.1}},
	}
	out := SortedBySeverity(in)
	if out[0].Property != "A" || out[0].Severity != 0.9 {
		t.Fatalf("order: %+v", out)
	}
	if out[1].Property != "A" || out[1].Context != "x" {
		t.Fatalf("tie-break: %+v", out)
	}
}

// TestSubtreeIntervalsMatchParentWalk: the guided search tests subtree
// membership as a pre-order index range, which holds only while every
// region's subtree is contiguous in the scope's region order. For every
// context and every region, the range must say what following ParentRegion
// links says.
func TestSubtreeIntervalsMatchParentWalk(t *testing.T) {
	workloads := apprentice.Library()
	workloads["scaled"] = apprentice.ScaledStencil(8, 14)
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			g := buildGraph(t, w)
			pl, err := New(g).planFor(lastRun(g))
			if err != nil {
				t.Fatal(err)
			}
			regions := g.OrderedRegions
			// A Region context's range is its own region's subtree.
			subtree := map[*object.Object][2]int{}
			for _, ctx := range pl.ctxs {
				if r := ctx.args[0].(*object.Object); r.Class.Name == "Region" {
					subtree[r] = [2]int{ctx.reg, ctx.regEnd}
				}
			}
			if len(subtree) != len(regions) {
				t.Fatalf("%d of %d regions have a range", len(subtree), len(regions))
			}
			for _, ctx := range pl.ctxs {
				own := ctx.args[0].(*object.Object)
				if own.Class.Name == "FunctionCall" {
					own, _ = own.Get("CallingReg").(*object.Object)
				}
				if own == nil {
					if ctx.reg != -1 || ctx.regEnd != len(regions) {
						t.Fatalf("%s %s without a region: range [%d, %d)", ctx.prop, ctx.label, ctx.reg, ctx.regEnd)
					}
					continue
				}
				for _, root := range regions {
					r := subtree[root]
					in := r[0] <= ctx.reg && ctx.reg < r[1]
					if walk := inSubtree(own, root); in != walk {
						t.Fatalf("%s %s in the subtree of region %s: range says %v, ParentRegion walk %v",
							ctx.prop, ctx.label, root.Get("Name"), in, walk)
					}
				}
			}
		})
	}
}

// inSubtree reports whether region r lies in the subtree rooted at root,
// following ParentRegion links.
func inSubtree(r, root *object.Object) bool {
	for r != nil {
		if r == root {
			return true
		}
		r, _ = r.Get("ParentRegion").(*object.Object)
	}
	return false
}
