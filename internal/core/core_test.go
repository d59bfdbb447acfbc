package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/parser"
	"repro/internal/asl/sem"
	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// buildGraph simulates a workload on a small sweep and materializes it.
func buildGraph(t testing.TB, w *apprentice.Workload, pes ...int) *model.Graph {
	t.Helper()
	if len(pes) == 0 {
		pes = []int{2, 8, 32}
	}
	ds, err := apprentice.Simulate(w, apprentice.PartitionSweep(pes...), 42)
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// loadDB loads the graph's store into a fresh embedded database.
func loadDB(t testing.TB, g *model.Graph) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	exec := sqlgen.ExecutorFunc(func(q string, p *sqldb.Params) (int, error) {
		res, err := db.Exec(q, p)
		if err != nil {
			return 0, err
		}
		return res.Affected, nil
	})
	if err := sqlgen.CreateSchema(g.World, exec); err != nil {
		t.Fatal(err)
	}
	if _, err := sqlgen.Load(g.Store, exec); err != nil {
		t.Fatal(err)
	}
	return db
}

func lastRun(g *model.Graph) *model.TestRun {
	runs := g.Dataset.Versions[0].Runs
	return runs[len(runs)-1]
}

func TestObjectAnalysisParticles(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	a := New(g)
	rep, err := a.AnalyzeObject(lastRun(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) > 0 {
		t.Fatalf("diagnostics on a complete dataset: %+v", rep.Diagnostics)
	}
	bn := rep.Bottleneck()
	if bn == nil {
		t.Fatal("no bottleneck found in an imbalanced workload")
	}
	// The seeded bottleneck is load imbalance: either the SyncCost of the
	// imbalanced loop or the whole-program SublinearSpeedup must dominate,
	// and LoadImbalance must hold at the barrier call in the forces loop.
	found := false
	for _, in := range rep.Instances {
		if in.Property == "LoadImbalance" && strings.Contains(in.Context, "forces") {
			found = true
			// The paper's severity formula divides the per-process mean by
			// the process-summed basis duration, so the value is small; it
			// must still be positive with full confidence.
			if in.Severity <= 0 || in.Confidence != 1 {
				t.Errorf("LoadImbalance severity %.6f confidence %.2f", in.Severity, in.Confidence)
			}
		}
	}
	if !found {
		t.Error("LoadImbalance at the forces barrier not detected")
	}
	syncSeen := false
	for _, in := range rep.Instances {
		if in.Property == "SyncCost" && strings.Contains(in.Context, "forces") && in.Severity > rep.Threshold {
			syncSeen = true
		}
	}
	if !syncSeen {
		t.Error("SyncCost at forces not reported as a problem")
	}
}

func TestBottleneckPerWorkload(t *testing.T) {
	cases := []struct {
		workload *apprentice.Workload
		// wantProp must appear among the top problems (by severity) of the
		// largest run, in a region matching wantCtx.
		wantProp string
		wantCtx  string
	}{
		{apprentice.Particles(), "SyncCost", "forces"},
		{apprentice.IOBound(), "IOCost", "checkpoint"},
		{apprentice.AllToAll(), "CommunicationCost", "transpose"},
		{apprentice.Amdahl(), "UnmeasuredCost", "serial_setup"},
		{apprentice.FineGrained(), "FrequentFineGrainedCalls", "get_cell"},
	}
	for _, c := range cases {
		t.Run(c.workload.Name, func(t *testing.T) {
			g := buildGraph(t, c.workload)
			a := New(g)
			rep, err := a.AnalyzeObject(lastRun(g))
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range rep.Problems() {
				if in.Property == c.wantProp && strings.Contains(in.Context, c.wantCtx) {
					return
				}
			}
			t.Errorf("expected problem %s at %q; report:\n%s", c.wantProp, c.wantCtx, rep.Render())
		})
	}
}

func TestSeverityGrowsWithPartitionSize(t *testing.T) {
	g := buildGraph(t, apprentice.Amdahl(), 2, 4, 8, 16, 32, 64)
	a := New(g)
	prev := -1.0
	for _, run := range g.Dataset.Versions[0].Runs[1:] {
		rep, err := a.AnalyzeObject(run)
		if err != nil {
			t.Fatal(err)
		}
		var sev float64
		for _, in := range rep.Instances {
			if in.Property == "SublinearSpeedup" && strings.Contains(in.Context, "region main") {
				sev = in.Severity
			}
		}
		if sev <= prev {
			t.Errorf("NoPe=%d: SublinearSpeedup severity %.4f did not grow (prev %.4f)", run.NoPe, sev, prev)
		}
		prev = sev
	}
}

// TestEnginesAgree is the A1 ablation: the object interpreter and the
// compiled SQL queries must produce identical results on every workload.
func TestEnginesAgree(t *testing.T) {
	for name, w := range apprentice.Library() {
		t.Run(name, func(t *testing.T) {
			g := buildGraph(t, w, 2, 8, 32)
			db := loadDB(t, g)
			a := New(g)
			for _, run := range g.Dataset.Versions[0].Runs {
				obj, err := a.AnalyzeObject(run)
				if err != nil {
					t.Fatal(err)
				}
				sql, err := a.AnalyzeSQL(run, godbc.Embedded{DB: db})
				if err != nil {
					t.Fatal(err)
				}
				compareReports(t, obj, sql)
			}
		})
	}
}

// TestClientSideAgrees checks the fetch-then-evaluate configuration against
// the direct object path.
func TestClientSideAgrees(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	db := loadDB(t, g)
	a := New(g)
	run := lastRun(g)
	obj, err := a.AnalyzeObject(run)
	if err != nil {
		t.Fatal(err)
	}
	client, err := a.AnalyzeClientSide(run, godbc.Embedded{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, obj, client)
}

func compareReports(t *testing.T, a, b *Report) {
	t.Helper()
	if len(a.Instances) != len(b.Instances) {
		t.Fatalf("instance count: %s=%d, %s=%d\n%s\n%s",
			a.Engine, len(a.Instances), b.Engine, len(b.Instances), a.Render(), b.Render())
	}
	if len(a.Diagnostics) != 0 || len(b.Diagnostics) != 0 {
		t.Fatalf("diagnostics: %s=%v, %s=%v", a.Engine, a.Diagnostics, b.Engine, b.Diagnostics)
	}
	for i := range a.Instances {
		x, y := a.Instances[i], b.Instances[i]
		if x.Property != y.Property || x.Context != y.Context {
			t.Fatalf("ranking differs at %d: %s/%s vs %s/%s", i, x.Property, x.Context, y.Property, y.Context)
		}
		if !closeEnough(x.Severity, y.Severity) || !closeEnough(x.Confidence, y.Confidence) {
			t.Fatalf("%s %s: severity %.12g vs %.12g, confidence %g vs %g",
				x.Property, x.Context, x.Severity, y.Severity, x.Confidence, y.Confidence)
		}
	}
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

func TestThresholdOption(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	a := New(g, WithThreshold(0.5))
	rep, err := a.AnalyzeObject(lastRun(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems() {
		if p.Severity <= 0.5 {
			t.Errorf("problem below threshold: %+v", p)
		}
	}
}

func TestPropertySubset(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	a := New(g, WithProperties("SyncCost"))
	rep, err := a.AnalyzeObject(lastRun(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range rep.Instances {
		if in.Property != "SyncCost" {
			t.Fatalf("unexpected property %s", in.Property)
		}
	}
	if len(rep.Instances) == 0 {
		t.Fatal("SyncCost nowhere found in stencil workload")
	}
}

func TestConstOverride(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	strict := New(g, WithProperties("LoadImbalance"), WithConst("ImbalanceThreshold", 1e9))
	rep, err := strict.AnalyzeObject(lastRun(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Instances) != 0 {
		t.Fatalf("ImbalanceThreshold=1e9 still reports %d imbalances", len(rep.Instances))
	}
	// The same override must act identically on the SQL path.
	db := loadDB(t, g)
	repSQL, err := strict.AnalyzeSQL(lastRun(g), godbc.Embedded{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if len(repSQL.Instances) != 0 {
		t.Fatalf("SQL path ignored the constant override: %d instances", len(repSQL.Instances))
	}
}

// constProbeSpec extends the canonical specification with two properties for
// the constant-override tests: one whose condition holds a bare literal
// spelled like ImbalanceThreshold's default, and one whose condition reads a
// constant derived from ImbalanceThreshold.
const constProbeSpec = `
float Doubled = 2.0 * ImbalanceThreshold;

property OverheadShare(Region r, TestRun t, Region Basis) {
  LET
    float Measured = Summary(r, t).Ovhd;
  IN
  CONDITION: Measured > 0.25 * Duration(r, t);
  CONFIDENCE: 1;
  SEVERITY: Measured / Duration(Basis, t);
}

property DoubledImbalance(FunctionCall Call, TestRun t, Region Basis) {
  LET
    CallTiming ct = UNIQUE({c IN Call.Sums WITH c.Run == t});
  IN
  CONDITION: ct.StdevTime > Doubled * ct.MeanTime;
  CONFIDENCE: 1;
  SEVERITY: ct.MeanTime / Duration(Basis, t);
}
`

// TestConstOverrideEnginesAgree: a constant override changes the value of a
// declaration, the same one on every engine. A literal that merely shares the
// overridden constant's spelling keeps its value, and a constant computed
// from others can be overridden like a literal one.
func TestConstOverrideEnginesAgree(t *testing.T) {
	spec, err := parser.Parse(model.SpecSource + constProbeSpec)
	if err != nil {
		t.Fatal(err)
	}
	world, err := sem.Check(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, apprentice.Stencil())
	g.World = world
	q := godbc.Embedded{DB: loadDB(t, g)}
	run := lastRun(g)

	for _, tc := range []struct {
		prop, name string
		value      float64
	}{
		{"OverheadShare", "ImbalanceThreshold", 0.9},
		{"DoubledImbalance", "Doubled", 0.01},
		{"DoubledImbalance", "ImbalanceThreshold", 0.005},
	} {
		t.Run(fmt.Sprintf("%s/%s=%g", tc.prop, tc.name, tc.value), func(t *testing.T) {
			opts := []Option{WithProperties(tc.prop), WithConst(tc.name, tc.value)}
			obj, err := New(g, opts...).AnalyzeObject(run)
			if err != nil {
				t.Fatal(err)
			}
			if len(obj.Instances) == 0 {
				t.Fatal("the object engine finds no instance: the case shows nothing")
			}
			for _, dialect := range build.Names() {
				for _, bs := range []int{1, 32} {
					a := New(g, append(opts, WithSQLDialect(dialect), WithBatchSize(bs))...)
					sql, err := a.AnalyzeSQL(run, q)
					if err != nil {
						t.Fatalf("%s, batch size %d: %v", dialect, bs, err)
					}
					compareReports(t, obj, sql)
				}
			}
			client, err := New(g, opts...).AnalyzeClientSide(run, q)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, obj, client)

			guided, _, err := New(g, opts...).AnalyzeGuided(run, DefaultHierarchy())
			if err != nil {
				t.Fatal(err)
			}
			guidedSQL, _, err := New(g, opts...).AnalyzeGuidedSQL(run, DefaultHierarchy(), q)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, guided, guidedSQL)
		})
	}
}

// TestTwoConstOverridesEnginesAgree: with two overrides of which one's new
// value equals the other's old spelling, the SQL engine must still evaluate
// what the object engine evaluates. Every call of the workload has a call
// rate above 0 and a mean time per call below 1000, so the property holds
// everywhere it is evaluated — unless one override were applied on top of
// the other, into "mean time per call < 0", which holds nowhere.
func TestTwoConstOverridesEnginesAgree(t *testing.T) {
	g := buildGraph(t, apprentice.FineGrained())
	db := loadDB(t, g)
	for i := 0; i < 16; i++ { // overrides are kept in a map: vary its order
		a := New(g, WithProperties("FrequentFineGrainedCalls"),
			WithConst("GranularityMeanTime", 1000), WithConst("GranularityCallRate", 0))
		obj, err := a.AnalyzeObject(lastRun(g))
		if err != nil {
			t.Fatal(err)
		}
		if len(obj.Instances) == 0 {
			t.Fatal("the object engine finds no fine-grained call: the test shows nothing")
		}
		sql, err := a.AnalyzeSQL(lastRun(g), godbc.Embedded{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, obj, sql)
	}
}

func TestCallFilterDefaultsToBarrier(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	a := New(g, WithProperties("LoadImbalance"))
	rep, err := a.AnalyzeObject(lastRun(g))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range rep.Instances {
		if !strings.Contains(in.Context, model.BarrierFunction) {
			t.Fatalf("LoadImbalance evaluated for non-barrier call: %s", in.Context)
		}
	}
}

func TestReportRendering(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	rep, err := New(g).AnalyzeObject(lastRun(g))
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Render()
	for _, want := range []string{"COSY analysis", "bottleneck:", "SEVERITY"} {
		if !strings.Contains(text, want) {
			t.Errorf("report lacks %q:\n%s", want, text)
		}
	}
}

func TestAnalyzeUnknownRun(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	if _, err := New(g).AnalyzeObject(&model.TestRun{NoPe: 999}); err == nil {
		t.Fatal("expected error for run outside the dataset")
	}
}
