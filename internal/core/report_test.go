package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/model"
)

// stableBySeverity is the report order as a comparator over whole instances,
// the form reports were sorted in before the sort moved keys: decreasing
// severity, ties broken by property and context. The key sort must give the
// permutation a stable sort with it gives.
func stableBySeverity(a, b Instance) int {
	if a.Severity != b.Severity {
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

// renderFmt is Render as fmt writes it, the renderer's reference.
func renderFmt(r *Report) string {
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

// randomInstances draws n instances whose severities repeat and include
// ±0, ±Inf and NaN, whose (Property, Context) pairs repeat, and some of which
// do not hold or carry a diagnostic. Confidence is the instance's index, so
// an order can be read back whatever the severities.
func randomInstances(rng *rand.Rand, n int) []Instance {
	sevs := []float64{0, math.Copysign(0, -1), 0.5, 0.25, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 0.05}
	props := []string{"SyncCost", "LoadImbalance", "IOCost", "Sync"}
	ctxs := []string{"region main", "region main/sweep", "call barrier", ""}
	out := make([]Instance, n)
	for i := range out {
		sev := sevs[rng.Intn(len(sevs))]
		if rng.Intn(3) == 0 {
			sev = rng.Float64()
		}
		out[i] = Instance{
			Property: props[rng.Intn(len(props))],
			Context:  ctxs[rng.Intn(len(ctxs))],
			Outcome:  Outcome{Holds: rng.Intn(5) != 0, Severity: sev, Confidence: float64(i)},
		}
		if rng.Intn(10) == 0 {
			out[i].Holds = false
			out[i].Diagnostic = "missing data"
		}
	}
	return out
}

// order is the instances' Confidence tags in order: which instance is where.
func order(in []Instance) []float64 {
	out := make([]float64, len(in))
	for i := range in {
		out[i] = in[i].Confidence
	}
	return out
}

func TestReportOrderMatchesStableSort(t *testing.T) {
	a := &Analyzer{graph: &model.Graph{Dataset: &model.Dataset{Program: "p"}}}
	rng := rand.New(rand.NewSource(1))
	for trial := range 500 {
		n := rng.Intn(60)
		if trial < 3 {
			n = trial // empty, one, two
		}
		in := randomInstances(rng, n)

		var holds, diags []Instance
		skipped := 0
		for _, x := range in {
			switch {
			case x.Diagnostic != "":
				diags = append(diags, x)
			case x.Holds:
				holds = append(holds, x)
			default:
				skipped++
			}
		}
		slices.SortStableFunc(holds, stableBySeverity)

		rep := a.finish("sql", 4, slices.Clone(in))
		if got, want := order(rep.Instances), order(holds); !slices.Equal(got, want) {
			t.Fatalf("trial %d: report order %v, stable sort %v", trial, got, want)
		}
		if (rep.Instances == nil) != (holds == nil) {
			t.Fatalf("trial %d: Instances nil=%t, want nil=%t", trial, rep.Instances == nil, holds == nil)
		}
		if got, want := order(rep.Diagnostics), order(diags); !slices.Equal(got, want) || rep.Skipped != skipped {
			t.Fatalf("trial %d: diagnostics %v skipped %d, want %v and %d", trial, got, rep.Skipped, want, skipped)
		}

		all := slices.Clone(in)
		slices.SortStableFunc(all, stableBySeverity)
		if got, want := order(SortedBySeverity(in)), order(all); !slices.Equal(got, want) {
			t.Fatalf("trial %d: SortedBySeverity %v, stable sort %v", trial, got, want)
		}
	}
}

// syntheticReports are reports no workload produces: names past their
// columns, contexts in several scripts and not valid UTF-8, numbers too
// wide for their columns or not finite, no instances, and diagnostics.
func syntheticReports() []*Report {
	long := strings.Repeat("VeryLongPropertyName", 3)
	return []*Report{
		{Program: "empty", NoPe: 1, Engine: "object", Threshold: 0.05},
		{Program: "", NoPe: 0, Engine: "", Threshold: -0.0005},
		{Program: "diag only", NoPe: 123456, Engine: "sql", Threshold: 12.5,
			Diagnostics: []Instance{{Property: "IOCost", Context: "region ü", Outcome: Outcome{Diagnostic: "UNIQUE over an empty set"}}}},
		{Program: "wide", NoPe: -3, Engine: "client-sql", Threshold: 0.05, Skipped: 2,
			Instances: []Instance{
				{Property: long, Context: strings.Repeat("region main/", 5), Outcome: Outcome{Holds: true, Severity: 123456.78915, Confidence: 1}},
				{Property: "SyncCost", Context: "région principale/balayage", Outcome: Outcome{Holds: true, Severity: 0.05, Confidence: 0.875}},
				{Property: "Sync", Context: "区域 主/扫描 区域 主/扫描 区域 主/扫描 区域 主/扫描", Outcome: Outcome{Holds: true, Severity: -9999.99996, Confidence: 99.999}},
				{Property: "Größe", Context: "bad \xff\xfe utf8", Outcome: Outcome{Holds: true, Severity: math.NaN(), Confidence: math.Inf(-1)}},
				{Property: "I", Context: "", Outcome: Outcome{Holds: true, Severity: math.Inf(1), Confidence: -99.996}},
				{Property: "J", Context: "x", Outcome: Outcome{Holds: true, Severity: 1e300, Confidence: math.Copysign(0, -1)}},
				{Property: "K", Context: "y", Outcome: Outcome{Holds: true, Severity: -1e-300, Confidence: 0.125}},
			},
			Diagnostics: []Instance{
				{Property: "LoadImbalance", Context: "call barrier", Outcome: Outcome{Diagnostic: "missing data"}},
				{Property: "", Context: "", Outcome: Outcome{Diagnostic: ""}},
			}},
	}
}

// libraryReports analyses the last run of every library workload.
func libraryReports(t *testing.T) map[string]*Report {
	t.Helper()
	out := map[string]*Report{}
	for name, w := range apprentice.Library() {
		g := buildGraph(t, w)
		rep, err := New(g).AnalyzeObject(lastRun(g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = rep
	}
	return out
}

func TestRenderMatchesFmt(t *testing.T) {
	reports := libraryReports(t)
	for i, r := range syntheticReports() {
		reports["synthetic"+strconv.Itoa(i)] = r
	}
	names := make([]string, 0, len(reports))
	for name := range reports {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := reports[name]
		if got, want := r.Render(), renderFmt(r); got != want {
			t.Errorf("%s: Render differs from fmt's rendering\ngot:\n%s\nwant:\n%s", name, got, want)
		}
		if got, want := r.renderLen(), len(renderFmt(r)); got != want {
			t.Errorf("%s: renderLen = %d, rendered %d bytes", name, got, want)
		}
	}
}

// TestRenderAllocatesOnce: a report whose numbers fit their columns renders
// into one allocation, the builder sized up front.
func TestRenderAllocatesOnce(t *testing.T) {
	for name, r := range libraryReports(t) {
		if allocs := testing.AllocsPerRun(10, func() { _ = r.Render() }); allocs != 1 {
			t.Errorf("%s: Render made %v allocations, want 1", name, allocs)
		}
	}
}

// checkAppendFixed compares appendFixed with strconv at the precisions the
// report prints.
func checkAppendFixed(t *testing.T, v float64) {
	t.Helper()
	for _, prec := range []int{2, 3, 4} {
		want := strconv.AppendFloat([]byte("x"), v, 'f', prec, 64)
		if got := appendFixed([]byte("x"), v, prec); string(got) != string(want) {
			t.Fatalf("appendFixed(%v [%#x], %d) = %q, strconv gives %q", v, math.Float64bits(v), prec, got, want)
		}
	}
}

func FuzzAppendFixed(f *testing.F) {
	for _, v := range []float64{
		1.03125, 0.125, 1<<52 - 0.5, 1<<52 + 0.5, 1<<53 - 1, 1 << 53,
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-1022 - 0x1p-1074,
		math.Copysign(0, -1), 9.99995, 0.005, -0.00005, 99.995, 0.99995,
		math.MaxFloat64, math.Inf(-1), math.NaN(),
	} {
		f.Add(v)
	}
	f.Fuzz(checkAppendFixed)
}

// TestAppendFixedRandom covers what a fuzz corpus run does not: random bit
// patterns, and values near the halfway points of the printed precisions.
func TestAppendFixedRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 5000 {
		checkAppendFixed(t, math.Float64frombits(rng.Uint64()))
		v := float64(rng.Int63n(2e6)-1e6) / 2e4 // multiples of 0.00005
		checkAppendFixed(t, v)
		checkAppendFixed(t, math.Nextafter(v, math.Inf(1)))
		checkAppendFixed(t, math.Nextafter(v, math.Inf(-1)))
		checkAppendFixed(t, math.Ldexp(rng.Float64(), rng.Intn(120)-60))
	}
}

// BenchmarkReportAssembly times report assembly, the layer between the
// evaluated instances and the analyst: finish (classify, sort by severity)
// and Render, over the instances of one analysis of a scaled stencil run
// (about a thousand holding), in the order the analysis evaluates them.
func BenchmarkReportAssembly(b *testing.B) {
	g := buildGraph(b, apprentice.ScaledStencil(15, 16), 2, 8, 25)
	a := New(g)
	pl, err := a.planFor(lastRun(g))
	if err != nil {
		b.Fatal(err)
	}
	evaluated, err := a.evalObject(context.Background(), pl.ctxs)
	if err != nil {
		b.Fatal(err)
	}
	holds := 0
	for _, x := range evaluated {
		if x.Holds && x.Diagnostic == "" {
			holds++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		reportSink = a.finish("sql", 25, evaluated).Render()
	}
	b.ReportMetric(float64(holds), "instances")
}

var reportSink string
