package main

import (
	"math"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.50, 100}, {0.95, 190}, {0.99, 198}} {
		got, err := percentile(xs, c.p, 0)
		if err != nil || got != c.want {
			t.Errorf("percentile(%.2f) = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	if _, err := percentile(seq(200), 0.95, 10); err != nil {
		t.Errorf("200 samples leave 10 beyond p95: %v", err)
	}
	_, err := percentile(seq(199), 0.95, 10)
	if err == nil || !strings.Contains(err.Error(), "leaves 9 beyond") {
		t.Errorf("199 samples leave 9 beyond p95, want a refusal, got %v", err)
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Error("no samples: want an error")
	}
}

func TestAggregatePoolsRounds(t *testing.T) {
	// Three rounds: a quiet one, a noisy one, and a long one. Percentiles come
	// from the pooled samples, rates from totals, memory and set-up from the
	// median round.
	rounds := []roundResult{
		{Workload: "w", SetupS: 1, WindowS: 2, LatMS: []float64{10, 10, 10, 10}, CPUMS: 40, AllocKB: 400, PeakRSSMB: 100, Attempted: 4},
		{Workload: "w", SetupS: 9, WindowS: 2, LatMS: []float64{30, 30}, CPUMS: 80, AllocKB: 200, PeakRSSMB: 300, Attempted: 3, Failed: 1, Failures: []string{"boom"}},
		{Workload: "w", SetupS: 2, WindowS: 4, LatMS: []float64{10, 10, 10, 20}, CPUMS: 80, AllocKB: 400, PeakRSSMB: 200, Attempted: 4},
	}
	s, err := aggregate(rounds, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"op_p50_ms": 10, "op_p95_ms": 30, "ops_per_s": 10.0 / 8, "cpu_ms_per_op": 20,
		"alloc_kb_per_op": 100, "peak_rss_mb": 200, "setup_s": 2,
	}
	for name, w := range want {
		if got := s.Metrics[name]; math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	if s.Samples != 10 || s.Attempted != 11 || s.Failed != 1 || len(s.Failures) != 1 {
		t.Errorf("counts: %+v", s)
	}
	if len(s.RoundP50MS) != 3 || s.RoundP50MS[1] != 30 {
		t.Errorf("round p50s: %v", s.RoundP50MS)
	}
	if _, err := aggregate(rounds, minBeyondTail); err == nil {
		t.Error("10 pooled samples cannot carry a p95 with 10 beyond it")
	}
	if _, err := aggregate(append(rounds, roundResult{Workload: "other"}), 0); err == nil {
		t.Error("rounds of two workloads must not pool")
	}
}

func TestAtReferenceScalesAllButSleep(t *testing.T) {
	for _, c := range []struct{ clocked, slept, speed, want float64 }{
		{40, 0, 1, 40},
		{50, 0, 0.8, 40},     // a host a fifth slower: 50 ms clocked is 40 ms of work
		{190, 128, 0.5, 159}, // the 128 ms asleep stay, the other 62 ms halve
		{10, 12, 0.5, 10},    // never more sleep than time
	} {
		if got := atReference(c.clocked, c.slept, c.speed); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("atReference(%v, %v, %v) = %v, want %v", c.clocked, c.slept, c.speed, got, c.want)
		}
	}
	if got := speed([]float64{2 * refKernelMS, 2 * refKernelMS}); got != 0.5 {
		t.Errorf("speed of passes twice the reference = %v, want 0.5", got)
	}
}

func TestLatenciesUseNeighbouringPasses(t *testing.T) {
	// The host halves its speed after the second op. Each op is converted by
	// the two passes before it and the two after; failed ops give no sample.
	r, slow := refKernelMS, 2*refKernelMS
	l := clientLog{
		passes:  []float64{r, r, r, slow, slow, slow},
		clocked: []float64{10, 10, 10, 20, 20},
		failed:  []bool{false, false, true, false, false},
	}
	got := l.latencies(0)
	want := []float64{10, 10 * 4 / 5.0, 20 * 4 / 7.0, 10}
	if len(got) != len(want) {
		t.Fatalf("latencies %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("latency %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFoldTakesTheKernelOutOfTheWindow(t *testing.T) {
	// Two clients side by side for 1 s on a host at half speed: each spent
	// 100 ms in the kernel and, over its two ops, 800 ms asleep.
	slow := 2 * refKernelMS
	passes := make([]float64, 100)
	for i := range passes {
		passes[i] = slow
	}
	log := clientLog{passes: passes, clocked: []float64{450, 450}, failed: []bool{false, false}}
	r := roundResult{WindowS: 1, CPUMS: 300}
	r.fold([]clientLog{log, log}, 1600)
	if r.Attempted != 4 || r.Failed != 0 || len(r.LatMS) != 4 || len(r.ClockedMS) != 4 {
		t.Fatalf("counts: %+v", r)
	}
	if r.HostSpeed != 0.5 || r.ClockedWindowS != 1 {
		t.Errorf("host speed %v, clocked window %v", r.HostSpeed, r.ClockedWindowS)
	}
	// 1000 ms - 100 ms kernel = 900 ms, of which 800 asleep: 800 + 100/2.
	if math.Abs(r.WindowS-0.85) > 1e-12 {
		t.Errorf("window at reference speed = %v s, want 0.85", r.WindowS)
	}
	// 300 ms CPU - 200 ms in two kernels, at half speed.
	if math.Abs(r.CPUMS-50) > 1e-9 {
		t.Errorf("CPU at reference speed = %v ms, want 50", r.CPUMS)
	}
	// An op: 400 ms asleep + 50 ms of work at half speed.
	if math.Abs(r.LatMS[0]-425) > 1e-9 {
		t.Errorf("latency at reference speed = %v ms, want 425", r.LatMS[0])
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(v, n=4) gives [38.075, 39.8, 42.775] and a median
	// of 39.8 for these ten values.
	v := []float64{38.7, 41.2, 36.9, 44.0, 39.5, 40.1, 37.7, 43.3, 38.2, 42.6}
	if got, want := quartileSpread(v), (42.775-38.075)/39.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of ten values = %v, want %v", got, want)
	}
	// Three values: the quartiles are the values themselves.
	if got := quartileSpread([]float64{3, 1, 2}); got != 1 {
		t.Errorf("spread of {1,2,3} = %v, want 1", got)
	}
}

// runsOf makes a set of runs of workload "w" in which every metric reads
// each of the given values once.
func runsOf(values ...float64) []summary {
	runs := make([]summary, len(values))
	for i, v := range values {
		runs[i] = summary{Workload: "w", Metrics: map[string]float64{}}
		for _, m := range endToEnd {
			runs[i].Metrics[m.Name] = v
		}
	}
	return runs
}

func TestCheckSetsAppliesTheDriversRule(t *testing.T) {
	verdicts := func(a, b []summary) map[string]bool {
		out := map[string]bool{}
		for _, c := range checkSets(a, b) {
			out[c.Metric] = c.OK
		}
		return out
	}
	steady := runsOf(100, 100, 100, 100, 100)
	for metric, ok := range verdicts(steady, steady) {
		if !ok {
			t.Errorf("%s: identical steady sets rejected", metric)
		}
	}
	// A second median 30 % off is beyond every bound, but only in the
	// metric's bad direction: up for a lower-is-better metric, down for
	// ops_per_s.
	for _, c := range checkSets(steady, runsOf(130, 130, 130, 130, 130)) {
		if want := c.Metric == "ops_per_s"; c.OK != want {
			t.Errorf("%s: median up 30 %%: OK = %v, want %v (worse %.2f)", c.Metric, c.OK, want, c.Worse)
		}
	}
	for _, c := range checkSets(steady, runsOf(70, 70, 70, 70, 70)) {
		if want := c.Metric != "ops_per_s"; c.OK != want {
			t.Errorf("%s: median down 30 %%: OK = %v, want %v (worse %.2f)", c.Metric, c.OK, want, c.Worse)
		}
	}
	// Scattered runs around the same median: the spread (60 %) condemns
	// every metric but setup_s, which is held to its median only.
	scattered := runsOf(70, 85, 100, 115, 130)
	for metric, ok := range verdicts(steady, scattered) {
		if want := metric == "setup_s"; ok != want {
			t.Errorf("%s: scattered second set: OK = %v, want %v", metric, ok, want)
		}
	}
	for metric, ok := range verdicts(scattered, steady) {
		if want := metric == "setup_s"; ok != want {
			t.Errorf("%s: scattered first set: OK = %v, want %v", metric, ok, want)
		}
	}
}
