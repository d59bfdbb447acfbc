package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyondTail is how many samples must lie beyond a reported tail
// percentile; with it, op_p95_ms needs at least 200 pooled samples.
const minBeyondTail = 10

// percentile picks the p-quantile (0 < p < 1) of ascending samples by
// nearest rank. It refuses to answer unless at least minBeyond samples lie
// beyond the picked one: a tail read off a handful of samples is noise, and
// reporting it silently would let a too-short run pass for a measurement.
func percentile(sorted []float64, p float64, minBeyond int) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.2f of no samples", p)
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("percentile %.2f of %d samples leaves %d beyond it, need %d", p, n, beyond, minBeyond)
	}
	return sorted[idx], nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// roundResult is what one child process measured: one round of one workload.
// Its times are at reference speed (calib.go); the Clocked fields keep what
// the clock read, so that a result can be audited.
type roundResult struct {
	Workload string `json:"workload"`
	// SetupS runs from child start to the first measured op.
	SetupS        float64 `json:"setup_s"`
	ClockedSetupS float64 `json:"clocked_setup_s"`
	// WindowS is the length of the measured window; CPUMS, AllocKB and the
	// latencies cover exactly that window.
	WindowS        float64   `json:"window_s"`
	ClockedWindowS float64   `json:"clocked_window_s"`
	LatMS          []float64 `json:"lat_ms"`
	ClockedMS      []float64 `json:"clocked_ms"`
	CPUMS          float64   `json:"cpu_ms"`
	AllocKB        float64   `json:"alloc_kb"`
	// HostSpeed is the host's speed over the window relative to reference
	// speed, by the window's kernel passes.
	HostSpeed float64 `json:"host_speed"`
	// PeakRSSMB is the child's VmHWM at exit.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Failures holds the first few failure messages.
	Failures []string `json:"failures,omitempty"`
	// Layers holds the per-layer metrics of a traced child.
	Layers map[string]float64 `json:"layers,omitempty"`

	// Runtime deltas over the window, for the traced pass.
	mallocs, gcCycles uint64
	gcPauseMS         float64
}

// summary is one workload's end-to-end result over all its rounds.
type summary struct {
	Workload  string             `json:"workload"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   int                `json:"samples"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	// RoundP50MS shows each round's own median so a noisy round is visible;
	// RoundHostSpeed and ClockedP50MS show what the conversion to reference
	// speed did: each round's host speed, and the pooled median as clocked.
	RoundP50MS     []float64 `json:"round_p50_ms"`
	RoundHostSpeed []float64 `json:"round_host_speed"`
	ClockedP50MS   float64   `json:"clocked_p50_ms"`
}

// aggregate folds a workload's rounds into its end-to-end metrics, all at
// reference speed as the rounds report them: latency percentiles over the
// pooled samples, rates and per-op costs as totals over
// totals, memory and set-up as medians over rounds. tailSamples is how many
// samples must lie beyond op_p95_ms.
func aggregate(rounds []roundResult, tailSamples int) (summary, error) {
	if len(rounds) == 0 {
		return summary{}, fmt.Errorf("aggregate: no rounds")
	}
	s := summary{Workload: rounds[0].Workload, Metrics: make(map[string]float64)}
	var pooled, clocked, rss, setup []float64
	var window, cpu, alloc float64
	for _, r := range rounds {
		if r.Workload != s.Workload {
			return summary{}, fmt.Errorf("aggregate: rounds of %s and %s mixed", s.Workload, r.Workload)
		}
		pooled = append(pooled, r.LatMS...)
		clocked = append(clocked, r.ClockedMS...)
		s.RoundP50MS = append(s.RoundP50MS, median(r.LatMS))
		s.RoundHostSpeed = append(s.RoundHostSpeed, r.HostSpeed)
		rss = append(rss, r.PeakRSSMB)
		setup = append(setup, r.SetupS)
		window += r.WindowS
		cpu += r.CPUMS
		alloc += r.AllocKB
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		s.Failures = append(s.Failures, r.Failures...)
	}
	s.Samples = len(pooled)
	if s.Samples == 0 || window <= 0 {
		return s, fmt.Errorf("aggregate %s: no completed op in %d rounds (%d attempted, %d failed): %v",
			s.Workload, len(rounds), s.Attempted, s.Failed, s.Failures)
	}
	sort.Float64s(pooled)
	s.ClockedP50MS = median(clocked)
	var err error
	if s.Metrics["op_p50_ms"], err = percentile(pooled, 0.50, 0); err != nil {
		return s, fmt.Errorf("aggregate %s: %w", s.Workload, err)
	}
	if s.Metrics["op_p95_ms"], err = percentile(pooled, 0.95, tailSamples); err != nil {
		return s, fmt.Errorf("aggregate %s: %w", s.Workload, err)
	}
	ops := float64(s.Samples)
	s.Metrics["ops_per_s"] = ops / window
	s.Metrics["cpu_ms_per_op"] = cpu / ops
	s.Metrics["alloc_kb_per_op"] = alloc / ops
	s.Metrics["peak_rss_mb"] = median(rss)
	s.Metrics["setup_s"] = median(setup)
	return s, nil
}

// quartileSpread is how far runs of one program scatter, measured the way
// the benchmark driver does: the distance between the first and the third
// quartile of the values, as Python's statistics.quantiles(values, n=4) gives
// them, as a share of their median. It needs at least two values.
func quartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}

// worsening is how much worse b reads than a in the metric's direction, as
// a share of a; it is negative when b reads better.
func (m metricSpec) worsening(a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// setCheck is the verdict on one workload x metric over two sets of runs of
// the same program.
type setCheck struct {
	Workload, Metric string
	// MedianA/B and SpreadA/B are each set's median and quartile spread
	// over its runs; Worse is B's median against A's.
	MedianA, MedianB float64
	SpreadA, SpreadB float64
	Worse, Bound     float64
	OK               bool
}

// checkSets applies the benchmark driver's acceptance rule to two sets of
// runs of one workload: each set's quartile spread stays within the
// metric's bound (setup_s excepted — it carries the largest bound and is
// held to the second rule only), and the second set's median is not worse
// than the first's by more than the bound.
func checkSets(a, b []summary) []setCheck {
	var out []setCheck
	for _, m := range endToEnd {
		va, vb := metricValues(a, m.Name), metricValues(b, m.Name)
		c := setCheck{
			Workload: a[0].Workload, Metric: m.Name, Bound: m.Bound,
			MedianA: median(va), MedianB: median(vb),
			SpreadA: quartileSpread(va), SpreadB: quartileSpread(vb),
		}
		c.Worse = m.worsening(c.MedianA, c.MedianB)
		c.OK = c.Worse <= m.Bound &&
			(m.Name == "setup_s" || (c.SpreadA <= m.Bound && c.SpreadB <= m.Bound))
		out = append(out, c)
	}
	return out
}

func metricValues(runs []summary, name string) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.Metrics[name]
	}
	return vs
}
