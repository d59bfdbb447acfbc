package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/apprentice"
)

// runConfig is what one invocation of the harness measures.
type runConfig struct {
	Seed int64
	// Seconds is the measured time per workload, split evenly over Rounds
	// child processes.
	Seconds int
	Rounds  int
	// OutDir receives generated inputs, traces and result files.
	OutDir string
	// Log receives the human-readable report.
	Log io.Writer
	// Smoke swaps the dataset for a small one and waives the sample floors:
	// the pass exercises every code path and measures nothing.
	Smoke bool
}

// data returns the summary file the children analyze, generating it when
// absent. Inputs are a pure function of the seed, so a file left by an
// earlier invocation is the same input; regenerate forces a fresh Simulate
// (the traced pass reports its duration).
func (c runConfig) data(regenerate bool) (path string, simulateS float64, err error) {
	name, w, pes := "seed", datasetWorkload(), sweepPEs()
	if c.Smoke {
		name, w, pes = "smoke_seed", apprentice.Particles(), []int{2, 8, 32}
	}
	path = filepath.Join(c.OutDir, fmt.Sprintf("%s_%d.apr", name, c.Seed))
	if !regenerate {
		if _, err := os.Stat(path); err == nil {
			return path, 0, nil
		}
	}
	simulateS, err = generate(w, pes, c.Seed, path)
	return path, simulateS, err
}

// tailSamples is how many samples must lie beyond op_p95_ms.
func (c runConfig) tailSamples() int {
	if c.Smoke {
		return 0
	}
	return minBeyondTail
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.Seconds) * time.Second / time.Duration(c.Rounds)
}

func (c runConfig) minOpsPerRound() int {
	if c.Smoke {
		return 4
	}
	return int(math.Ceil(float64(minPooledSamples) / float64(c.Rounds)))
}

// spawn runs one child process — one round of one workload, or its traced
// pass — to its end and returns what it measured. Children run strictly one
// at a time: each gets a fresh heap, its own peak RSS, and both CPUs.
func (c runConfig) spawn(workload, data string, trace bool) (roundResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return roundResult{}, err
	}
	args := []string{"-child", workload, "-data", data, "-window", c.window().String()}
	if trace {
		args = append(args, "-trace", "1", "-traceout", filepath.Join(c.OutDir, "trace_"+workload+".json"))
	} else {
		args = append(args, "-minops", fmt.Sprint(c.minOpsPerRound()))
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return roundResult{}, fmt.Errorf("%s child: %w", workload, err)
	}
	var res roundResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return res, fmt.Errorf("%s child: reading its result: %w", workload, err)
	}
	return res, nil
}

// driverResult is the one line the benchmark contract asks for.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toDriverMetrics(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// tracedPass runs a workload's traced child, adds the parent's own layer
// metric to what it measured, and prints and returns every per-layer metric.
func (c runConfig) tracedPass(workload, data string, simulateS float64) (roundResult, map[string]metricValue, error) {
	res, err := c.spawn(workload, data, true)
	if err != nil {
		return res, nil, err
	}
	res.Layers["apprentice.simulate_s"] = simulateS
	printMetrics(c.Log, workload+" (traced pass)", perLayer, res.Layers)
	m, err := toDriverMetrics(perLayer, res.Layers)
	if err != nil {
		return res, nil, fmt.Errorf("%s traced pass: %w", workload, err)
	}
	return res, m, nil
}

// runOne measures a single workload — its rounds, or its traced pass — and
// returns the contract's result. This is what the benchmark driver invokes.
func runOne(cfg runConfig, workload string, trace bool, out string) (driverResult, error) {
	if _, ok := findWorkload(workload); !ok {
		return driverResult{}, fmt.Errorf("unknown workload %q", workload)
	}
	data, simulateS, err := cfg.data(trace)
	if err != nil {
		return driverResult{}, err
	}
	if trace {
		res, m, err := cfg.tracedPass(workload, data, simulateS)
		return driverResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: m}, err
	}
	s, rounds, err := cfg.measureRun(workload, data)
	if err != nil {
		return driverResult{}, err
	}
	printSummary(cfg.Log, s)
	if out != "" {
		if err := writeJSON(out, struct {
			Summary summary       `json:"summary"`
			Rounds  []roundResult `json:"rounds"`
		}{s, rounds}); err != nil {
			return driverResult{}, err
		}
	}
	m, err := toDriverMetrics(endToEnd, s.Metrics)
	return driverResult{Correct: s.Failed == 0, Attempted: s.Attempted, Failed: s.Failed, Metrics: m}, err
}

// measureRun is one driver-style run of one workload: its rounds one after
// the other, folded into the end-to-end metrics.
func (c runConfig) measureRun(workload, data string) (summary, []roundResult, error) {
	var rounds []roundResult
	for range c.Rounds {
		r, err := c.spawn(workload, data, false)
		if err != nil {
			return summary{}, nil, err
		}
		rounds = append(rounds, r)
	}
	s, err := aggregate(rounds, c.tailSamples())
	return s, rounds, err
}

// runInterleaved measures every workload with its rounds interleaved: in
// each round every workload runs once, in fixed order, so a noisy spell on
// the host lands on all workloads alike rather than on whichever happened to
// be running.
func runInterleaved(cfg runConfig, data string) ([]summary, error) {
	rounds := make([][]roundResult, len(workloads))
	for r := 0; r < cfg.Rounds; r++ {
		for wi, w := range workloads {
			res, err := cfg.spawn(w.Name, data, false)
			if err != nil {
				return nil, err
			}
			rounds[wi] = append(rounds[wi], res)
			fmt.Fprintf(cfg.Log, "round %d/%d %-17s p50 %8.3f ms  %4d ops  setup %.3f s  host speed %.3f\n",
				r+1, cfg.Rounds, w.Name, median(res.LatMS), len(res.LatMS), res.SetupS, res.HostSpeed)
		}
	}
	var out []summary
	for wi := range workloads {
		s, err := aggregate(rounds[wi], cfg.tailSamples())
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// hostInfo describes where a result was measured.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func describeHost() hostInfo {
	h := hostInfo{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return h
}

// suiteResult is the full result of the default command: what
// bench/baseline/ keeps per commit.
type suiteResult struct {
	Seed    int64    `json:"seed"`
	Seconds int      `json:"seconds_per_workload"`
	Rounds  int      `json:"rounds"`
	Host    hostInfo `json:"host"`
	// EndToEnd holds one summary per workload (tracing off); PerLayer the
	// traced pass's attribution per workload.
	EndToEnd []summary                     `json:"end_to_end"`
	PerLayer map[string]map[string]float64 `json:"per_layer"`
}

// runSuite is the default command: every workload's end-to-end metrics from
// interleaved rounds, then one traced pass per workload for the per-layer
// numbers. It returns an error if any op failed its check.
func runSuite(cfg runConfig, out string) error {
	data, simulateS, err := cfg.data(true)
	if err != nil {
		return err
	}
	summaries, err := runInterleaved(cfg, data)
	if err != nil {
		return err
	}
	result := suiteResult{
		Seed: cfg.Seed, Seconds: cfg.Seconds, Rounds: cfg.Rounds, Host: describeHost(),
		EndToEnd: summaries, PerLayer: make(map[string]map[string]float64),
	}
	failed := 0
	for _, s := range result.EndToEnd {
		printSummary(cfg.Log, s)
		failed += s.Failed
	}
	for _, w := range workloads {
		res, _, err := cfg.tracedPass(w.Name, data, simulateS)
		if err != nil {
			return err
		}
		result.PerLayer[w.Name] = res.Layers
		failed += res.Failed
	}
	if out != "" {
		if err := writeJSON(out, result); err != nil {
			return err
		}
		fmt.Fprintf(cfg.Log, "result written to %s\n", out)
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed their correctness check", failed)
	}
	return nil
}

// selfcheckRuns is how many runs, each on another seed, make one set: the
// benchmark driver's number.
const selfcheckRuns = 10

// runSelfcheck shows that two sets of runs of the same code agree within the
// benchmark's own bounds, on the path that gates a change: it does what the
// benchmark driver does — per workload, two sets of selfcheckRuns
// driver-style runs (measureRun), each run on another seed — and applies the
// driver's rule (checkSets). It takes about 35 minutes.
func runSelfcheck(cfg runConfig) error {
	var checks []setCheck
	failed := 0
	for _, w := range workloads {
		var sets [2][]summary
		for k := range sets {
			for i := 0; i < selfcheckRuns; i++ {
				run := cfg
				run.Seed = cfg.Seed + int64(i)
				data, _, err := run.data(false)
				if err != nil {
					return err
				}
				s, _, err := run.measureRun(w.Name, data)
				if err != nil {
					return err
				}
				failed += s.Failed
				sets[k] = append(sets[k], s)
				fmt.Fprintf(cfg.Log, "set %c %-17s seed %-3d p50 %8.3f ms  p95 %8.3f ms  cpu %8.3f ms  setup %.3f s\n",
					'A'+k, w.Name, run.Seed, s.Metrics["op_p50_ms"], s.Metrics["op_p95_ms"], s.Metrics["cpu_ms_per_op"], s.Metrics["setup_s"])
			}
		}
		checks = append(checks, checkSets(sets[0], sets[1])...)
	}
	bad := 0
	fmt.Fprintf(cfg.Log, "\n%-17s %-16s %11s %8s %11s %8s %8s %7s\n",
		"workload", "metric", "median A", "spread", "median B", "spread", "B worse", "bound")
	for _, c := range checks {
		verdict := ""
		if !c.OK {
			verdict = "  EXCEEDED"
			bad++
		}
		fmt.Fprintf(cfg.Log, "%-17s %-16s %11.4f %7.2f%% %11.4f %7.2f%% %7.2f%% %6.0f%%%s\n",
			c.Workload, c.Metric, c.MedianA, c.SpreadA*100, c.MedianB, c.SpreadB*100, c.Worse*100, c.Bound*100, verdict)
	}
	switch {
	case failed > 0:
		return fmt.Errorf("selfcheck: %d ops failed their correctness check", failed)
	case bad > 0:
		return fmt.Errorf("selfcheck: %d of %d comparisons exceed their bound", bad, len(checks))
	}
	fmt.Fprintf(cfg.Log, "selfcheck: all %d comparisons within bounds, no failed op\n", len(checks))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func printSummary(w io.Writer, s summary) {
	printMetrics(w, s.Workload, endToEnd, s.Metrics)
	fmt.Fprintf(w, "  %-32s %d pooled, %d attempted, %d failed\n", "samples", s.Samples, s.Attempted, s.Failed)
	fmt.Fprintf(w, "  %-32s %.3f\n", "p50 of each round (ms)", s.RoundP50MS)
	fmt.Fprintf(w, "  %-32s %.3f\n", "host speed in each round", s.RoundHostSpeed)
	fmt.Fprintf(w, "  %-32s %.4f ms\n", "op_p50_ms as clocked", s.ClockedP50MS)
	for _, f := range s.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
}

func printMetrics(w io.Writer, title string, specs []metricSpec, values map[string]float64) {
	fmt.Fprintf(w, "\n%s\n", title)
	for _, m := range specs {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.Name, values[m.Name], m.Unit)
	}
}
