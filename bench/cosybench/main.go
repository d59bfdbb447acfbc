// Command cosybench is the repository's benchmark: four analysis workloads
// over one simulated dataset, measured end to end with tracing off and
// attributed to the layers by a traced pass. bench/README.md is its manual.
//
// The benchmark driver runs one workload per invocation:
//
//	cosybench --workload warm_wire --seed 1 --seconds 20 --trace 0
//
// and reads the JSON object on the last line of standard output. Without
// --workload the command measures every workload in interleaved rounds,
// makes the traced passes and prints every metric by name:
//
//	cosybench --seed 42 --out bench/out/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload  = flag.String("workload", "", "measure only this workload and print the driver's result line")
		seed      = flag.Int64("seed", 42, "seed of the simulated dataset")
		seconds   = flag.Int("seconds", 20, "measured seconds per workload, split over its rounds")
		trace     = flag.Int("trace", 0, "with --workload: 1 makes the traced pass and reports the per-layer metrics")
		outDir    = flag.String("outdir", "bench/out", "directory for generated inputs, traces and results")
		out       = flag.String("out", "", "write the full result (with --workload: the summary and every round) to this file")
		selfcheck = flag.Bool("selfcheck", false, "make the driver's two sets of ten runs per workload and hold their spreads and medians to the bounds")
		smoke     = flag.Bool("smoke", false, "one short round per workload: exercises everything, measures nothing")

		child    = flag.String("child", "", "internal: run one round of this workload in this process")
		data     = flag.String("data", "", "internal: summary file the child analyzes")
		window   = flag.Duration("window", 0, "internal: the child's measured window")
		minOps   = flag.Int("minops", 0, "internal: ops the child completes before its window may close")
		traceOut = flag.String("traceout", "", "internal: file the traced child writes its spans to")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *child != "" {
		if err := runChild(childConfig{
			Workload: *child, Data: *data, Window: *window, MinOps: *minOps,
			Trace: *trace == 1, TraceOut: *traceOut,
		}); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Rounds: roundsPerRun, OutDir: *outDir, Log: os.Stderr}
	if *smoke {
		cfg.Seconds, cfg.Rounds, cfg.Smoke = 1, 1, true
	}
	start := time.Now()
	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(cfg)
	case *workload != "":
		var res driverResult
		if res, err = runOne(cfg, *workload, *trace == 1, *out); err == nil {
			// The contract: this object is the last line of standard output.
			err = json.NewEncoder(os.Stdout).Encode(res)
			if err == nil && !res.Correct {
				err = fmt.Errorf("%d of %d ops failed their correctness check", res.Failed, res.Attempted)
			}
		}
	default:
		cfg.Log = os.Stdout
		err = runSuite(cfg, *out)
	}
	fmt.Fprintf(os.Stderr, "cosybench: %.1f s\n", time.Since(start).Seconds())
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cosybench:", err)
	os.Exit(1)
}
