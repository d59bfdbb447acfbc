package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apprentice"
)

// sweepPEs is the partition sweep of the benchmark dataset: 24 runs on 2..25
// processors. Row counts per property query equal E13's 2..224 sweep, but
// Simulate (which seeds a fresh rand.Source per noise draw) costs about 5 s
// instead of 20 s.
func sweepPEs() []int {
	pes := make([]int, 0, 24)
	for p := 2; p <= 25; p++ {
		pes = append(pes, p)
	}
	return pes
}

// datasetWorkload is the simulated application every benchmark workload
// analyzes: 16 functions, 256 regions, and with the 24-run sweep 6 144
// TotalTiming, 14 400 TypedTiming and 8 640 CallTiming rows.
func datasetWorkload() *apprentice.Workload { return apprentice.ScaledStencil(15, 16) }

// generate simulates the dataset for a seed and writes it as an Apprentice
// summary file — the only thing a child process is ever given. It returns
// the time Simulate took.
func generate(w *apprentice.Workload, pes []int, seed int64, path string) (simulateS float64, err error) {
	t0 := time.Now()
	ds, err := apprentice.Simulate(w, apprentice.PartitionSweep(pes...), seed)
	if err != nil {
		return 0, err
	}
	simulateS = time.Since(t0).Seconds()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	if err := apprentice.WriteSummary(f, ds); err != nil {
		f.Close()
		return 0, fmt.Errorf("writing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return simulateS, os.Rename(tmp, path)
}
