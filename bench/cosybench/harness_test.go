package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/apprentice"
	"repro/internal/core"
)

// smallData writes the small dataset the tests run on and reads it back the
// way a child does.
func smallData(t *testing.T) *loaded {
	t.Helper()
	path := filepath.Join(t.TempDir(), "particles.apr")
	if _, err := generate(apprentice.Particles(), []int{2, 8, 32}, 42, path); err != nil {
		t.Fatal(err)
	}
	data, err := loadData(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// The timing executor must leave the program it measures unchanged: the same
// number of wire requests per analysis and the same report as the bare pool.
// Otherwise the trace describes a different program.
func TestTimedExecLeavesExecutionUnchanged(t *testing.T) {
	data := smallData(t)
	spec, _ := findWorkload("warm_wire")
	const analyses = 5
	run := func(tr *tracer) (requestsPerOp float64, report string) {
		s, err := newStack(spec, data, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		before, err := s.counters()
		if err != nil {
			t.Fatal(err)
		}
		var rep *core.Report
		for range analyses {
			if rep, err = s.analyzer.AnalyzeSQL(data.lastRun(), s.q); err != nil {
				t.Fatal(err)
			}
		}
		after, err := s.counters()
		if err != nil {
			t.Fatal(err)
		}
		return float64(after.server.Requests-before.server.Requests) / analyses, rep.Render()
	}
	bareRequests, bareReport := run(nil)
	tr := newTracer(keepOps)
	tracedRequests, tracedReport := run(tr)
	if bareRequests != tracedRequests {
		t.Errorf("requests per analysis: %v bare, %v behind timedExec", bareRequests, tracedRequests)
	}
	if bareReport != tracedReport {
		t.Errorf("report differs behind timedExec:\n%s\nvs\n%s", bareReport, tracedReport)
	}
	batches := 0
	for _, s := range tr.spans {
		if s.Name == spanBatch {
			batches++
		}
	}
	if batches == 0 {
		t.Error("timedExec recorded no batch span: core did not take the batched path through it")
	}
}

// Every workload end to end, in process: an untraced round whose ops all pass
// their check, and a traced round that measures every per-layer metric.
func TestEveryWorkloadRoundAndTracedPass(t *testing.T) {
	data := smallData(t)
	for _, spec := range workloads {
		t.Run(spec.Name, func(t *testing.T) {
			cfg := childConfig{Workload: spec.Name, Window: 50 * time.Millisecond, MinOps: 4,
				TraceOut: filepath.Join(t.TempDir(), "trace.json")}
			clock := &setupClock{}
			res, err := untracedRound(spec, data, cfg, clock)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || len(res.LatMS) < cfg.MinOps || res.Attempted != len(res.LatMS) {
				t.Fatalf("untraced round: %d attempted, %d failed, %d samples: %v", res.Attempted, res.Failed, len(res.LatMS), res.Failures)
			}
			if res.SetupS <= 0 || res.CPUMS <= 0 || res.AllocKB <= 0 || res.WindowS <= 0 || res.HostSpeed <= 0 {
				t.Errorf("untraced round left a cost unmeasured: %+v", res)
			}
			if len(res.ClockedMS) != len(res.LatMS) || res.ClockedWindowS <= 0 || res.ClockedSetupS <= 0 {
				t.Errorf("untraced round did not keep what the clock read: %+v", res)
			}
			traced, err := tracedRound(spec, data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 {
				t.Fatalf("traced round: %v", traced.Failures)
			}
			traced.Layers["apprentice.simulate_s"] = 1 // the parent's to fill in
			if _, err := toDriverMetrics(perLayer, traced.Layers); err != nil {
				t.Error(err)
			}
			if traced.Layers["core.exec_calls_per_op"] <= 0 || traced.Layers["sqldb.exec_ms_per_op"] <= 0 {
				t.Errorf("traced round attributed nothing: %v", traced.Layers)
			}
			if wire := traced.Layers["wire.bytes_per_op"]; (wire > 0) != spec.Wire {
				t.Errorf("wire.bytes_per_op = %v on a workload with Wire=%v", wire, spec.Wire)
			}
			var tf traceFile
			b, err := os.ReadFile(cfg.TraceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &tf); err != nil || len(tf.Spans) == 0 || len(tf.Statements) == 0 {
				t.Errorf("trace file: %v, %d spans, %d statements", err, len(tf.Spans), len(tf.Statements))
			}
		})
	}
}

// The tuning cycle's check must tell a stale report from a fresh one: a
// report over doubled timings that equals the reference is a failure.
func TestTuningCycleCheckRejectsStaleReport(t *testing.T) {
	data := smallData(t)
	spec, _ := findWorkload("tuning_cycle_dml")
	s, err := newStack(spec, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := s.prepareChecks(); err != nil {
		t.Fatal(err)
	}
	out, err := s.op(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !out.doubled {
		t.Fatal("first op after an even warm-up should leave the timings doubled")
	}
	if err := s.check(out); err != nil {
		t.Errorf("fresh doubled report rejected: %v", err)
	}
	stale := out
	stale.rep = s.refs[out.run]
	if err := s.check(stale); err == nil {
		t.Error("reference report served for doubled timings passed the check")
	}
	restored, err := s.op(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.check(restored); err != nil {
		t.Errorf("restored report differs from the reference: %v", err)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanAnalyze, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanBatch, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: spanBatch, Start: 50, End: 70},
		{ID: 4, Name: spanAnalyze, Start: 100, End: 130},
	}
	got := selfTimes(spans, spanAnalyze)
	if len(got) != 2 || got[0] != 50 || got[1] != 30 {
		t.Errorf("self times %v, want [50 30]", got)
	}
}

// BENCHMARK.json states the workload and metric tables for the driver; they
// must be the tables the harness reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, harness has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	compare := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s metric %d: %+v, harness has %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.Bound) {
				t.Errorf("%s metric %s: bound %v, harness has %v", kind, m.Name, g.Bound, m.Bound)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}
