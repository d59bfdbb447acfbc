package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/asl/parser"
	"repro/internal/asl/sem"
	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// The traced pass. End-to-end metrics are measured with tracing off (see
// untracedRound); this pass attributes one workload's op to the layers,
// with three instruments, all driven from here:
//
//	(a) spans from timedExec and the harness's own calls (trace.go);
//	(b) replay of recorded ops straight against lower boundaries — the
//	    engine and the wire codec (replay.go);
//	(c) counter deltas over the traced window, from the counters the layers
//	    already export.

// keepOps is how many ops' executor calls are kept for replay. It is a
// multiple of 4: cold_embedded cycles 4 runs, the tuning cycle restores its
// data every second op, and the service pairs one remote with one in-process
// analysis.
const keepOps = 4

// pairedAnalyses is how many (Client.Analyze, Service.Analyze) pairs the
// service workload times one caller at a time.
const pairedAnalyses = 12

// counters snapshots what the layers export.
type counters struct {
	db     sqldb.Stats
	pool   godbc.PoolStats
	server godbc.ServerStats
	svc    service.MetricsSnapshot
	// fetches is how many times the harness has asked the wire server for
	// its counters, this snapshot's own request included: each was a
	// request and a pool checkout that no op made.
	fetches int64
}

func (s *stack) counters() (counters, error) {
	c := counters{db: s.db.Stats()}
	if s.pool != nil {
		var err error
		if c.server, err = s.serverStats(); err != nil {
			return c, err
		}
		c.pool, c.fetches = s.pool.Metrics(), s.statsFetches
	}
	if s.svc != nil {
		c.svc = s.svc.MetricsSnapshot()
	}
	return c, nil
}

func tracedRound(spec workloadSpec, data *loaded, cfg childConfig) (roundResult, error) {
	// A layer the workload does not cross reads 0.
	layers := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		layers[m.Name] = 0
	}
	layers["apprentice.read_summary_ms"] = data.readSummaryMS
	layers["model.build_ms"] = data.buildMS
	if err := frontEndTimings(data, layers); err != nil {
		return roundResult{}, err
	}
	res := roundResult{Workload: spec.Name, Layers: layers}

	plain, err := newStack(spec, data, nil)
	if err != nil {
		return res, err
	}
	defer plain.close()
	tr := newTracer(keepOps)
	s, err := newStack(spec, data, tr)
	if err != nil {
		return res, err
	}
	defer s.close()
	layers["sqlgen.load_ms"] = s.loadMS
	layers["sqlgen.load_stmts"] = float64(s.loadStmts)
	for _, st := range []*stack{plain, s} {
		if err := st.prepareChecks(); err != nil {
			return res, err
		}
	}
	before, err := s.counters()
	if err != nil {
		return res, err
	}
	from := tr.mark()
	// The two deployments take turns, traceSlice at a time, so that a slow
	// spell of the host lands on both: their medians then differ by what
	// tracing costs, not by when each happened to run.
	var untraced, traced roundResult
	slice := min(traceSlice, cfg.Window)
	for spent := time.Duration(0); spent < cfg.Window; spent += slice {
		for _, turn := range []struct {
			st  *stack
			sum *roundResult
		}{{plain, &untraced}, {s, &traced}} {
			w, err := turn.st.measure(slice, 0, warmupOps+turn.sum.Attempted)
			if err != nil {
				return res, err
			}
			turn.sum.add(w)
		}
	}
	to := tr.mark()
	after, err := s.counters()
	if err != nil {
		return res, err
	}
	for _, st := range []*stack{plain, s} {
		if err := st.invariants(); err != nil {
			return res, err
		}
	}
	res.Attempted = untraced.Attempted + traced.Attempted
	res.Failed = untraced.Failed + traced.Failed
	res.Failures = append(untraced.Failures, traced.Failures...)
	if len(untraced.LatMS) == 0 || len(traced.LatMS) == 0 {
		return res, fmt.Errorf("traced pass: no op completed (%v)", res.Failures)
	}
	p50 := median(untraced.LatMS)
	layers["trace.overhead_pct"] = (median(traced.LatMS) - p50) / p50 * 100

	ops := float64(traced.Attempted)
	windowSpans := tr.spans[from:to]
	spanMetrics(windowSpans, ops, layers)
	counterMetrics(before, after, ops, layers)
	layers["runtime.allocs_per_op"] = float64(traced.mallocs) / ops
	layers["runtime.gc_cycles_per_op"] = float64(traced.gcCycles) / ops
	layers["runtime.gc_pause_ms_per_op"] = traced.gcPauseMS / ops
	if spec.Service {
		if err := s.pairedAnalyses(layers, &res); err != nil {
			return res, err
		}
	} else {
		layers["core.self_ms_per_op"] = ms(meanDur(selfTimes(windowSpans, spanAnalyze)))
	}
	if err := replay(spec, data.graph, tr.calls, layers); err != nil {
		return res, err
	}
	// What godbc adds between core and the engine exists only behind the
	// wire. The calls were timed in the traced window and the replays
	// afterwards on another engine, so noise can carry the difference below
	// zero; a layer's cost is never negative.
	if spec.Wire {
		layers["godbc.self_ms_per_op"] = max(0, layers["godbc.call_ms_per_op"]-layers["sqldb.exec_ms_per_op"]-
			layers["wire.encode_ms_per_op"]-layers["wire.decode_ms_per_op"]-layers["wire.vendor_delay_ms_per_op"])
	}
	if cfg.TraceOut != "" {
		if err := tr.write(cfg.TraceOut, spec.Name); err != nil {
			return res, err
		}
	}
	return res, nil
}

// traceSlice is how long the traced and the untraced deployment each measure
// before the other takes its turn.
const traceSlice = 500 * time.Millisecond

// add folds another window on the same stack into r.
func (r *roundResult) add(w roundResult) {
	r.LatMS = append(r.LatMS, w.LatMS...)
	r.WindowS += w.WindowS
	r.CPUMS += w.CPUMS
	r.AllocKB += w.AllocKB
	r.Attempted += w.Attempted
	r.Failed += w.Failed
	r.Failures = append(r.Failures, w.Failures...)
	r.mallocs += w.mallocs
	r.gcCycles += w.gcCycles
	r.gcPauseMS += w.gcPauseMS
}

// frontEndTimings times the layers in front of any database, which cost the
// same on every workload: the ASL front end on the canonical specification,
// property compilation and rendering, and the interpreter's own analysis.
func frontEndTimings(data *loaded, layers map[string]float64) error {
	const reps = 5
	var parse, compile, render, object []float64
	for range reps {
		t0 := time.Now()
		spec, err := parser.Parse(model.SpecSource)
		if err != nil {
			return err
		}
		if _, err := sem.Check(spec); err != nil {
			return err
		}
		parse = append(parse, us(time.Since(t0)))

		var c, r time.Duration
		for _, prop := range model.AllProperties {
			t0 := time.Now()
			cp, err := sqlgen.CompileProperty(data.graph.World, prop)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := cp.Render(build.Kojakdb.Name); err != nil {
				return err
			}
			c += t1.Sub(t0)
			r += time.Since(t1)
		}
		n := time.Duration(len(model.AllProperties))
		compile = append(compile, us(c/n))
		render = append(render, us(r/n))
	}
	a := newAnalyzer(data)
	for range 3 {
		t0 := time.Now()
		if _, err := a.AnalyzeObject(data.lastRun()); err != nil {
			return err
		}
		object = append(object, us(time.Since(t0)))
	}
	layers["asl.parse_check_us"] = median(parse)
	layers["sqlgen.compile_us_per_prop"] = median(compile)
	layers["sqlgen.render_us_per_prop"] = median(render)
	layers["core.object_analyze_us"] = median(object)
	return nil
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// spanMetrics turns the traced window's executor spans into per-op numbers.
func spanMetrics(spans []span, ops float64, layers map[string]float64) {
	var calls, bindings float64
	var total time.Duration
	byName := make(map[string][]time.Duration)
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "godbc.") {
			continue
		}
		total += s.dur()
		byName[s.Name] = append(byName[s.Name], s.dur())
		if s.Name != spanPrepare {
			calls++
			bindings += float64(s.Bindings)
		}
	}
	layers["core.exec_calls_per_op"] = calls / ops
	layers["core.bindings_per_op"] = bindings / ops
	layers["godbc.call_ms_per_op"] = ms(total) / ops
	layers["godbc.update_ms"] = ms(meanDur(byName[spanUpdate]))
	layers["godbc.delete_ms"] = ms(meanDur(byName[spanDelete]))
	layers["godbc.insert_us_per_row"] = us(meanDur(byName[spanInsert]))
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterMetrics turns counter deltas over the traced window into per-op
// numbers. A hit ratio reads 0 when there were no lookups at all.
func counterMetrics(a, b counters, ops float64, layers map[string]float64) {
	fetches := b.fetches - a.fetches
	layers["godbc.pool_checkouts_per_op"] = float64(b.pool.Checkouts-a.pool.Checkouts-fetches) / ops
	layers["godbc.pool_wait_ms_per_op"] = float64(b.pool.CheckoutWait.SumNanos-a.pool.CheckoutWait.SumNanos) / 1e6 / ops
	layers["wire.requests_per_op"] = float64(b.server.Requests-a.server.Requests-fetches) / ops
	// The vendor charges a fetch its round trip like any request; the
	// fetches' share of the delay goes by their number.
	if requests := b.server.Requests - a.server.Requests; requests > 0 {
		vendorMS := float64(b.server.VendorNanos-a.server.VendorNanos) / 1e6
		layers["wire.vendor_delay_ms_per_op"] = vendorMS * float64(requests-fetches) / float64(requests) / ops
	}

	layers["sqldb.vec_selects_per_op"] = float64(b.db.VecSelects-a.db.VecSelects) / ops
	layers["sqldb.vec_fallbacks_per_op"] = float64(b.db.VecFallbacks-a.db.VecFallbacks) / ops
	planHits, planMisses := b.db.PlanCacheHits-a.db.PlanCacheHits, b.db.PlanCacheMisses-a.db.PlanCacheMisses
	layers["sqldb.plan_cache_hit_ratio"] = ratio(planHits, planHits+planMisses)
	hits, misses := b.db.ResultCacheHits-a.db.ResultCacheHits, b.db.ResultCacheMisses-a.db.ResultCacheMisses
	layers["sqldb.cache_hit_ratio"] = ratio(hits, hits+misses)
	layers["sqldb.cache_invalidations_per_op"] = float64(b.db.ResultCacheInvalidations-a.db.ResultCacheInvalidations) / ops
	layers["sqldb.cache_evictions_per_op"] = float64(b.db.ResultCacheEvictions-a.db.ResultCacheEvictions) / ops

	var admitted, queued, shed int64
	var waits []float64
	for name, t := range b.svc.Tenants {
		t0 := a.svc.Tenants[name]
		admitted += t.Admitted - t0.Admitted
		queued += t.Queued - t0.Queued
		shed += t.Shed - t0.Shed + t.Rejected - t0.Rejected
		waits = append(waits, float64(t.QueueWait.P50Nanos)/1e6)
	}
	layers["service.queue_wait_ms_p50"] = median(waits)
	layers["service.queued_ratio"] = ratio(queued, admitted)
	layers["service.shed"] = float64(shed)
}

// pairedAnalyses times the service workload one caller at a time: a remote
// Client.Analyze and an in-process Service.Analyze on the same service,
// alternating. With a single request in flight every executor span hangs
// under the right analysis, which the concurrent window cannot offer.
func (s *stack) pairedAnalyses(layers map[string]float64, res *roundResult) error {
	const tenant = "tenant-0"
	from := s.tr.mark()
	var remote, local []float64
	for i := 0; i < pairedAnalyses; i++ {
		s.tr.beginOp(2*i + 1)
		s.tr.push("service.client_analyze")
		t0 := time.Now()
		text, err := s.clients[0].Analyze(context.Background(), tenant, 0)
		remote = append(remote, ms(time.Since(t0)))
		s.tr.pop()
		s.tr.endOp()
		if err == nil {
			err = s.check(outcome{text: text})
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Failures = append(res.Failures, err.Error())
		}

		s.tr.beginOp(2*i + 2)
		s.tr.push("service.analyze")
		t0 = time.Now()
		rep, err := s.svc.Analyze(context.Background(), tenant, 0)
		local = append(local, ms(time.Since(t0)))
		s.tr.pop()
		s.tr.endOp()
		if err == nil {
			err = s.check(outcome{text: rep.Render()})
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			res.Failures = append(res.Failures, err.Error())
		}
	}
	diffs := make([]float64, len(remote))
	for i := range remote {
		diffs[i] = remote[i] - local[i]
	}
	layers["service.rpc_overhead_ms_per_op"] = median(diffs)
	// In-process, what is left of an analysis after its executor calls is
	// admission plus core.
	layers["core.self_ms_per_op"] = ms(meanDur(selfTimes(s.tr.spans[from:s.tr.mark()], "service.analyze")))
	return nil
}
