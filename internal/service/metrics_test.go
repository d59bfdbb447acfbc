package service_test

// Tests for the observability endpoint: the /metrics document must reconcile
// with what clients measured, /healthz must flip on drain, and a snapshot
// taken after Shutdown returns must account for every admitted analysis —
// the drain-barrier guarantee cmd/cosyd's final report depends on.

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/godbc"
	"repro/internal/service"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

// startMetricsService is startService also serving the observability endpoint,
// returning the server and both addresses.
func startMetricsService(t testing.TB, profile wire.Profile, cfg service.Config) (*service.Server, string, string) {
	t.Helper()
	g := buildGraph(t)
	conns := cfg.Capacity * 2
	if conns < 4 {
		conns = 4
	}
	pool := startWirePool(t, g, profile, conns)
	svc := service.New(g, pool, cfg)
	srv := service.NewServer(svc, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs, maddr, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })
	return srv, srv.Addr(), maddr
}

// scrapeJSON fetches and decodes GET /metrics.
func scrapeJSON(t testing.TB, maddr string) service.MetricsSnapshot {
	t.Helper()
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	var snap service.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	return snap
}

// TestMetricsReconcileWithClientCounts drives concurrent tenants through a
// live server, scrapes /metrics while requests are in flight, and checks the
// settled endpoint counters against the client-side outcome counts.
func TestMetricsReconcileWithClientCounts(t *testing.T) {
	testutil.CheckGoroutines(t)
	const tenants, perTenant = 3, 4
	_, addr, maddr := startMetricsService(t, wire.ProfileFast, service.Config{Capacity: 2})

	var (
		mu        sync.Mutex
		completed = make(map[string]int)
	)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		c := dialClient(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perTenant; j++ {
				if _, err := c.Analyze(context.Background(), tenant, 0); err != nil {
					t.Errorf("%s: analyze: %v", tenant, err)
					return
				}
				mu.Lock()
				completed[tenant]++
				mu.Unlock()
			}
		}()
	}

	// A scrape against live load must answer, and what it reports must never
	// exceed what has been admitted so far.
	live := scrapeJSON(t, maddr)
	if live.Goroutines <= 0 {
		t.Errorf("live scrape reports %d goroutines", live.Goroutines)
	}
	for name, ts := range live.Tenants {
		if ts.Completed+ts.Canceled+ts.Failed+ts.InFlight > ts.Admitted+1 {
			t.Errorf("live scrape: tenant %s outcomes exceed admissions: %+v", name, ts)
		}
	}

	wg.Wait()
	snap := scrapeJSON(t, maddr)
	if got := len(snap.Tenants); got != tenants {
		t.Fatalf("got %d tenants in snapshot, want %d", got, tenants)
	}
	var total int64
	for name, want := range completed {
		ts, ok := snap.Tenants[name]
		if !ok {
			t.Fatalf("tenant %s missing from snapshot", name)
		}
		if ts.Completed != int64(want) || ts.Admitted != int64(want) {
			t.Errorf("tenant %s: admitted %d completed %d, client counted %d", name, ts.Admitted, ts.Completed, want)
		}
		if ts.InFlight != 0 || ts.Canceled != 0 || ts.Failed != 0 || ts.Rejected != 0 {
			t.Errorf("tenant %s: unexpected non-completed outcomes: %+v", name, ts)
		}
		if ts.Latency.Count != int64(want) {
			t.Errorf("tenant %s: latency histogram holds %d observations, want %d", name, ts.Latency.Count, want)
		}
		if ts.Latency.P50Nanos <= 0 || ts.Latency.P99Nanos < ts.Latency.P50Nanos {
			t.Errorf("tenant %s: implausible percentiles p50=%d p99=%d", name, ts.Latency.P50Nanos, ts.Latency.P99Nanos)
		}
		if ts.QueueWait.Count != ts.Admitted {
			t.Errorf("tenant %s: queue-wait histogram holds %d observations, want %d", name, ts.QueueWait.Count, ts.Admitted)
		}
		total += ts.Admitted
	}
	if snap.Admission.Admitted != total {
		t.Errorf("admission total %d != per-tenant sum %d", snap.Admission.Admitted, total)
	}
	if snap.Admission.InFlight != 0 || snap.Admission.Waiting != 0 {
		t.Errorf("settled snapshot still reports occupancy: %+v", snap.Admission)
	}
	// The wire-backed executor contributes the pool and backend sections.
	if len(snap.Pools) != 1 {
		t.Fatalf("got %d pool sections, want 1", len(snap.Pools))
	}
	if p := snap.Pools[0]; p.Checkouts == 0 || p.CheckoutWait.Count != p.Checkouts {
		t.Errorf("pool section does not reconcile: %+v", p)
	}
	if snap.Backend == nil {
		t.Fatal("backend section missing from a wire-backed service")
	}
	// The backend section is the engine's whole snapshot plus the server's
	// own counters: the analyses ran as prepared batches, and the repeats
	// were answered from the result cache.
	if b := snap.Backend; b.Requests == 0 || b.BatchExecs == 0 || b.PreparedLive == 0 || b.ResultCacheHits == 0 {
		t.Errorf("backend section is empty: %+v", b)
	}
}

// TestMetricsBackendKeys pins the key set of the /metrics "backend" section:
// it is the JSON of sqldb.Stats plus the wire server's two counters, so a
// field renamed or retagged there changes what operators and scrapers read.
// Such a change must show up here as a deliberate diff.
func TestMetricsBackendKeys(t *testing.T) {
	_, _, maddr := startMetricsService(t, wire.ProfileFast, service.Config{Capacity: 1})
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Backend map[string]json.RawMessage `json:"backend"`
		Cache   json.RawMessage            `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Cache != nil {
		t.Error(`/metrics still has a "cache" section; the result-cache counters live in "backend"`)
	}
	keys := func(m map[string]json.RawMessage) []string { return slices.Sorted(maps.Keys(m)) }
	want := []string{
		"batch_bindings", "batch_execs", "build_rows",
		"plan_cache_entries", "plan_cache_evictions", "plan_cache_hits", "plan_cache_misses",
		"prepared_live", "replans", "requests",
		"result_cache_entries", "result_cache_evictions", "result_cache_hits",
		"result_cache_invalidations", "result_cache_misses", "shared_builds",
		"vec_fallback_reasons", "vec_fallbacks", "vec_selects", "vendor_ns",
	}
	if got := keys(doc.Backend); !slices.Equal(got, want) {
		t.Errorf("backend keys:\n got %v\nwant %v", got, want)
	}
	var reasons map[string]json.RawMessage
	if err := json.Unmarshal(doc.Backend["vec_fallback_reasons"], &reasons); err != nil {
		t.Fatal(err)
	}
	if got, want := keys(reasons), []string{"order_expr", "other", "star", "subquery"}; !slices.Equal(got, want) {
		t.Errorf("vec_fallback_reasons keys:\n got %v\nwant %v", got, want)
	}
}

// TestMetricsAnalyzerSetFallbacks: the "analyzer" section counts the
// properties whose set-form statement had to be redone per context, and names
// the last. On clean data it reads zero; once a region has two summaries for
// the analyzed run, every analysis adds the three properties that read
// Summary(r, t).
func TestMetricsAnalyzerSetFallbacks(t *testing.T) {
	g := buildGraph(t)
	db := loadEmbedded(t, g)
	svc := service.New(g, godbc.Embedded{DB: db}, service.Config{Capacity: 1, Workers: 1})
	srv := service.NewServer(svc, nil)
	hs, maddr, err := srv.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hs.Close() })

	if _, err := svc.Analyze(context.Background(), "alice", 0); err != nil {
		t.Fatal(err)
	}
	if a := scrapeJSON(t, maddr).Analyzer; a.SetFallbacks != 0 || a.LastSetFallback != "" {
		t.Fatalf("clean data: analyzer section %+v, want zero", a)
	}

	// A second TotalTiming row of the largest run for a non-basis region.
	run := g.Runs[g.Dataset.Run(0)]
	region := g.OrderedRegions[len(g.OrderedRegions)-1]
	const id = 1 << 40
	for sql, vals := range map[string][]sqldb.Value{
		`INSERT INTO TotalTiming (id, Run_id, Excl, Incl, Ovhd) VALUES (?, ?, 1.0, 2.0, 0.5)`: {sqldb.NewInt(id), sqldb.NewInt(run.ID)},
		`INSERT INTO Region_TotTimes (owner_id, elem_id) VALUES (?, ?)`:                       {sqldb.NewInt(region.ID), sqldb.NewInt(id)},
	} {
		if _, err := db.Exec(sql, &sqldb.Params{Positional: vals}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 2; i++ {
		rep, err := svc.Analyze(context.Background(), "alice", 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Diagnostics) != 3 {
			t.Fatalf("analysis %d over the duplicated summary: %d diagnostics\n%s", i, len(rep.Diagnostics), rep.Render())
		}
		a := scrapeJSON(t, maddr).Analyzer
		if a.SetFallbacks != int64(3*i) || a.LastSetFallback != "UnmeasuredCost" {
			t.Errorf("after %d analyses: analyzer section %+v, want %d fallbacks, last UnmeasuredCost", i, a, 3*i)
		}
	}

	// The key names are what operators and scrapers read.
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Analyzer map[string]json.RawMessage `json:"analyzer"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(doc.Analyzer)), []string{"last_set_fallback", "set_fallbacks"}; !slices.Equal(got, want) {
		t.Errorf("analyzer keys: got %v, want %v", got, want)
	}
}

// TestHealthzDrainTransition checks that /healthz flips from 200 to 503 the
// moment shutdown begins, and that the observability endpoint keeps answering
// after the analysis listener closed.
func TestHealthzDrainTransition(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv, _, maddr := startMetricsService(t, wire.ProfileFast, service.Config{Capacity: 1})

	status := func() (int, string) {
		resp, err := http.Get("http://" + maddr + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body.Status
	}

	if code, s := status(); code != http.StatusOK || s != "ok" {
		t.Fatalf("before shutdown: got %d %q, want 200 ok", code, s)
	}
	if err := srv.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	if code, s := status(); code != http.StatusServiceUnavailable || s != "draining" {
		t.Fatalf("after shutdown: got %d %q, want 503 draining", code, s)
	}
	if snap := scrapeJSON(t, maddr); !snap.Draining {
		t.Error("post-shutdown snapshot does not report draining")
	}
}

// TestShutdownSnapshotAfterDrainBarrier is the regression test for the final
// report's ordering: a snapshot taken after Shutdown returns must account for
// every admitted analysis, even when shutdown raced in-flight requests.
func TestShutdownSnapshotAfterDrainBarrier(t *testing.T) {
	testutil.CheckGoroutines(t)
	const tenants, perTenant = 2, 3
	srv, addr, _ := startMetricsService(t, wire.ProfileFast, service.Config{Capacity: 1})

	clients := make([]*service.Client, tenants)
	var wg sync.WaitGroup
	started := make(chan struct{}, tenants*perTenant)
	for i := 0; i < tenants; i++ {
		c := dialClient(t, addr)
		clients[i] = c
		// Ping so the server has accepted this connection: Shutdown closes
		// the listener, and a connection still in the accept backlog would be
		// cut off rather than drained.
		if err := c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
		tenant := fmt.Sprintf("tenant-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perTenant; j++ {
				started <- struct{}{}
				if _, err := c.Analyze(context.Background(), tenant, 0); err != nil {
					t.Errorf("%s: analyze: %v", tenant, err)
					return
				}
			}
		}()
	}
	// Begin the drain while requests are demonstrably in flight: the closed
	// listener must not cut them off, and the snapshot below must still see
	// all of them.
	<-started
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(5 * time.Second) }()
	wg.Wait()
	for _, c := range clients {
		c.Close() // drain completes when the clients disconnect
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	snap := srv.MetricsSnapshot()
	if !snap.Draining {
		t.Error("post-drain snapshot does not report draining")
	}
	if snap.Conns != 0 {
		t.Errorf("post-drain snapshot reports %d connections, want 0", snap.Conns)
	}
	if snap.Admission.InFlight != 0 || snap.Admission.Waiting != 0 {
		t.Errorf("post-drain snapshot reports occupancy: %+v", snap.Admission)
	}
	var admitted, classified int64
	for name, ts := range snap.Tenants {
		if ts.InFlight != 0 {
			t.Errorf("tenant %s still in flight after the drain barrier", name)
		}
		if got := ts.Completed + ts.Canceled + ts.Failed; got != ts.Admitted {
			t.Errorf("tenant %s: %d admitted but %d classified", name, ts.Admitted, got)
		}
		admitted += ts.Admitted
		classified += ts.Completed + ts.Canceled + ts.Failed
	}
	if admitted != tenants*perTenant {
		t.Errorf("admitted %d analyses, want %d", admitted, tenants*perTenant)
	}
	if snap.Admission.Admitted != admitted {
		t.Errorf("admission controller admitted %d, tenant metrics admitted %d", snap.Admission.Admitted, admitted)
	}
}
