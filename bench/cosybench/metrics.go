package main

// The benchmark's dictionary: workloads, end-to-end metrics with their
// regression bounds, and per-layer metrics. BENCHMARK.json at the repository
// root states the same tables for the driver; TestBenchmarkJSONMatches keeps
// the two from drifting.

// workloadSpec describes one workload: which layers one op crosses and how
// many closed-loop clients issue ops.
type workloadSpec struct {
	Name string
	Why  string
	// Clients is the number of closed-loop client goroutines; never more
	// than the 2 vCPUs of the reference host.
	Clients int
	// CacheOn selects the engine's result cache at its default size; off
	// means SetResultCacheSize(0).
	CacheOn bool
	// Wire puts godbc.Pool -> wire.Server between core and the engine;
	// Remote selects wire.ProfileOracleRemote (2 ms slept round trip)
	// instead of wire.ProfileFast.
	Wire, Remote bool
	// Service fronts the pool with service.Server and drives it through
	// service.Client, one tenant per client.
	Service bool
}

var workloads = []workloadSpec{
	{
		Name:    "cold_embedded",
		Why:     "cache-off analyses on the embedded engine: sqldb planning and vectorized execution dominate; wire, pool and service are bypassed",
		Clients: 1,
	},
	{
		Name:    "warm_wire",
		Why:     "cache-hit analyses through pool and fast wire: gob codec, driver and allocation dominate; the engine is bypassed",
		Clients: 1, CacheOn: true, Wire: true,
	},
	{
		Name:    "tuning_cycle_dml",
		Why:     "UPDATE, DELETE and 360 row INSERTs over the wire, then a part-miss analysis: writes and invalidation beside reads",
		Clients: 1, CacheOn: true, Wire: true,
	},
	{
		Name:    "service_remote",
		Why:     "two tenants through cosyd's service over the 2 ms oracle-remote wire: latency-bound; round trips and admission dominate",
		Clients: 2, CacheOn: true, Wire: true, Remote: true, Service: true,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec names one metric. Bound is the share of the reference median by
// which an end-to-end metric may worsen before a change is a regression;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of the system sees, measured with tracing off;
// its times are at reference speed (calib.go).
// The ratio of failed to attempted ops is reported through the result's
// attempted/failed counts instead of as a metric: it is 0 on every accepted
// run, and a metric that is always 0 has no relative bound.
var endToEnd = []metricSpec{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer lists the traced pass's attribution, one group per module of the
// repository. bench/README.md says which end-to-end metric each should move
// on which workload.
var perLayer = []metricSpec{
	{"apprentice.simulate_s", "s", "lower", 0},
	{"apprentice.read_summary_ms", "ms", "lower", 0},
	{"model.build_ms", "ms", "lower", 0},
	{"asl.parse_check_us", "us", "lower", 0},
	{"sqlgen.compile_us_per_prop", "us", "lower", 0},
	{"sqlgen.render_us_per_prop", "us", "lower", 0},
	{"sqlgen.load_ms", "ms", "lower", 0},
	{"sqlgen.load_stmts", "count", "lower", 0},
	{"core.self_ms_per_op", "ms", "lower", 0},
	{"core.exec_calls_per_op", "count", "lower", 0},
	{"core.bindings_per_op", "count", "lower", 0},
	{"core.object_analyze_us", "us", "lower", 0},
	{"godbc.call_ms_per_op", "ms", "lower", 0},
	{"godbc.self_ms_per_op", "ms", "lower", 0},
	{"godbc.pool_checkouts_per_op", "count", "lower", 0},
	{"godbc.pool_wait_ms_per_op", "ms", "lower", 0},
	{"godbc.update_ms", "ms", "lower", 0},
	{"godbc.delete_ms", "ms", "lower", 0},
	{"godbc.insert_us_per_row", "us", "lower", 0},
	{"wire.requests_per_op", "count", "lower", 0},
	{"wire.bytes_per_op", "B", "lower", 0},
	{"wire.encode_ms_per_op", "ms", "lower", 0},
	{"wire.decode_ms_per_op", "ms", "lower", 0},
	{"wire.vendor_delay_ms_per_op", "ms", "lower", 0},
	{"sqldb.prepare_us_per_stmt", "us", "lower", 0},
	{"sqldb.exec_ms_per_op", "ms", "lower", 0},
	{"sqldb.vec_selects_per_op", "count", "lower", 0},
	{"sqldb.vec_fallbacks_per_op", "count", "lower", 0},
	{"sqldb.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"sqldb.cache_hit_ratio", "ratio", "higher", 0},
	{"sqldb.cache_invalidations_per_op", "count", "lower", 0},
	{"sqldb.cache_evictions_per_op", "count", "lower", 0},
	{"sqldb.update_ms", "ms", "lower", 0},
	{"sqldb.delete_ms", "ms", "lower", 0},
	{"sqldb.insert_us_per_row", "us", "lower", 0},
	{"service.rpc_overhead_ms_per_op", "ms", "lower", 0},
	{"service.queue_wait_ms_p50", "ms", "lower", 0},
	{"service.queued_ratio", "ratio", "lower", 0},
	{"service.shed", "count", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.gc_cycles_per_op", "count", "lower", 0},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}
