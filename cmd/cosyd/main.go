// Command cosyd runs the COSY analyzer as a resident multi-tenant service:
// it loads one dataset once, then serves analyze-run requests over TCP until
// shut down. Clients (see cmd/loadgen, or internal/service.Client) share the
// loaded database; per-tenant admission control bounds and fair-shares the
// concurrent analyses, and request deadlines cancel abandoned work down
// through every layer.
//
// The backing database is in-process by default; -db points the service at
// one or more kojakdb servers instead (comma-separated addresses are the
// shards of a run-partitioned database, exactly as in cosy).
//
// Usage:
//
//	cosyd -addr 127.0.0.1:7075 -workload particles
//	cosyd -addr 127.0.0.1:7075 -workload particles -capacity 8 -tenants sweep:1:4,interactive:4:0
//	cosyd -addr 127.0.0.1:7075 -db 127.0.0.1:7070,127.0.0.1:7071 -preloaded
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/deploy"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7075", "listen address")
	in := flag.String("in", "", "Apprentice summary file (overrides -workload)")
	workload := flag.String("workload", "stencil2d", "library workload to simulate when no -in file is given")
	dbAddr := flag.String("db", "", "kojakdb address(es) backing the service, comma-separated for a sharded database; empty runs in process")
	preloaded := flag.Bool("preloaded", false, "assume the -db servers already hold the dataset; skip schema creation and loading")
	capacity := flag.Int("capacity", runtime.GOMAXPROCS(0), "concurrent analyses admitted; further requests queue")
	maxQueue := flag.Int("max-queue", 0, "queued requests beyond which new ones are rejected; 0 means unbounded")
	tenants := flag.String("tenants", "", "per-tenant admission policies as name:weight:maxinflight[,...]; weight scales the tenant's fair share, maxinflight 0 means uncapped")
	workers := flag.Int("workers", 0, "evaluation workers per analysis; omit for GOMAXPROCS")
	batchSize := flag.Int("batchsize", 0, "above 1: evaluate each property by one set-form statement, and ship per-context fallbacks in batches of this many; 1 executes per instance; omit for the default")
	threshold := flag.Float64("threshold", 0, "performance-problem severity threshold; omit for the default")
	verbose := flag.Bool("v", false, "log connection errors")
	drain := flag.Duration("drain", 5*time.Second, "how long a SIGINT/SIGTERM shutdown waits for clients to drain before force-closing them")
	metricsAddr := flag.String("metrics-addr", "", "address serving GET /metrics and GET /healthz over HTTP; empty disables the endpoint")
	flag.Parse()

	switch {
	case flag.NArg() > 0:
		usageError("unexpected arguments: %v", flag.Args())
	case *addr == "":
		usageError("-addr must not be empty")
	case *capacity < 1:
		usageError("-capacity must be at least 1, got %d", *capacity)
	case *maxQueue < 0:
		usageError("-max-queue must not be negative, got %d", *maxQueue)
	case *workers < 0:
		usageError("-workers must not be negative, got %d (0 means GOMAXPROCS)", *workers)
	case *batchSize < 0:
		usageError("-batchsize must not be negative, got %d (0 means the default)", *batchSize)
	case *threshold < 0:
		usageError("-threshold must not be negative, got %g", *threshold)
	case *drain < 0:
		usageError("-drain must not be negative, got %v", *drain)
	}
	tenantCfg, err := parseTenants(*tenants)
	if err != nil {
		usageError("%v", err)
	}
	shardAddrs, err := godbc.SplitAddrs(*dbAddr)
	if err != nil {
		usageError("%v", err)
	}
	if *preloaded && len(shardAddrs) == 0 {
		usageError("-preloaded requires -db (the in-process database starts empty)")
	}

	ds, err := deploy.Dataset(*in, *workload)
	if err != nil {
		log.Fatal(err)
	}
	g, err := model.Build(ds)
	if err != nil {
		log.Fatal(err)
	}

	// The executor must be safe for concurrent use: capacity admitted
	// analyses each fan out over the evaluation workers, and every one of
	// those workers may hold a pooled connection.
	q, closeDB, err := deploy.Open(g, shardAddrs, deploy.Conns(*capacity, *workers), *preloaded)
	if err != nil {
		log.Fatal(err)
	}

	svc := service.New(g, q, service.Config{
		Capacity:  *capacity,
		MaxQueue:  *maxQueue,
		Workers:   *workers,
		BatchSize: *batchSize,
		Threshold: *threshold,
		Tenants:   tenantCfg,
	})
	var logger *log.Logger
	if *verbose {
		logger = log.New(os.Stderr, "cosyd: ", log.LstdFlags)
	}
	srv := service.NewServer(svc, logger)
	if err := srv.Listen(*addr); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cosyd: serving %s on %s (capacity %d, %d tenants configured)\n",
		g.Dataset.Program, srv.Addr(), *capacity, len(tenantCfg))
	var metricsSrv interface{ Close() error }
	if *metricsAddr != "" {
		hs, bound, err := srv.ServeMetrics(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		metricsSrv = hs
		fmt.Printf("cosyd: metrics on http://%s/metrics\n", bound)
	}

	// Graceful shutdown on SIGINT/SIGTERM, as kojakdb does: stop accepting,
	// drain in-flight analyses up to -drain, then force-close. A second
	// signal skips the drain.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("cosyd: %v received, draining connections (up to %v; signal again to force)\n", got, *drain)
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(*drain) }()
	select {
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	case got = <-sig:
		fmt.Printf("cosyd: %v received again, closing now\n", got)
		if err := srv.Close(); err != nil {
			log.Fatal(err)
		}
		<-done
	}
	closeDB()
	// The final snapshot is taken only now, strictly after Shutdown (or
	// Close) returned: that return is the drain barrier — every request
	// goroutine has finished its admission release and metrics recording —
	// so these numbers reconcile exactly (nothing in flight, every admitted
	// analysis classified). Snapshotting before the barrier raced the last
	// requests and could under-count.
	snap := srv.MetricsSnapshot()
	st := snap.Admission
	fmt.Printf("cosyd: admission: %d admitted (%d queued first), %d shed, %d rejected\n",
		st.Admitted, st.Queued, st.Shed, st.Rejected)
	if metricsSrv != nil {
		metricsSrv.Close()
	}
}

// parseTenants parses -tenants: comma-separated name:weight:maxinflight
// triples ("sweep:1:4,interactive:4:0").
func parseTenants(list string) (map[string]service.TenantConfig, error) {
	if list == "" {
		return nil, nil
	}
	out := make(map[string]service.TenantConfig)
	for _, item := range strings.Split(list, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) != 3 || parts[0] == "" {
			return nil, fmt.Errorf("cosyd: tenant %q: want name:weight:maxinflight", item)
		}
		weight, err := strconv.ParseFloat(parts[1], 64)
		if err != nil || weight <= 0 {
			return nil, fmt.Errorf("cosyd: tenant %q: weight must be a positive number", item)
		}
		maxInFlight, err := strconv.Atoi(parts[2])
		if err != nil || maxInFlight < 0 {
			return nil, fmt.Errorf("cosyd: tenant %q: maxinflight must be a non-negative integer (0 means uncapped)", item)
		}
		if _, dup := out[parts[0]]; dup {
			return nil, fmt.Errorf("cosyd: tenant %q configured twice", parts[0])
		}
		out[parts[0]] = service.TenantConfig{Weight: weight, MaxInFlight: maxInFlight}
	}
	return out, nil
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cosyd: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run cosyd -h for usage")
	os.Exit(2)
}
