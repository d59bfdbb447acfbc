// Command cosytop renders a cosyd server's /metrics snapshot as a compact
// text view — the operator's glance at a resident service: per-tenant
// admission outcomes and latency percentiles, pool pressure, and the backend
// engine's counters.
//
// One-shot by default; -interval repeats the view (top-style) until
// interrupted or -n iterations have printed.
//
// Usage:
//
//	cosytop -addr 127.0.0.1:9090
//	cosytop -addr 127.0.0.1:9090 -interval 2s
//	cosytop -addr 127.0.0.1:9090 -interval 1s -n 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9090", "cosyd metrics address (host:port)")
	interval := flag.Duration("interval", 0, "refresh interval; 0 prints one snapshot and exits")
	count := flag.Int("n", 0, "with -interval, stop after this many snapshots; 0 means until interrupted")
	flag.Parse()

	switch {
	case flag.NArg() > 0:
		usageError("unexpected arguments: %v", flag.Args())
	case *addr == "":
		usageError("-addr must not be empty")
	case *interval < 0:
		usageError("-interval must not be negative, got %v", *interval)
	case *count < 0:
		usageError("-n must not be negative, got %d", *count)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	printed := 0
	for {
		snap, err := fetch(client, *addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosytop: %v\n", err)
			os.Exit(1)
		}
		if printed > 0 {
			fmt.Println()
		}
		render(os.Stdout, *addr, snap)
		printed++
		if *interval == 0 || (*count > 0 && printed >= *count) {
			return
		}
		time.Sleep(*interval)
	}
}

func fetch(client *http.Client, addr string) (*service.MetricsSnapshot, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	var snap service.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func render(out io.Writer, addr string, snap *service.MetricsSnapshot) {
	state := "serving"
	if snap.Draining {
		state = "draining"
	}
	fmt.Fprintf(out, "cosyd %s  up %s  %s  goroutines %d  conns %d\n",
		addr, (time.Duration(snap.UptimeSeconds * float64(time.Second))).Round(time.Second), state, snap.Goroutines, snap.Conns)
	a := snap.Admission
	fmt.Fprintf(out, "admission  admitted %d (queued %d)  shed %d  rejected %d  in-flight %d  waiting %d\n",
		a.Admitted, a.Queued, a.Shed, a.Rejected, a.InFlight, a.Waiting)

	if len(snap.Tenants) > 0 {
		names := make([]string, 0, len(snap.Tenants))
		for name := range snap.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "TENANT\tADMIT\tQUEUE\tSHED\tREJ\tINFL\tDONE\tCANC\tFAIL\tWAIT p99\tLAT p50\tLAT p99")
		for _, name := range names {
			t := snap.Tenants[name]
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\t%v\t%v\n",
				name, t.Admitted, t.Queued, t.Shed, t.Rejected, t.InFlight,
				t.Completed, t.Canceled, t.Failed,
				time.Duration(t.QueueWait.P99Nanos), time.Duration(t.Latency.P50Nanos), time.Duration(t.Latency.P99Nanos))
		}
		w.Flush()
	}

	for i, p := range snap.Pools {
		fmt.Fprintf(out, "pool %d  %s  %d/%d in use (%d idle)  %d checkouts (%d dialed, %d discarded)  wait p99 %v\n",
			i, p.Addr, p.InUse, p.Capacity, p.Idle, p.Checkouts, p.Dialed, p.Discarded,
			time.Duration(p.CheckoutWait.P99Nanos))
	}
	if b := snap.Backend; b != nil {
		fmt.Fprintf(out, "backend  vec %d (fallback %d)  plan cache %d/%d hit  %d requests  vendor cost %v\n",
			b.VecSelects, b.VecFallbacks, b.PlanCacheHits, b.PlanCacheHits+b.PlanCacheMisses,
			b.Requests, time.Duration(b.VendorNanos).Round(time.Millisecond))
		if r := b.VecFallbackReasons; b.VecFallbacks > 0 {
			fmt.Fprintf(out, "backend  fallback reasons  star %d  order-by-expr %d  subquery %d  other %d\n",
				r.Star, r.OrderExpr, r.Subquery, r.Other)
		}
		fmt.Fprintf(out, "backend  prepared %d live (%d replans)  %d batches carrying %d bindings\n",
			b.PreparedLive, b.Replans, b.BatchExecs, b.BatchBindings)
		fmt.Fprintf(out, "cache  %d hits  %d misses  %d invalidations  %d evictions  %d entries\n",
			b.ResultCacheHits, b.ResultCacheMisses, b.ResultCacheInvalidations, b.ResultCacheEvictions, b.ResultCacheEntries)
	}
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cosytop: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run cosytop -h for usage")
	os.Exit(2)
}
