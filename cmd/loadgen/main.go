// Command loadgen drives a cosyd server with an open-loop request stream and
// reports latency percentiles and sustained throughput — the measurement
// harness of the resident-service experiment (E12 in EXPERIMENTS.md).
//
// Open loop means arrivals are scheduled by a fixed rate, not by completions:
// a slow server does not slow the generator down, it grows the in-flight
// population — exactly how a group of impatient tool users behaves, and the
// regime admission control exists for.
//
// The -min-throughput and -max-p99 flags turn a run into an assertion for CI:
// the exit status is nonzero when the measured values miss them.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:7075 -duration 10s -rate 50 -tenants 8
//	loadgen -addr 127.0.0.1:7075 -duration 10s -rate 50 -deadline 500ms -min-throughput 5 -max-p99 2s
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7075", "cosyd server address")
	duration := flag.Duration("duration", 10*time.Second, "how long to generate load")
	rate := flag.Float64("rate", 20, "request arrivals per second (open loop)")
	tenants := flag.Int("tenants", 1, "synthetic tenants (tenant-0..tenant-N-1, arrivals round-robin)")
	nope := flag.Int("nope", 0, "test run to analyze, by processor count (0 selects the largest)")
	deadline := flag.Duration("deadline", 0, "per-request deadline; 0 means none")
	minThroughput := flag.Float64("min-throughput", 0, "fail (exit 1) when completed analyses/sec fall below this")
	maxP99 := flag.Duration("max-p99", 0, "fail (exit 1) when the p99 latency exceeds this")
	scrape := flag.String("scrape", "", "cosyd metrics address (host:port) to sample during the run; the report then includes the server-side view")
	flag.Parse()

	switch {
	case flag.NArg() > 0:
		usageError("unexpected arguments: %v", flag.Args())
	case *addr == "":
		usageError("-addr must not be empty")
	case *duration <= 0:
		usageError("-duration must be positive, got %v", *duration)
	case *rate <= 0:
		usageError("-rate must be positive, got %g", *rate)
	case *tenants < 1:
		usageError("-tenants must be at least 1, got %d", *tenants)
	case *deadline < 0:
		usageError("-deadline must not be negative, got %v", *deadline)
	}

	// One multiplexed connection per tenant: tenants are independent clients
	// of the shared service, not goroutines sharing one socket's fate.
	clients := make([]*service.Client, *tenants)
	for i := range clients {
		c, err := service.Dial(*addr)
		if err != nil {
			fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		canceled  int
		rejected  int
		failed    int
	)
	record := func(d time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			latencies = append(latencies, d)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled),
			errors.Is(err, service.ErrCanceled):
			canceled++
		case errors.Is(err, service.ErrRejected):
			rejected++
		default:
			failed++
		}
	}

	// The scraper samples /metrics while load is in flight — live scrapes are
	// the point of the endpoint, and the soak gate wants proof they work
	// under load, not only at the end.
	var sampler *scraper
	if *scrape != "" {
		sampler = newScraper(*scrape)
		if _, err := sampler.scrapeOnce(); err != nil {
			fatal(fmt.Errorf("loadgen: scraping %s: %w", *scrape, err))
		}
		sampler.start(2 * time.Second)
	}

	interval := time.Duration(float64(time.Second) / *rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.After(*duration)
	var wg sync.WaitGroup
	start := time.Now()
	offered := 0

launch:
	for {
		select {
		case <-stop:
			break launch
		case <-ticker.C:
			i := offered % *tenants
			offered++
			wg.Add(1)
			go func(c *service.Client, tenant string) {
				defer wg.Done()
				ctx := context.Background()
				if *deadline > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, *deadline)
					defer cancel()
				}
				t0 := time.Now()
				_, err := c.Analyze(ctx, tenant, *nope)
				record(time.Since(t0), err)
			}(clients[i], fmt.Sprintf("tenant-%d", i))
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	completed := len(latencies)
	throughput := float64(completed) / elapsed.Seconds()
	fmt.Printf("loadgen: %d offered in %.1fs (%d tenants, rate %.1f/s)\n", offered, elapsed.Seconds(), *tenants, *rate)
	fmt.Printf("loadgen: %d completed (%.2f analyses/sec), %d canceled, %d rejected, %d failed\n",
		completed, throughput, canceled, rejected, failed)
	if completed > 0 {
		fmt.Printf("loadgen: latency p50 %v, p99 %v, max %v\n",
			percentile(latencies, 0.50), percentile(latencies, 0.99), latencies[completed-1])
	}
	if sampler != nil {
		sampler.stopAndReport()
	}

	ok := true
	if *minThroughput > 0 && throughput < *minThroughput {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: throughput %.2f analyses/sec below the %.2f floor\n", throughput, *minThroughput)
		ok = false
	}
	if *maxP99 > 0 {
		if completed == 0 {
			fmt.Fprintf(os.Stderr, "loadgen: FAIL: no completed analyses to measure p99 against the %v ceiling\n", *maxP99)
			ok = false
		} else if p99 := percentile(latencies, 0.99); p99 > *maxP99 {
			fmt.Fprintf(os.Stderr, "loadgen: FAIL: p99 %v above the %v ceiling\n", p99, *maxP99)
			ok = false
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d requests failed outright\n", failed)
		ok = false
	}
	if !ok {
		os.Exit(1)
	}
}

// scraper samples a cosyd /metrics endpoint in the background while load
// runs, then reports the server-side view next to the client-side one: the
// same analyses as the server counted and timed them. Mid-run samples are
// counted (they prove the endpoint answers under load); the report reads the
// final post-load scrape.
type scraper struct {
	addr    string
	client  *http.Client
	done    chan struct{}
	stopped chan struct{}

	mu      sync.Mutex
	samples int
	errs    int
}

func newScraper(addr string) *scraper {
	return &scraper{
		addr:    addr,
		client:  &http.Client{Timeout: 5 * time.Second},
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
}

// scrapeOnce fetches and decodes one snapshot.
func (s *scraper) scrapeOnce() (*service.MetricsSnapshot, error) {
	resp, err := s.client.Get("http://" + s.addr + "/metrics")
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

// start samples the endpoint every interval until stopAndReport.
func (s *scraper) start(interval time.Duration) {
	go func() {
		defer close(s.stopped)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				_, err := s.scrapeOnce()
				s.mu.Lock()
				if err != nil {
					s.errs++
				} else {
					s.samples++
				}
				s.mu.Unlock()
			}
		}
	}()
}

// stopAndReport ends sampling, takes a final scrape (all client requests have
// returned by now, so the server-side counters are settled), and prints the
// server's admission totals and latency percentiles merged over the tenants.
func (s *scraper) stopAndReport() {
	close(s.done)
	<-s.stopped
	s.mu.Lock()
	samples, errs := s.samples, s.errs
	s.mu.Unlock()
	snap, err := s.scrapeOnce()
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: final scrape of %s failed: %v\n", s.addr, err)
		return
	}
	st := snap.Admission
	fmt.Printf("loadgen: server: admitted %d (%d queued first), %d shed, %d rejected, %d in flight (%d live scrapes, %d failed)\n",
		st.Admitted, st.Queued, st.Shed, st.Rejected, st.InFlight, samples, errs)
	lats := make([]metrics.HistogramSnapshot, 0, len(snap.Tenants))
	waits := make([]metrics.HistogramSnapshot, 0, len(snap.Tenants))
	for _, t := range snap.Tenants {
		lats = append(lats, t.Latency)
		waits = append(waits, t.QueueWait)
	}
	lat, wait := metrics.Merge(lats...), metrics.Merge(waits...)
	if lat.Count > 0 {
		fmt.Printf("loadgen: server: latency p50 %v, p99 %v, max %v; queue wait p50 %v, p99 %v\n",
			time.Duration(lat.P50Nanos), time.Duration(lat.P99Nanos), time.Duration(lat.MaxNanos),
			time.Duration(wait.P50Nanos), time.Duration(wait.P99Nanos))
	}
}

// percentile reads the p-quantile from sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run loadgen -h for usage")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
