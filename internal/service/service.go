package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// Config shapes a Service.
type Config struct {
	// Capacity bounds the concurrent analyses (below 1 means 1). This caps
	// the real parallelism of the whole service: every admitted analysis
	// additionally fans out over Workers evaluation workers.
	Capacity int
	// MaxQueue bounds the admission queue (non-positive: unbounded).
	MaxQueue int
	// Workers and BatchSize configure every analysis as in core.WithWorkers
	// and core.WithBatchSize.
	Workers   int
	BatchSize int
	// Threshold is the performance-problem threshold (0 keeps the default).
	Threshold float64
	// Tenants holds the per-tenant admission policies.
	Tenants map[string]TenantConfig
}

// Service is the resident analyzer: one loaded database and model graph,
// shared by every request, behind admission control. It is safe for
// concurrent use — the executor must be too (a godbc.Pool, godbc.ShardedDB,
// or godbc.Embedded; a plain Conn serializes).
type Service struct {
	graph *model.Graph
	q     core.QueryExec
	// analyzer is the one analyzer every request runs on: configured once
	// from the Config, it keeps each run's evaluation plan across requests
	// and tenants (core/plan.go).
	analyzer *core.Analyzer
	adm      *Admission
	met      *Metrics
}

// New assembles a service over a loaded executor. The database behind q must
// already hold the graph's dataset.
func New(g *model.Graph, q core.QueryExec, cfg Config) *Service {
	opts := []core.Option{core.WithWorkers(cfg.Workers), core.WithBatchSize(cfg.BatchSize)}
	if cfg.Threshold > 0 {
		opts = append(opts, core.WithThreshold(cfg.Threshold))
	}
	s := &Service{graph: g, q: q, analyzer: core.New(g, opts...), adm: NewAdmission(cfg.Capacity, cfg.MaxQueue), met: NewMetrics()}
	for tenant, tc := range cfg.Tenants {
		s.adm.SetTenant(tenant, tc)
	}
	return s
}

// Admission exposes the service's admission controller (for stats and tests).
func (s *Service) Admission() *Admission { return s.adm }

// Run resolves a test run by processor count; nope 0 selects the largest.
func (s *Service) Run(nope int) (*model.TestRun, error) {
	if run := s.graph.Dataset.Run(nope); run != nil {
		return run, nil
	}
	if nope > 0 {
		return nil, fmt.Errorf("service: no test run with %d PEs", nope)
	}
	return nil, fmt.Errorf("service: dataset has no test runs")
}

// Analyze evaluates one run on behalf of a tenant: admission first (the
// request queues or is shed here under load), then the service's analyzer
// over the shared graph and executor, with ctx observed at every layer below.
// The report is byte-identical to what a standalone cosy run over the same
// data would print — the service changes where analyses run, never what they
// say.
func (s *Service) Analyze(ctx context.Context, tenant string, nope int) (*core.Report, error) {
	run, err := s.Run(nope)
	if err != nil {
		return nil, err
	}
	// Per-tenant recording happens here, inside the request's own goroutine
	// and before it signals completion to anyone: every counter and histogram
	// touch is therefore ordered before the server's drain barrier, which is
	// what lets a post-drain snapshot reconcile exactly (see Server.Shutdown
	// and cmd/cosyd).
	tm := s.met.Tenant(tenant)
	start := time.Now()
	release, queued, err := s.adm.AcquireTracked(ctx, tenant)
	if err != nil {
		if errors.Is(err, ErrRejected) {
			tm.Rejected.Inc()
		} else {
			tm.Shed.Inc()
		}
		return nil, err
	}
	defer release()
	tm.Admitted.Inc()
	if queued {
		tm.Queued.Inc()
	}
	tm.QueueWait.Observe(time.Since(start))
	tm.InFlight.Inc()
	defer tm.InFlight.Dec()

	rep, err := s.analyzer.AnalyzeSQLCtx(ctx, run, s.q)
	switch {
	case err == nil:
		// End-to-end latency, queue wait included: what the tenant waited.
		tm.Latency.Observe(time.Since(start))
		tm.Completed.Inc()
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		tm.Canceled.Inc()
	default:
		tm.Failed.Inc()
	}
	return rep, err
}
