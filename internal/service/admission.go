// Package service turns the COSY analyzer into a resident multi-tenant
// analysis server: a long-lived process owning one loaded database that
// serves analyze-run requests from many clients over a small multiplexed
// protocol, with per-tenant admission control and cancellation propagated
// down every layer (core → godbc → wire → sqldb).
//
// The paper's workflow runs COSY once per question: start the tool, load the
// snapshot, evaluate, exit. A measurement group shares one COSY database
// across its members, and the repeated start-up cost — and the free-for-all
// of uncoordinated concurrent analyses — is what a resident service removes:
// admission control bounds the concurrent analyses, weighted fairness keeps
// one tenant's sweep from starving another's interactive question, and
// request deadlines shed work nobody is waiting for anymore.
package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrRejected is returned by Acquire when the admission queue is full: the
// caller should retry later rather than wait. Load shedding at the door keeps
// queue time bounded when offered load exceeds capacity.
var ErrRejected = errors.New("service: admission queue full")

// DefaultWeight is the fair-share weight of tenants without explicit
// configuration.
const DefaultWeight = 1.0

// TenantConfig is one tenant's admission policy.
type TenantConfig struct {
	// Weight is the tenant's fair share: capacity freed by a finishing
	// analysis goes to the queued tenant with the lowest inflight/weight
	// ratio, so a weight-2 tenant sustains twice the concurrency of a
	// weight-1 tenant under contention. Non-positive means DefaultWeight.
	Weight float64
	// MaxInFlight caps the tenant's concurrent analyses regardless of free
	// capacity, bounding the damage of one runaway client. Non-positive
	// means no per-tenant cap (the global capacity still applies).
	MaxInFlight int
}

// AdmissionStats is a snapshot of the admission counters. The JSON tags are
// the field names of the /metrics endpoint's "admission" section.
type AdmissionStats struct {
	// Admitted counts acquisitions that got capacity (immediately or after
	// queueing); Queued counts the subset that had to wait.
	Admitted int64 `json:"admitted"`
	Queued   int64 `json:"queued"`
	// Shed counts queued waiters whose context fired before capacity came.
	Shed int64 `json:"shed"`
	// Rejected counts acquisitions refused because the queue was full.
	Rejected int64 `json:"rejected"`
	// InFlight and Waiting are current occupancy, not cumulative counters.
	InFlight int `json:"in_flight"`
	Waiting  int `json:"waiting"`
}

// waiter is one queued acquisition. The admission lock guards all fields;
// ready is closed exactly once, under the lock, when the waiter is granted.
type waiter struct {
	ctx     context.Context
	ready   chan struct{}
	granted bool
	// removed marks a waiter the dispatcher already took off the queue (shed
	// as dead), so the waiter's own cleanup must not account for it again.
	removed bool
}

// Admission is the service's admission controller: a capacity-bounded,
// per-tenant-limited, weighted-fair queue. The zero value is not usable; use
// NewAdmission.
type Admission struct {
	mu       sync.Mutex
	capacity int
	maxQueue int
	tenants  map[string]TenantConfig
	inflight map[string]int
	total    int
	queues   map[string][]*waiter
	waiting  int
	stats    AdmissionStats
}

// NewAdmission returns a controller admitting at most capacity concurrent
// acquisitions (values below 1 are treated as 1) and queueing at most
// maxQueue waiters (non-positive means an unbounded queue).
func NewAdmission(capacity, maxQueue int) *Admission {
	if capacity < 1 {
		capacity = 1
	}
	return &Admission{
		capacity: capacity,
		maxQueue: maxQueue,
		tenants:  make(map[string]TenantConfig),
		inflight: make(map[string]int),
		queues:   make(map[string][]*waiter),
	}
}

// SetTenant installs a tenant's admission policy. Tenants never configured
// get DefaultWeight and no per-tenant cap.
func (a *Admission) SetTenant(tenant string, cfg TenantConfig) {
	a.mu.Lock()
	a.tenants[tenant] = cfg
	a.mu.Unlock()
}

// Stats returns a snapshot of the admission counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stats
	s.InFlight = a.total
	s.Waiting = a.waiting
	return s
}

// config returns the effective policy of a tenant.
func (a *Admission) config(tenant string) TenantConfig {
	cfg := a.tenants[tenant]
	if cfg.Weight <= 0 {
		cfg.Weight = DefaultWeight
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = a.capacity
	}
	return cfg
}

// admissible reports whether one more acquisition by tenant fits both bounds.
// Callers hold a.mu.
func (a *Admission) admissible(tenant string) bool {
	return a.total < a.capacity && a.inflight[tenant] < a.config(tenant).MaxInFlight
}

// Acquire claims one admission slot for tenant, waiting in the tenant's FIFO
// queue when none is free. It returns the release function that must be
// called exactly once when the analysis finishes. A context canceled while
// waiting sheds the waiter and returns the context's error; a full queue
// returns ErrRejected immediately.
func (a *Admission) Acquire(ctx context.Context, tenant string) (release func(), err error) {
	release, _, err = a.AcquireTracked(ctx, tenant)
	return release, err
}

// AcquireTracked is Acquire reporting whether the acquisition had to queue —
// the distinction the per-tenant metrics record (an immediate grant and a
// queued one both count as admitted, only the latter as queued).
func (a *Admission) AcquireTracked(ctx context.Context, tenant string) (release func(), queued bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	a.mu.Lock()
	// Grant immediately only when nobody of the same tenant is already
	// waiting — arrivals must not overtake their own tenant's FIFO queue.
	if len(a.queues[tenant]) == 0 && a.admissible(tenant) {
		a.grantLocked(tenant)
		a.mu.Unlock()
		return func() { a.release(tenant) }, false, nil
	}
	if a.maxQueue > 0 && a.waiting >= a.maxQueue {
		a.stats.Rejected++
		a.mu.Unlock()
		return nil, false, ErrRejected
	}
	w := &waiter{ctx: ctx, ready: make(chan struct{})}
	a.queues[tenant] = append(a.queues[tenant], w)
	a.waiting++
	a.stats.Queued++
	a.mu.Unlock()

	select {
	case <-w.ready:
		return func() { a.release(tenant) }, true, nil
	case <-ctx.Done():
	}
	// The context fired — but the grant may have raced it. The lock decides:
	// granted waiters were already removed from the queue and hold capacity,
	// so a caller that reports failure must give the slot back.
	a.mu.Lock()
	if w.granted {
		a.mu.Unlock()
		a.release(tenant)
		return nil, true, ctx.Err()
	}
	if !w.removed {
		q := a.queues[tenant]
		for i, qw := range q {
			if qw == w {
				a.queues[tenant] = append(q[:i], q[i+1:]...)
				if len(a.queues[tenant]) == 0 {
					delete(a.queues, tenant)
				}
				break
			}
		}
		a.waiting--
		a.stats.Shed++
	}
	a.mu.Unlock()
	return nil, true, ctx.Err()
}

// grantLocked books one acquisition. Callers hold a.mu.
func (a *Admission) grantLocked(tenant string) {
	a.total++
	a.inflight[tenant]++
	a.stats.Admitted++
}

// release returns tenant's slot and hands the freed capacity to the most
// deserving waiter.
func (a *Admission) release(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.total--
	if a.inflight[tenant]--; a.inflight[tenant] == 0 {
		delete(a.inflight, tenant)
	}
	a.dispatchLocked()
}

// dispatchLocked grants freed capacity to queued waiters: repeatedly pick the
// admissible tenant with the lowest inflight/weight ratio (ties broken by
// tenant name, so scheduling is deterministic), shed queue heads whose
// context already fired, and grant the first live one. The loop ends when
// capacity is exhausted or no queued tenant is admissible.
func (a *Admission) dispatchLocked() {
	for {
		best := ""
		bestRatio := 0.0
		for tenant, q := range a.queues {
			if len(q) == 0 || !a.admissible(tenant) {
				continue
			}
			ratio := float64(a.inflight[tenant]) / a.config(tenant).Weight
			if best == "" || ratio < bestRatio || (ratio == bestRatio && tenant < best) {
				best, bestRatio = tenant, ratio
			}
		}
		if best == "" {
			return
		}
		q := a.queues[best]
		w := q[0]
		a.queues[best] = q[1:]
		if len(a.queues[best]) == 0 {
			delete(a.queues, best)
		}
		a.waiting--
		if w.ctx.Err() != nil {
			// Dead waiter: its Acquire is about to (or already did) observe
			// the context; marking it granted here would leak the slot.
			w.removed = true
			a.stats.Shed++
			continue
		}
		w.granted = true
		a.grantLocked(best)
		close(w.ready)
	}
}

// String renders the controller's configuration for logs.
func (a *Admission) String() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.tenants))
	for t := range a.tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	return fmt.Sprintf("admission{capacity: %d, maxQueue: %d, tenants: %v}", a.capacity, a.maxQueue, names)
}
