package godbc

// Driver-level observability. The resident service's /metrics endpoint wants
// to answer "where do requests spend their time below the analyzer?": waiting
// for a pooled connection, or inside the simulated vendor. This file surfaces
// those layers as snapshot structs — PoolStats is client-side counters read
// from atomics, ServerStats is fetched from the wire server through
// ReqServerStats (built and decoded in request.go).

import (
	"repro/internal/metrics"
	"repro/internal/sqldb/wire"
)

// PoolStats is a snapshot of one connection pool's counters. Capacity, InUse,
// and Idle are current occupancy; the rest are cumulative since the pool was
// created. The JSON tags are the field names of the /metrics "pools" section.
type PoolStats struct {
	// Addr is the wire server this pool connects to.
	Addr string `json:"addr"`
	// Capacity is the pool size; InUse counts checked-out connections (or
	// dials in progress); Idle counts parked connections ready for checkout.
	Capacity int `json:"capacity"`
	InUse    int `json:"in_use"`
	Idle     int `json:"idle"`
	// Checkouts counts successful slot acquisitions; Dialed counts fresh
	// connections dialed (reuse keeps this far below Checkouts); Discarded
	// counts connections dropped at return because they were broken or the
	// pool was closing.
	Checkouts int64 `json:"checkouts"`
	Dialed    int64 `json:"dialed"`
	Discarded int64 `json:"discarded"`
	// CheckoutWait is the distribution of time callers spent waiting for a
	// free slot. A growing p99 here means the pool is the bottleneck.
	CheckoutWait metrics.HistogramSnapshot `json:"checkout_wait"`
}

// Metrics returns a snapshot of the pool's counters.
func (p *Pool) Metrics() PoolStats {
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	return PoolStats{
		Addr:         p.addr,
		Capacity:     cap(p.slots),
		InUse:        cap(p.slots) - len(p.slots),
		Idle:         idle,
		Checkouts:    p.checkouts.Value(),
		Dialed:       p.dialed.Value(),
		Discarded:    p.discarded.Value(),
		CheckoutWait: p.checkoutWait.Snapshot(),
	}
}

// PoolMetrics returns one PoolStats per shard, in shard-index order.
func (s *ShardedDB) PoolMetrics() []PoolStats {
	out := make([]PoolStats, len(s.pools))
	for i, p := range s.pools {
		out[i] = p.Metrics()
	}
	return out
}

// ServerStats is the backend half of the picture PoolStats draws on the
// client: the engine's counters as sqldb.Stats declares them (result cache,
// plan cache, prepared handles, batches, vectorized selects and fallbacks)
// plus the wire server's request count and cumulative vendor cost. It is the
// wire's own type — nothing is copied field by field on the way here.
type ServerStats = wire.ServerStats

// ServerStats fetches the server's counters in one request. ok is false when
// the reply did not carry them; the zero stats are then returned.
func (c *Conn) ServerStats() (ServerStats, bool, error) {
	return serverStats(c)
}

// ServerStats fetches the server's counters on a pooled connection.
func (p *Pool) ServerStats() (ServerStats, bool, error) {
	c, err := p.Get()
	if err != nil {
		return ServerStats{}, false, err
	}
	defer p.Put(c)
	return c.ServerStats()
}

// ServerStats sums the counters over every shard — each shard is a server
// and an engine of its own, so the deployment's snapshot is simply the total.
// ok is false when any shard's reply lacked them; transport failures are
// tagged with the dead shard's address.
func (s *ShardedDB) ServerStats() (ServerStats, bool, error) {
	var total ServerStats
	ok := true
	for i, p := range s.pools {
		st, shardOK, err := p.ServerStats()
		if err != nil {
			return ServerStats{}, false, s.tag(i, err)
		}
		ok = ok && shardOK
		total.Add(st)
	}
	return total, ok, nil
}

// ServerStats reads the in-process engine's counters directly. Requests and
// VendorNanos are zero: no wire server serves this executor.
func (e Embedded) ServerStats() (ServerStats, bool, error) {
	return ServerStats{Stats: e.DB.Stats()}, true, nil
}
