package godbc

// Driver-level observability. The resident service's /metrics endpoint wants
// to answer "where do requests spend their time below the analyzer?": waiting
// for a pooled connection, or inside the simulated vendor. This file surfaces
// those layers as snapshot structs — PoolStats is client-side counters read
// from atomics, ServerStats is fetched from the wire server through
// ReqServerStats (built and decoded in request.go).

import "repro/internal/metrics"

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

// ServerStats is a snapshot of a wire server's engine and cost counters: the
// backend half of the picture PoolStats draws on the client. For
// a sharded database it is the sum over all shards.
type ServerStats struct {
	Engine       string `json:"engine"`
	VecSelects   int64  `json:"vec_selects"`
	VecFallbacks int64  `json:"vec_fallbacks"`
	// FbJoinShape..FbOther break VecFallbacks down by refused plan shape.
	FbJoinShape     int64 `json:"fb_join_shape"`
	FbStar          int64 `json:"fb_star"`
	FbOrderExpr     int64 `json:"fb_order_expr"`
	FbSubquery      int64 `json:"fb_subquery"`
	FbOther         int64 `json:"fb_other"`
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	PlanCacheMisses int64 `json:"plan_cache_misses"`
	Requests        int64 `json:"requests"`
	// VendorNanos is the cumulative simulated vendor delay the server has
	// charged — what the workload cost at the profiled vendor's prices.
	VendorNanos int64 `json:"vendor_ns"`
}

// add sums o into ss; Engine is taken from o (deployments are homogeneous).
func (ss *ServerStats) add(o ServerStats) {
	ss.Engine = o.Engine
	ss.VecSelects += o.VecSelects
	ss.VecFallbacks += o.VecFallbacks
	ss.FbJoinShape += o.FbJoinShape
	ss.FbStar += o.FbStar
	ss.FbOrderExpr += o.FbOrderExpr
	ss.FbSubquery += o.FbSubquery
	ss.FbOther += o.FbOther
	ss.PlanCacheHits += o.PlanCacheHits
	ss.PlanCacheMisses += o.PlanCacheMisses
	ss.Requests += o.Requests
	ss.VendorNanos += o.VendorNanos
}

// ServerStats fetches the server's engine and cost counters. ok is false when
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

// ServerStats sums the counters over every shard. ok is false when any
// shard's reply lacked them; transport failures are tagged with the dead
// shard's address.
func (s *ShardedDB) ServerStats() (ServerStats, bool, error) {
	var total ServerStats
	ok := true
	for i, p := range s.pools {
		st, shardOK, err := p.ServerStats()
		if err != nil {
			return ServerStats{}, false, s.tag(i, err)
		}
		ok = ok && shardOK
		total.add(st)
	}
	return total, ok, nil
}

// ServerStats reads the in-process engine's counters directly. Requests and
// VendorNanos are zero: no wire server serves this executor.
func (e Embedded) ServerStats() (ServerStats, bool, error) {
	st := e.DB.Stats()
	return ServerStats{
		Engine:          st.Engine,
		VecSelects:      st.VecSelects,
		VecFallbacks:    st.VecFallbacks,
		FbJoinShape:     st.VecFallbackReasons.JoinShape,
		FbStar:          st.VecFallbackReasons.Star,
		FbOrderExpr:     st.VecFallbackReasons.OrderExpr,
		FbSubquery:      st.VecFallbackReasons.Subquery,
		FbOther:         st.VecFallbackReasons.Other,
		PlanCacheHits:   st.PlanCacheHits,
		PlanCacheMisses: st.PlanCacheMisses,
	}, true, nil
}

// ServerStats reads the in-process engine's counters directly, as Embedded.
func (e ProfiledEmbedded) ServerStats() (ServerStats, bool, error) {
	return Embedded{DB: e.DB}.ServerStats()
}
