package godbc

// Result-cache statistics. The cache itself lives server side (one per sqldb
// engine, so every kojakdb shard caches independently); this file surfaces
// its counters to clients through ReqCacheStats (built and decoded in
// request.go).

import "repro/internal/sqldb"

// CacheStats is a snapshot of a database's result-cache counters. For a
// sharded database it is the sum over all shards. The JSON tags are the
// field names of the /metrics endpoint's "cache" section.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	Entries       int   `json:"entries"`
}

func (cs *CacheStats) add(o CacheStats) {
	cs.Hits += o.Hits
	cs.Misses += o.Misses
	cs.Invalidations += o.Invalidations
	cs.Evictions += o.Evictions
	cs.Entries += o.Entries
}

// CacheStats fetches the server's result-cache counters. ok is false when
// the reply did not carry them; the zero stats are then returned.
func (c *Conn) CacheStats() (CacheStats, bool, error) {
	return cacheStats(c)
}

// CacheStats fetches the server's result-cache counters on a pooled
// connection.
func (p *Pool) CacheStats() (CacheStats, bool, error) {
	c, err := p.Get()
	if err != nil {
		return CacheStats{}, false, err
	}
	defer p.Put(c)
	return c.CacheStats()
}

// CacheStats sums the result-cache counters over every shard — each shard
// caches independently, so the merged snapshot is simply the total. ok is
// false when any shard's reply lacked them; transport failures are tagged
// with the dead shard's address.
func (s *ShardedDB) CacheStats() (CacheStats, bool, error) {
	var total CacheStats
	ok := true
	for i, p := range s.pools {
		st, shardOK, err := p.CacheStats()
		if err != nil {
			return CacheStats{}, false, s.tag(i, err)
		}
		ok = ok && shardOK
		total.add(st)
	}
	return total, ok, nil
}

// fromEngine converts the embedded engine's counters.
func fromEngine(db *sqldb.DB) CacheStats {
	st := db.Stats()
	return CacheStats{
		Hits:          st.ResultCacheHits,
		Misses:        st.ResultCacheMisses,
		Invalidations: st.ResultCacheInvalidations,
		Evictions:     st.ResultCacheEvictions,
		Entries:       st.ResultCacheEntries,
	}
}

// CacheStats reads the in-process engine's result-cache counters directly.
func (e Embedded) CacheStats() (CacheStats, bool, error) {
	return fromEngine(e.DB), true, nil
}

// CacheStats reads the in-process engine's result-cache counters directly.
func (e ProfiledEmbedded) CacheStats() (CacheStats, bool, error) {
	return fromEngine(e.DB), true, nil
}
