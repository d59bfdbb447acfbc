package sqldb

// Every test of the package holds the planner's bindings against the row
// interpreter's run-time resolution (execCtx.column): a reference the two
// resolve apart panics.
func init() { checkBinder = true }

// ShrinkPlanCache lowers the plan cache's capacity, for tests that need
// evictions without filling DefaultPlanCacheSize slots; entries beyond it go
// at the next miss.
func (db *DB) ShrinkPlanCache(n int) {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	db.planCap = n
}

// SetStats makes db.Stats() report s, for tests that follow a snapshot through
// the layers above the engine. Counters are stored as they are; the two cache
// populations, which Stats reads off the LRU lists, are made real with
// placeholder entries. The database is good for nothing but Stats afterwards.
func (db *DB) SetStats(s Stats) {
	db.planHits.Store(s.PlanCacheHits)
	db.planMisses.Store(s.PlanCacheMisses)
	db.planEvicts.Store(s.PlanCacheEvictions)
	db.planLRU.Init()
	for range s.PlanCacheEntries {
		db.planLRU.PushBack(&planCacheEntry{})
	}
	db.preparedLive.Store(s.PreparedLive)
	db.replans.Store(s.Replans)
	db.batchExecs.Store(s.BatchExecs)
	db.batchBindings.Store(s.BatchBindings)

	db.resHits.Store(s.ResultCacheHits)
	db.resMisses.Store(s.ResultCacheMisses)
	db.resInvalid.Store(s.ResultCacheInvalidations)
	db.resEvicts.Store(s.ResultCacheEvictions)
	db.resLRU.Init()
	for range s.ResultCacheEntries {
		db.resLRU.PushBack(&resultCacheEntry{})
	}

	db.vecSelects.Store(s.VecSelects)
	db.vecFallbacks.Store(s.VecFallbacks)
	r := s.VecFallbackReasons
	db.vecFbStar.Store(r.Star)
	db.vecFbOrder.Store(r.OrderExpr)
	db.vecFbSub.Store(r.Subquery)
	db.vecFbOther.Store(r.Other)
	db.buildRows.Store(s.BuildRows)
	db.sharedBuilds.Store(s.SharedBuilds)
}

// OnSeed makes every seed of either engine — a SELECT's, a build's, an
// UPDATE's or DELETE's — report the name of the FROM table it seeds and how
// many of its rows it seeded, for tests that check how far a
// seed reaches; nil stops the reports.
func (db *DB) OnSeed(f func(table string, rows int)) {
	if f == nil {
		db.seedHook = nil
		return
	}
	db.seedHook = func(from *Table, rows int) { f(from.Name, rows) }
}
