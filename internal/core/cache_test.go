package core

import (
	"testing"

	"repro/internal/apprentice"
	"repro/internal/godbc"
)

// The result-cache determinism suite: analyses answered from the server-side
// result cache must render byte-identically to uncached ones — at any worker
// count, batch size, and shard count, before and after DML invalidated the
// cached run. Run with -race to exercise concurrent lookups and stores.

// halveTypedTiming is DML to a run-partitioned table (model.RunPartitioned
// includes TypedTiming): it changes the overhead-based severities, so any
// stale cached result would be visible in the report.
const halveTypedTiming = `UPDATE TypedTiming SET Time = Time / 2`

// TestCachedAnalysisDeterminism: on the embedded engine, cache-on analyses
// (first run populating, second run served from cache) render identically to
// the cache-off baseline, at workers 1 and 8; DML invalidates and the
// post-DML reports agree again.
func TestCachedAnalysisDeterminism(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)

	offDB := loadDB(t, g)
	offDB.SetResultCacheSize(0)
	ref := New(g, WithWorkers(1))
	analyzeOff := func() (*Report, error) { return ref.AnalyzeSQL(run, godbc.Embedded{DB: offDB}) }
	wantBefore := renderWith(t, analyzeOff)
	if _, err := offDB.Exec(halveTypedTiming, nil); err != nil {
		t.Fatal(err)
	}
	wantAfter := renderWith(t, analyzeOff)
	if wantBefore == wantAfter {
		t.Fatal("the invalidating DML did not change the report; the test is vacuous")
	}

	for _, workers := range []int{1, 8} {
		onDB := loadDB(t, g)
		a := New(g, WithWorkers(workers))
		q := godbc.Embedded{DB: onDB}
		analyzeOn := func() (*Report, error) { return a.AnalyzeSQL(run, q) }
		cold := renderWith(t, analyzeOn)
		warm := renderWith(t, analyzeOn)
		if cold != wantBefore || warm != wantBefore {
			t.Errorf("workers=%d: cached reports differ from the cache-off baseline", workers)
		}
		stats, _, _ := q.ServerStats()
		if stats.ResultCacheHits == 0 {
			t.Errorf("workers=%d: warm analysis recorded no cache hits", workers)
		}
		if _, err := onDB.Exec(halveTypedTiming, nil); err != nil {
			t.Fatal(err)
		}
		after := renderWith(t, analyzeOn)
		if after != wantAfter {
			t.Errorf("workers=%d: post-DML cached report differs from the cache-off baseline:\n--- want ---\n%s--- got ---\n%s",
				workers, wantAfter, after)
		}
	}
}

// TestCachedShardedDeterminism: every shard caches independently; the merged
// report of a cache-warm sharded analysis is byte-identical to the cache-off
// single-node baseline at shards 1/2/4 × workers 1/8, and DML to the
// partitioned table (broadcast, so every shard's copy of its own runs moves)
// invalidates without corrupting the merge.
func TestCachedShardedDeterminism(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)

	offDB := loadDB(t, g)
	offDB.SetResultCacheSize(0)
	ref := New(g, WithWorkers(1))
	analyzeOff := func() (*Report, error) { return ref.AnalyzeSQL(run, godbc.Embedded{DB: offDB}) }
	wantBefore := renderWith(t, analyzeOff)
	if _, err := offDB.Exec(halveTypedTiming, nil); err != nil {
		t.Fatal(err)
	}
	wantAfter := renderWith(t, analyzeOff)
	if wantBefore == wantAfter {
		t.Fatal("the invalidating DML did not change the report; the test is vacuous")
	}

	for _, shards := range []int{1, 2, 4} {
		h := startShardHarness(t, g, shards)
		for _, workers := range []int{1, 8} {
			a := New(g, WithWorkers(workers))
			analyze := func() (*Report, error) { return a.AnalyzeSQL(run, h.sdb) }
			cold := renderWith(t, analyze)
			warm := renderWith(t, analyze)
			if cold != wantBefore || warm != wantBefore {
				t.Errorf("shards=%d workers=%d: cached reports differ from the baseline", shards, workers)
			}
		}
		stats, ok, err := h.sdb.ServerStats()
		if err != nil || !ok {
			t.Fatalf("shards=%d: ServerStats: ok=%v err=%v", shards, ok, err)
		}
		if stats.ResultCacheHits == 0 {
			t.Errorf("shards=%d: warm analyses recorded no cache hits", shards)
		}

		// DML to the partitioned table, broadcast so each shard updates the
		// rows of the runs it owns; the owning shard's cached results for the
		// analyzed run are invalidated, the report changes accordingly.
		if _, err := h.sdb.Exec(halveTypedTiming, nil); err != nil {
			t.Fatal(err)
		}
		a := New(g, WithWorkers(8))
		after := renderWith(t, func() (*Report, error) { return a.AnalyzeSQL(run, h.sdb) })
		if after != wantAfter {
			t.Errorf("shards=%d: post-DML report differs from the cache-off baseline:\n--- want ---\n%s--- got ---\n%s",
				shards, wantAfter, after)
		}
	}
}

// TestCachedBatchSizesDeterminism: the cache composes with every batch size —
// per-instance prepared execution, small batches, and the default — without
// changing the report.
func TestCachedBatchSizesDeterminism(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)
	db := loadDB(t, g)
	db.SetResultCacheSize(0)
	ref := New(g, WithWorkers(1))
	want := renderWith(t, func() (*Report, error) { return ref.AnalyzeSQL(run, godbc.Embedded{DB: db}) })

	for _, batch := range []int{1, 4, DefaultBatchSize} {
		onDB := loadDB(t, g)
		a := New(g, WithWorkers(8), WithBatchSize(batch))
		q := godbc.Embedded{DB: onDB}
		for pass := 0; pass < 2; pass++ {
			got := renderWith(t, func() (*Report, error) { return a.AnalyzeSQL(run, q) })
			if got != want {
				t.Errorf("batch=%d pass=%d: cached report differs from baseline", batch, pass)
			}
		}
	}
}

// TestCacheSurvivesUnrelatedTableDML at the analysis level: mutating a table
// no property query references keeps the warm cache warm — the second
// analysis after the DML still hits.
func TestCacheSurvivesUnrelatedTableDML(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)
	db := loadDB(t, g)
	q := godbc.Embedded{DB: db}
	a := New(g)
	if _, err := a.AnalyzeSQL(run, q); err != nil {
		t.Fatal(err)
	}
	// A scratch table the property queries never touch.
	db.MustExec(`CREATE TABLE scratch (id INTEGER PRIMARY KEY)`, nil) // DDL clears the cache...
	if _, err := a.AnalyzeSQL(run, q); err != nil {                   // ...so warm it again
		t.Fatal(err)
	}
	before, _, _ := q.ServerStats()
	db.MustExec(`INSERT INTO scratch (id) VALUES (1)`, nil)
	if _, err := a.AnalyzeSQL(run, q); err != nil {
		t.Fatal(err)
	}
	after, _, _ := q.ServerStats()
	if after.ResultCacheInvalidations != before.ResultCacheInvalidations {
		t.Errorf("unrelated DML invalidated %d entries", after.ResultCacheInvalidations-before.ResultCacheInvalidations)
	}
	if after.ResultCacheHits <= before.ResultCacheHits {
		t.Errorf("analysis after unrelated DML did not hit the cache (hits %d -> %d)", before.ResultCacheHits, after.ResultCacheHits)
	}
}
