package core

import (
	"testing"

	"repro/internal/apprentice"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// The vectorized-engine determinism suite: the engine selection must be
// invisible in the output. Reports computed on the columnar engine render
// byte-identically to the row interpreter's — at any worker count, batch
// size, and shard count, with the result cache on or off, before and after
// DML. Run with -race to exercise the pooled batch contexts under the
// concurrent analysis pipeline.

// rowBaseline renders the row-interpreter reference reports for a run:
// serial, cache-off, before and after the invalidating DML.
func rowBaseline(t *testing.T, g *model.Graph, run *model.TestRun) (before, after string) {
	t.Helper()
	db := loadDB(t, g)
	db.SetResultCacheSize(0)
	if err := db.SetEngine(sqldb.EngineRow); err != nil {
		t.Fatal(err)
	}
	ref := New(g, WithWorkers(1))
	analyze := func() (*Report, error) { return ref.AnalyzeSQL(run, godbc.Embedded{DB: db}) }
	before = renderWith(t, analyze)
	if _, err := db.Exec(halveTypedTiming, nil); err != nil {
		t.Fatal(err)
	}
	after = renderWith(t, analyze)
	if before == after {
		t.Fatal("the invalidating DML did not change the report; the test is vacuous")
	}
	return before, after
}

// TestVectorAnalysisDeterminism: on the embedded database, the vectorized
// engine's report is byte-identical to the row engine's at workers 1/8 ×
// batch 1/32 × cache on/off, on repeat (cache-warm) analyses, and after DML.
func TestVectorAnalysisDeterminism(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)
	wantBefore, wantAfter := rowBaseline(t, g, run)

	for _, workers := range []int{1, 8} {
		for _, batch := range []int{1, 32} {
			for _, cache := range []string{"off", "on"} {
				db := loadDB(t, g)
				if cache == "off" {
					db.SetResultCacheSize(0)
				}
				if err := db.SetEngine(sqldb.EngineVector); err != nil {
					t.Fatal(err)
				}
				a := New(g, WithWorkers(workers), WithBatchSize(batch))
				q := godbc.Embedded{DB: db}
				analyze := func() (*Report, error) { return a.AnalyzeSQL(run, q) }
				cold := renderWith(t, analyze)
				warm := renderWith(t, analyze)
				if cold != wantBefore || warm != wantBefore {
					t.Errorf("workers=%d batch=%d cache=%s: vectorized report differs from the row baseline",
						workers, batch, cache)
				}
				if _, err := db.Exec(halveTypedTiming, nil); err != nil {
					t.Fatal(err)
				}
				after := renderWith(t, analyze)
				if after != wantAfter {
					t.Errorf("workers=%d batch=%d cache=%s: post-DML vectorized report differs from the row baseline:\n--- want ---\n%s--- got ---\n%s",
						workers, batch, cache, wantAfter, after)
				}
				if st := db.Stats(); st.VecSelects == 0 {
					t.Errorf("workers=%d batch=%d cache=%s: no SELECT took the vectorized path", workers, batch, cache)
				}
			}
		}
	}
}

// interleavedDML is the statement sequence TestVectorInterleavedDMLDeterminism
// replays between analyses: an arithmetic UPDATE, a DELETE whose predicate
// aggregates the table it mutates, and a second UPDATE over the survivors.
// Each statement targets TypedTiming (run-partitioned, so every run's slice
// of history shifts) and each must change the report — vacuity is checked.
var interleavedDML = []string{
	halveTypedTiming,
	`DELETE FROM TypedTiming WHERE Time > (SELECT AVG(Time) FROM TypedTiming)`,
	`UPDATE TypedTiming SET Time = Time * 3 + 1`,
}

// TestVectorInterleavedDMLDeterminism: reports stay byte-identical to the row
// interpreter's through an interleaved UPDATE/DELETE/UPDATE sequence, with
// analyses between every step, at workers 1/8 × cache on/off. This is the
// vectorized DML's determinism gate: its chunked, column-major matching
// and SET evaluation must be invisible next to the row interpreter's
// row-at-a-time read phase (both hand the same write phase their rows).
func TestVectorInterleavedDMLDeterminism(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)

	// Row-interpreter reference: one report before DML and one after each step.
	refDB := loadDB(t, g)
	refDB.SetResultCacheSize(0)
	if err := refDB.SetEngine(sqldb.EngineRow); err != nil {
		t.Fatal(err)
	}
	ref := New(g, WithWorkers(1))
	refs := make([]string, 0, len(interleavedDML)+1)
	refs = append(refs, renderWith(t, func() (*Report, error) {
		return ref.AnalyzeSQL(run, godbc.Embedded{DB: refDB})
	}))
	for i, dml := range interleavedDML {
		res, err := refDB.Exec(dml, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected == 0 {
			t.Fatalf("step %d (%s) affected no rows; the test is vacuous", i, dml)
		}
		rep := renderWith(t, func() (*Report, error) {
			return ref.AnalyzeSQL(run, godbc.Embedded{DB: refDB})
		})
		if rep == refs[len(refs)-1] {
			t.Fatalf("step %d (%s) did not change the report; the test is vacuous", i, dml)
		}
		refs = append(refs, rep)
	}

	for _, workers := range []int{1, 8} {
		for _, cache := range []string{"off", "on"} {
			db := loadDB(t, g)
			if cache == "off" {
				db.SetResultCacheSize(0)
			}
			if err := db.SetEngine(sqldb.EngineVector); err != nil {
				t.Fatal(err)
			}
			a := New(g, WithWorkers(workers))
			q := godbc.Embedded{DB: db}
			analyze := func() (*Report, error) { return a.AnalyzeSQL(run, q) }
			if got := renderWith(t, analyze); got != refs[0] {
				t.Errorf("workers=%d cache=%s: pre-DML vectorized report differs from the row baseline", workers, cache)
			}
			for i, dml := range interleavedDML {
				if _, err := db.Exec(dml, nil); err != nil {
					t.Fatal(err)
				}
				if got := renderWith(t, analyze); got != refs[i+1] {
					t.Errorf("workers=%d cache=%s: report after step %d differs from the row baseline:\n--- want ---\n%s--- got ---\n%s",
						workers, cache, i, refs[i+1], got)
				}
			}
			if st := db.Stats(); st.VecSelects == 0 {
				t.Errorf("workers=%d cache=%s: no SELECT took the vectorized path", workers, cache)
			}
		}
	}
}

// TestVectorShardedDeterminism: every shard runs the vectorized engine; the
// merged report matches the embedded row-engine baseline at shards 1/2 ×
// workers 1/8, and broadcast DML keeps the shards and the report consistent.
func TestVectorShardedDeterminism(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)
	wantBefore, wantAfter := rowBaseline(t, g, run)

	for _, shards := range []int{1, 2} {
		h := startShardHarness(t, g, shards)
		for _, db := range h.dbs {
			if err := db.SetEngine(sqldb.EngineVector); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 8} {
			a := New(g, WithWorkers(workers))
			got := renderWith(t, func() (*Report, error) { return a.AnalyzeSQL(run, h.sdb) })
			if got != wantBefore {
				t.Errorf("shards=%d workers=%d: vectorized report differs from the row baseline", shards, workers)
			}
		}
		if _, err := h.sdb.Exec(halveTypedTiming, nil); err != nil {
			t.Fatal(err)
		}
		a := New(g, WithWorkers(8))
		after := renderWith(t, func() (*Report, error) { return a.AnalyzeSQL(run, h.sdb) })
		if after != wantAfter {
			t.Errorf("shards=%d: post-DML vectorized report differs from the row baseline:\n--- want ---\n%s--- got ---\n%s",
				shards, wantAfter, after)
		}
		vec := int64(0)
		for _, db := range h.dbs {
			vec += db.Stats().VecSelects
		}
		if vec == 0 {
			t.Errorf("shards=%d: no SELECT took the vectorized path", shards)
		}
	}
}
