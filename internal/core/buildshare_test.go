package core

import (
	"testing"

	"repro/internal/apprentice"
	"repro/internal/godbc"
)

// TestAnalysisSharesBuilds: an analysis opens one build table for its
// statements (sqldb.ShareBuilds), so the decorrelated builds UnmeasuredCost
// carries byte-identical to SublinearSpeedup's are made once. The work an
// analysis does is exact and the same at any worker count — concurrent
// statements wait on the one making a build — and the report is the row
// interpreter's, which makes no builds.
func TestAnalysisSharesBuilds(t *testing.T) {
	g := buildGraph(t, apprentice.ScaledStencil(4, 4), 2, 4, 8, 16)
	run := lastRun(g)
	want, _ := rowBaseline(t, g, run)
	type work struct{ selects, buildRows, shared int64 }
	// One cold analysis of the last run: 8 set-form statements.
	const selects, buildRows, shared = 30, 452, 5
	for _, workers := range []int{1, 8} {
		db := loadDB(t, g)
		db.SetResultCacheSize(0)
		a := New(g, WithWorkers(workers))
		before := db.Stats()
		got := renderWith(t, func() (*Report, error) { return a.AnalyzeSQL(run, godbc.Embedded{DB: db}) })
		after := db.Stats()
		if got != want {
			t.Errorf("workers=%d: report differs from the row interpreter's", workers)
		}
		w := work{after.VecSelects - before.VecSelects, after.BuildRows - before.BuildRows, after.SharedBuilds - before.SharedBuilds}
		if w != (work{selects, buildRows, shared}) {
			t.Errorf("workers=%d: %+v per analysis, want %+v", workers, w, work{selects, buildRows, shared})
		}
		if n := after.VecFallbacks - before.VecFallbacks; n != 0 {
			t.Errorf("workers=%d: %d fallbacks", workers, n)
		}
	}
}
