package core

import (
	"testing"

	"repro/internal/apprentice"
	"repro/internal/godbc"
	"repro/internal/sqldb/wire"
)

// The batched pipeline must be invisible in the output: for every executor,
// batch size, and worker count, the report produced with batched execution
// is byte-identical to the per-instance prepared one and to the per-call
// text-protocol one. Run with -race to exercise concurrent batches.

// TestBatchedMatchesUnbatchedEmbedded compares text, per-instance prepared,
// and batched execution on the embedded engine for every library workload at
// workers 1 and 8.
func TestBatchedMatchedUnbatchedEmbedded(t *testing.T) {
	for name, w := range apprentice.Library() {
		t.Run(name, func(t *testing.T) {
			g := buildGraph(t, w)
			db := loadDB(t, g)
			run := lastRun(g)
			q := godbc.Embedded{DB: db}

			text := New(g, WithPreparedStatements(false))
			want := renderWith(t, text, 1, func() (*Report, error) { return text.AnalyzeSQL(run, q) })
			for _, batch := range []int{2, 5, DefaultBatchSize} {
				for _, workers := range []int{1, 8} {
					batched := New(g, WithBatchSize(batch))
					got := renderWith(t, batched, workers, func() (*Report, error) { return batched.AnalyzeSQL(run, q) })
					if got != want {
						t.Errorf("batchsize=%d workers=%d report differs from text:\n--- text ---\n%s--- batched ---\n%s",
							batch, workers, want, got)
					}
				}
			}
		})
	}
}

// TestBatchedMatchesUnbatchedOverPool drives the full networked stack: the
// pool's batched requests must reproduce the serial per-instance report byte
// for byte at workers 1 and 8, and the server must actually have served
// batches.
func TestBatchedMatchesUnbatchedOverPool(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	srv, err := wire.NewServer(db, wire.ProfileFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool, err := godbc.NewPool(srv.Addr(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	run := lastRun(g)
	unbatched := New(g, WithBatchSize(1))
	want := renderWith(t, unbatched, 1, func() (*Report, error) { return unbatched.AnalyzeSQL(run, pool) })
	for _, workers := range []int{1, 8} {
		batched := New(g, WithBatchSize(4))
		got := renderWith(t, batched, workers, func() (*Report, error) { return batched.AnalyzeSQL(run, pool) })
		if got != want {
			t.Errorf("workers=%d batched report differs from serial unbatched:\n--- unbatched ---\n%s--- batched ---\n%s",
				workers, want, got)
		}
	}
	if st := db.Stats(); st.BatchExecs == 0 {
		t.Error("server served no batches on the batched path")
	}
}

// TestGuidedSQLBatchedMatchesObject: the batched refinement search must
// visit the same instances with the same outcomes as the object-engine one.
func TestGuidedSQLBatchedMatchesObject(t *testing.T) {
	for name, w := range apprentice.Library() {
		t.Run(name, func(t *testing.T) {
			g := buildGraph(t, w)
			db := loadDB(t, g)
			run := lastRun(g)
			a := New(g, WithBatchSize(3))
			obj, objStats, err := a.AnalyzeGuided(run, DefaultHierarchy())
			if err != nil {
				t.Fatal(err)
			}
			sql, sqlStats, err := a.AnalyzeGuidedSQL(run, DefaultHierarchy(), godbc.Embedded{DB: db})
			if err != nil {
				t.Fatal(err)
			}
			if objStats.Evaluated != sqlStats.Evaluated || objStats.Exhaustive != sqlStats.Exhaustive {
				t.Fatalf("search stats differ: object %+v, sql %+v", objStats, sqlStats)
			}
			compareReports(t, obj, sql)
		})
	}
}

// TestAnalyzeSQLBatchesEveryContext: with batching on, every context reaches
// the database inside a batch — zero per-instance executions — and one batch
// of one binding, the set form's, answers for all contexts of a property;
// with batchsize 1, batching is off entirely.
func TestAnalyzeSQLBatchesEveryContext(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	run := lastRun(g)

	q := &trafficExec{Embedded: godbc.Embedded{DB: db}}
	a := New(g, WithBatchSize(4))
	rep, err := a.AnalyzeSQL(run, q)
	if err != nil {
		t.Fatal(err)
	}
	total := len(rep.Instances) + rep.Skipped + len(rep.Diagnostics)
	if q.perExec != 0 {
		t.Errorf("%d per-instance executions on the batched path", q.perExec)
	}
	if q.batches != len(a.props) || q.bindings != len(a.props) {
		t.Errorf("%d batches carried %d bindings for %d properties, want one of one each", q.batches, q.bindings, len(a.props))
	}
	if q.batches >= total {
		t.Errorf("%d batches for %d instances: no amortization", q.batches, total)
	}
	if n, last := a.Fallbacks(); n != 0 {
		t.Errorf("%d set-form fallbacks on clean data (last %s)", n, last)
	}

	q2 := &trafficExec{Embedded: godbc.Embedded{DB: db}}
	a2 := New(g, WithBatchSize(1))
	if _, err := a2.AnalyzeSQL(run, q2); err != nil {
		t.Fatal(err)
	}
	if q2.batches != 0 {
		t.Errorf("%d batches with batching disabled", q2.batches)
	}
	if q2.perExec != total {
		t.Errorf("%d per-instance executions for %d instances with batching disabled", q2.perExec, total)
	}
}

// TestGuidedSQLBatchesGroups: the refinement search ships each step's
// contexts as batches and never per instance when batching is on.
func TestGuidedSQLBatchesGroups(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	q := &trafficExec{Embedded: godbc.Embedded{DB: db}}
	a := New(g, WithBatchSize(DefaultBatchSize))
	_, stats, err := a.AnalyzeGuidedSQL(lastRun(g), DefaultHierarchy(), q)
	if err != nil {
		t.Fatal(err)
	}
	if q.perExec != 0 {
		t.Errorf("%d per-instance executions on the batched guided path", q.perExec)
	}
	if q.bindings != stats.Evaluated {
		t.Errorf("batches carried %d bindings for %d evaluated instances", q.bindings, stats.Evaluated)
	}
	if q.batches == 0 || q.batches >= stats.Evaluated {
		t.Errorf("%d batches for %d instances: no amortization", q.batches, stats.Evaluated)
	}
	if live := db.Stats().PreparedLive; live != 0 {
		t.Errorf("%d prepared handles leaked", live)
	}
}
