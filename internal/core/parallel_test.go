package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// renderWith runs one analysis and returns the rendered report. The worker
// count is the analyzer's own, fixed at construction with WithWorkers.
func renderWith(t *testing.T, analyze func() (*Report, error)) string {
	t.Helper()
	rep, err := analyze()
	if err != nil {
		t.Fatal(err)
	}
	return rep.Render()
}

// The parallel pipeline must be invisible in the output: for every engine,
// the report rendered with N workers is byte-identical to the serial one.
// Run with -race to exercise the concurrent substrates.
func TestParallelObjectDeterminism(t *testing.T) {
	for name, w := range apprentice.Library() {
		g := buildGraph(t, w)
		run := lastRun(g)
		serial := renderWith(t, func() (*Report, error) { return New(g, WithWorkers(1)).AnalyzeObject(run) })
		for _, workers := range []int{2, 4, 8} {
			got := renderWith(t, func() (*Report, error) { return New(g, WithWorkers(workers)).AnalyzeObject(run) })
			if got != serial {
				t.Errorf("workload %s: workers=%d report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", name, workers, serial, got)
			}
		}
	}
}

func TestParallelSQLDeterminism(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	run := lastRun(g)
	q := godbc.Embedded{DB: db}
	serial := renderWith(t, func() (*Report, error) { return New(g, WithWorkers(1)).AnalyzeSQL(run, q) })
	for _, workers := range []int{2, 8} {
		got := renderWith(t, func() (*Report, error) { return New(g, WithWorkers(workers)).AnalyzeSQL(run, q) })
		if got != serial {
			t.Errorf("workers=%d SQL report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", workers, serial, got)
		}
	}
}

func TestParallelClientSideDeterminism(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	db := loadDB(t, g)
	run := lastRun(g)
	q := godbc.Embedded{DB: db}
	serial := renderWith(t, func() (*Report, error) { return New(g, WithWorkers(1)).AnalyzeClientSide(run, q) })
	got := renderWith(t, func() (*Report, error) { return New(g, WithWorkers(8)).AnalyzeClientSide(run, q) })
	if got != serial {
		t.Errorf("workers=8 client-side report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, got)
	}
}

// TestParallelSQLOverPool drives the full networked stack concurrently:
// wire server, godbc connection pool, SQL engine with 8 workers.
func TestParallelSQLOverPool(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	srv, err := wire.NewServer(db, wire.Profile{}, nil)
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
	serial := renderWith(t, func() (*Report, error) { return New(g, WithWorkers(1)).AnalyzeSQL(run, godbc.Embedded{DB: db}) })
	got := renderWith(t, func() (*Report, error) { return New(g, WithWorkers(8)).AnalyzeSQL(run, pool) })
	if got != serial {
		t.Errorf("pooled SQL report differs from embedded serial:\n--- serial ---\n%s--- pooled ---\n%s", serial, got)
	}
}

// A bare connection is one socket with an ordered protocol; the analyzer
// must not share it between workers.
func TestSerialFallbackForBareConn(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	a := New(g, WithWorkers(8))
	if got := a.queryWorkers(queryExecFunc(nil)); got != 1 {
		t.Errorf("queryWorkers(non-concurrent) = %d, want 1", got)
	}
	db := loadDB(t, g)
	if got := a.queryWorkers(godbc.Embedded{DB: db}); got != 8 {
		t.Errorf("queryWorkers(Embedded) = %d, want 8", got)
	}
}

// queryExecFunc adapts a function to QueryExec without advertising
// concurrency.
type queryExecFunc func(query string, params *sqldb.Params) (*sqldb.ResultSet, error)

func (f queryExecFunc) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return f(query, params)
}

func TestRunPool(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 10}, {4, 10}, {16, 3}, {4, 0}, {0, 5}} {
		var hits atomic.Int64
		seen := make([]bool, tc.n)
		runPool(tc.workers, tc.n, func(worker, i int) {
			hits.Add(1)
			seen[i] = true
		})
		if int(hits.Load()) != tc.n {
			t.Errorf("runPool(%d, %d): %d calls, want %d", tc.workers, tc.n, hits.Load(), tc.n)
		}
		for i, ok := range seen {
			if !ok {
				t.Errorf("runPool(%d, %d): item %d never ran", tc.workers, tc.n, i)
			}
		}
	}
}

func TestWorkersOption(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil(), 2, 8)
	if w := New(g, WithWorkers(3)).Workers(); w != 3 {
		t.Errorf("WithWorkers(3): Workers() = %d", w)
	}
	if w := New(g).Workers(); w < 1 {
		t.Errorf("default Workers() = %d, want >= 1", w)
	}
}
