package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// shardHarness is an in-process multi-shard COSY database: n wire servers,
// each over its own engine, loaded run-wise with sqlgen.LoadSharded under
// the same routing policy the client routes queries with.
type shardHarness struct {
	servers []*wire.Server
	dbs     []*sqldb.DB
	sdb     *godbc.ShardedDB
}

// startShardHarness shards a graph across n zero-overhead servers and dials
// them.
func startShardHarness(t testing.TB, g *model.Graph, n int, opts ...godbc.ShardedOption) *shardHarness {
	t.Helper()
	return startProfiledShardHarness(t, g, n, wire.ProfileFast, opts...)
}

// shardConns is the harness's pool size per shard.
const shardConns = 8

// startProfiledShardHarness is startShardHarness with the servers charging
// the given vendor profile.
func startProfiledShardHarness(t testing.TB, g *model.Graph, n int, profile wire.Profile, opts ...godbc.ShardedOption) *shardHarness {
	t.Helper()
	h := &shardHarness{}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		db := sqldb.NewDB()
		srv, err := wire.NewServer(db, profile, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		h.servers = append(h.servers, srv)
		h.dbs = append(h.dbs, db)
		addrs[i] = srv.Addr()
	}
	sdb, err := godbc.DialSharded(addrs, shardConns, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	h.sdb = sdb

	execs := make([]sqlgen.Executor, n)
	for i, db := range h.dbs {
		db := db
		execs[i] = sqlgen.ExecutorFunc(func(q string, p *sqldb.Params) (int, error) {
			res, err := db.Exec(q, p)
			if err != nil {
				return 0, err
			}
			return res.Affected, nil
		})
		if err := sqlgen.CreateSchema(g.World, execs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sqlgen.LoadSharded(g.Store, model.RunPartitioned(), sdb.ShardFor, execs...); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestShardedMatchesSingleNode: for every shard count, worker count, and
// batch size, the sharded analysis renders byte-identically to the embedded
// single-node reference — sharding must be invisible in the output.
func TestShardedMatchesSingleNode(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	run := lastRun(g)

	ref := New(g, WithWorkers(1))
	want := renderWith(t, func() (*Report, error) { return ref.AnalyzeSQL(run, godbc.Embedded{DB: db}) })

	for _, shards := range []int{1, 2, 4} {
		h := startShardHarness(t, g, shards)
		for _, workers := range []int{1, 8} {
			for _, batch := range []int{1, 4, DefaultBatchSize} {
				a := New(g, WithWorkers(workers), WithBatchSize(batch))
				got := renderWith(t, func() (*Report, error) { return a.AnalyzeSQL(run, h.sdb) })
				if got != want {
					t.Errorf("shards=%d workers=%d batch=%d report differs from single node:\n--- single ---\n%s--- sharded ---\n%s",
						shards, workers, batch, want, got)
				}
			}
		}
	}
}

// TestShardedAnalysisTouchesOnlyOwningShard: all of one run's property
// queries must land on the shard that owns the run; the other shards serve
// nothing. The per-database batch statistics expose who executed what.
func TestShardedAnalysisTouchesOnlyOwningShard(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)
	h := startShardHarness(t, g, 4)
	a := New(g)
	if _, err := a.AnalyzeSQL(run, h.sdb); err != nil {
		t.Fatal(err)
	}
	owner := h.sdb.ShardFor(g.Runs[run].ID)
	for i, db := range h.dbs {
		st := db.Stats()
		if i == owner && st.BatchExecs == 0 {
			t.Errorf("owning shard %d served no batches", i)
		}
		if i != owner && st.BatchExecs != 0 {
			t.Errorf("shard %d served %d batches for a run it does not own", i, st.BatchExecs)
		}
	}
}

// TestShardedGuidedMatchesObject: the sharded refinement search must visit
// the same instances with the same outcomes as the object-engine search.
func TestShardedGuidedMatchesObject(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)
	h := startShardHarness(t, g, 2)
	a := New(g, WithBatchSize(3))
	obj, objStats, err := a.AnalyzeGuided(run, DefaultHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	sql, sqlStats, err := a.AnalyzeGuidedSQL(run, DefaultHierarchy(), h.sdb)
	if err != nil {
		t.Fatal(err)
	}
	if objStats.Evaluated != sqlStats.Evaluated || objStats.Exhaustive != sqlStats.Exhaustive {
		t.Fatalf("search stats differ: object %+v, sharded sql %+v", objStats, sqlStats)
	}
	compareReports(t, obj, sql)
}

// TestShardDownAbortsAnalysis: with the owning shard unreachable, both the
// exhaustive and the guided analysis must fail outright — naming the shard's
// address — rather than deliver a report full of diagnostics.
func TestShardDownAbortsAnalysis(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)
	h := startShardHarness(t, g, 2)
	owner := h.sdb.ShardFor(g.Runs[run].ID)
	deadAddr := h.servers[owner].Addr()
	if err := h.servers[owner].Close(); err != nil {
		t.Fatal(err)
	}

	a := New(g)
	rep, err := a.AnalyzeSQL(run, h.sdb)
	if err == nil {
		t.Fatal("analysis over a dead shard produced a report")
	}
	if rep != nil {
		t.Fatal("partial report returned alongside the error")
	}
	var se *godbc.ShardError
	if !errors.As(err, &se) || se.Addr != deadAddr {
		t.Fatalf("error does not identify the dead shard %s: %v", deadAddr, err)
	}
	if !strings.Contains(err.Error(), deadAddr) {
		t.Fatalf("error text lacks the shard address: %v", err)
	}

	grep, _, gerr := a.AnalyzeGuidedSQL(run, DefaultHierarchy(), h.sdb)
	if gerr == nil || grep != nil {
		t.Fatalf("guided analysis over a dead shard: report=%v err=%v", grep, gerr)
	}
	if !strings.Contains(gerr.Error(), deadAddr) {
		t.Fatalf("guided error lacks the shard address: %v", gerr)
	}

	// Runs owned by the surviving shard still analyze.
	for _, r := range g.Dataset.Versions[0].Runs {
		if h.sdb.ShardFor(g.Runs[r].ID) != owner {
			if _, err := a.AnalyzeSQL(r, h.sdb); err != nil {
				t.Fatalf("run on the live shard failed: %v", err)
			}
			return
		}
	}
	t.Log("all runs hash to the dead shard; live-shard check skipped")
}
