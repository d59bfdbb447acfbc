package service_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apprentice"
	"repro/internal/asl/sqlgen"
	"repro/internal/core"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

// buildGraph simulates a small workload and materializes its model graph.
func buildGraph(t testing.TB) *model.Graph {
	t.Helper()
	ds, err := apprentice.Simulate(apprentice.Particles(), apprentice.PartitionSweep(2, 8, 32), 42)
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// loadEmbedded loads the graph into a fresh embedded database.
func loadEmbedded(t testing.TB, g *model.Graph) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	exec := sqlgen.ExecutorFunc(func(q string, p *sqldb.Params) (int, error) {
		res, err := db.Exec(q, p)
		if err != nil {
			return 0, err
		}
		return res.Affected, nil
	})
	if err := sqlgen.CreateSchema(g.World, exec); err != nil {
		t.Fatal(err)
	}
	if _, err := sqlgen.Load(g.Store, exec); err != nil {
		t.Fatal(err)
	}
	return db
}

// startWirePool starts a wire server over a loaded database and returns a
// connection pool dialed at it.
func startWirePool(t testing.TB, g *model.Graph, profile wire.Profile, conns int) *godbc.Pool {
	t.Helper()
	db := loadEmbedded(t, g)
	srv, err := wire.NewServer(db, profile, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pool, err := godbc.NewPool(srv.Addr(), conns)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })
	return pool
}

// startService assembles a full service over a wire-backed pool and serves it
// on a loopback listener, returning the service and its address.
func startService(t testing.TB, profile wire.Profile, cfg service.Config) (*service.Service, string) {
	t.Helper()
	g := buildGraph(t)
	conns := cfg.Capacity * 2
	if conns < 4 {
		conns = 4
	}
	pool := startWirePool(t, g, profile, conns)
	svc := service.New(g, pool, cfg)
	srv := service.NewServer(svc, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return svc, srv.Addr()
}

func dialClient(t testing.TB, addr string) *service.Client {
	t.Helper()
	c, err := service.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServiceAnalyzeOverWire(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, addr := startService(t, wire.ProfileFast, service.Config{Capacity: 2})
	c := dialClient(t, addr)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Analyze(context.Background(), "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "particles") {
		t.Fatalf("report does not mention the workload:\n%s", rep)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 1 || st.InFlight != 0 {
		t.Fatalf("stats after one analysis: %+v", st)
	}
}

// TestServiceReportMatchesDirectAnalyzer: the resident service must be
// invisible in the output — its rendered report is byte-identical to a direct
// core analysis of the same run, across worker counts and shard counts.
func TestServiceReportMatchesDirectAnalyzer(t *testing.T) {
	g := buildGraph(t)
	db := loadEmbedded(t, g)
	runs := g.Dataset.Versions[0].Runs
	run := runs[len(runs)-1]

	ref := core.New(g)
	want, err := ref.AnalyzeSQL(run, godbc.Embedded{DB: db})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 2} {
			svc := newShardedService(t, g, shards, service.Config{Capacity: 2, Workers: workers})
			rep, err := svc.Analyze(context.Background(), "tenant", 0)
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			if got := rep.Render(); got != want.Render() {
				t.Errorf("workers=%d shards=%d: service report differs from direct analyzer:\n--- direct ---\n%s--- service ---\n%s",
					workers, shards, want.Render(), got)
			}
		}
	}
}

// newShardedService builds a service over n wire shards (n=1 uses a plain
// pool), each at ProfileFast.
func newShardedService(t testing.TB, g *model.Graph, n int, cfg service.Config) *service.Service {
	t.Helper()
	if n == 1 {
		return service.New(g, startWirePool(t, g, wire.ProfileFast, 8), cfg)
	}
	addrs := make([]string, n)
	dbs := make([]*sqldb.DB, n)
	for i := range addrs {
		dbs[i] = sqldb.NewDB()
		srv, err := wire.NewServer(dbs[i], wire.ProfileFast, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	sdb, err := godbc.DialSharded(addrs, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	execs := make([]sqlgen.Executor, n)
	for i, db := range dbs {
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
	return service.New(g, sdb, cfg)
}

// TestServiceDeadlineSheds: a request whose DeadlineMillis has no chance
// comes back as canceled, not as a partial report.
func TestServiceDeadlineSheds(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, addr := startService(t, wire.ProfileOracleRemote, service.Config{Capacity: 2})
	c := dialClient(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := c.Analyze(ctx, "alice", 0)
	if err == nil {
		t.Fatal("analysis under a 5ms deadline on a 2ms-RTT profile succeeded")
	}
	// The connection survives an abandoned request.
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after canceled analysis: %v", err)
	}
}

// TestServiceConcurrentTenants: many tenants at once, all served, stats add
// up, capacity respected.
func TestServiceConcurrentTenants(t *testing.T) {
	testutil.CheckGoroutines(t)
	svc, addr := startService(t, wire.ProfileFast, service.Config{Capacity: 2})
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		c := dialClient(t, addr)
		wg.Add(1)
		go func(i int, c *service.Client) {
			defer wg.Done()
			_, errs[i] = c.Analyze(context.Background(), string(rune('a'+i)), 0)
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("tenant %d: %v", i, err)
		}
	}
	st := svc.Admission().Stats()
	if st.Admitted != n {
		t.Errorf("admitted = %d, want %d", st.Admitted, n)
	}
	if st.InFlight != 0 || st.Waiting != 0 {
		t.Errorf("occupancy after drain: %+v", st)
	}
}

// recordingExec is an embedded executor that remembers every parameter set a
// batched execution hands it, by identity.
type recordingExec struct {
	godbc.Embedded
	mu   sync.Mutex
	seen map[*sqldb.Params]bool
}

func (e *recordingExec) PrepareQuery(sql string) (sqlgen.PreparedQuery, error) {
	pq, err := e.Embedded.PrepareQuery(sql)
	if err != nil {
		return nil, err
	}
	return &recordingStmt{BatchPreparedQuery: pq.(sqlgen.BatchPreparedQuery), exec: e}, nil
}

type recordingStmt struct {
	sqlgen.BatchPreparedQuery
	exec *recordingExec
}

func (s *recordingStmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	s.exec.mu.Lock()
	for _, p := range bindings {
		s.exec.seen[p] = true
	}
	s.exec.mu.Unlock()
	return s.BatchPreparedQuery.ExecQueryBatch(bindings)
}

// TestTenantsShareOnePlan: the service runs every request on one analyzer, so
// concurrent requests of different tenants execute the very same parameter
// sets — the run's evaluation plan, built once — and the analyzer is the one
// the Config describes: its threshold is in every report.
func TestTenantsShareOnePlan(t *testing.T) {
	g := buildGraph(t)
	q := &recordingExec{Embedded: godbc.Embedded{DB: loadEmbedded(t, g)}, seen: make(map[*sqldb.Params]bool)}
	const threshold = 0.5
	svc := service.New(g, q, service.Config{Capacity: 2, Workers: 2, Threshold: threshold})

	runs := g.Dataset.Versions[0].Runs
	want, err := core.New(g, core.WithThreshold(threshold)).AnalyzeSQL(runs[len(runs)-1], godbc.Embedded{DB: q.DB})
	if err != nil {
		t.Fatal(err)
	}
	if def, _ := core.New(g).AnalyzeSQL(runs[len(runs)-1], godbc.Embedded{DB: q.DB}); def.Render() == want.Render() {
		t.Fatal("the threshold under test does not change the report")
	}

	var wg sync.WaitGroup
	for i := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := svc.Analyze(context.Background(), []string{"alice", "bob"}[i%2], 0)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if got := rep.Render(); got != want.Render() {
				t.Errorf("request %d: report differs from a direct analysis at threshold %v:\n%s", i, threshold, got)
			}
		}()
	}
	wg.Wait()
	// One set-form binding per property and run, whoever asks.
	if len(q.seen) != len(model.AllProperties) {
		t.Fatalf("six requests executed %d distinct parameter sets for %d properties: the plan was rebuilt", len(q.seen), len(model.AllProperties))
	}
}
