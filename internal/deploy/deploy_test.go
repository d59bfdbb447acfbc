package deploy_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// TestConns: a pool is sized by the worker count analyses really run with.
// cosyd used to size by the -workers flag as given, so its default (0, which
// core reads as GOMAXPROCS workers per analysis) dialed one connection per
// admitted analysis for GOMAXPROCS times as many concurrent queries.
func TestConns(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ analyses, workers, want int }{
		{4, 0, 4 * procs}, // cosyd -capacity 4, -workers omitted
		{4, 3, 12},
		{1, 0, procs}, // cosy, -workers omitted
		{1, 1, 1},
	} {
		if got := deploy.Conns(c.analyses, c.workers); got != c.want {
			t.Errorf("Conns(%d, %d) = %d, want %d", c.analyses, c.workers, got, c.want)
		}
	}
}

func startServer(t *testing.T) string {
	t.Helper()
	srv, err := wire.NewServer(sqldb.NewDB(), wire.ProfileFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestOpen: no address, one, and several bring up an embedded engine, a pool,
// and a sharded database — each loaded, each sized as asked, and all three
// answering an analysis with the same report; -preloaded skips the load.
func TestOpen(t *testing.T) {
	ds, err := deploy.Dataset("", "particles")
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	run := ds.Run(0)
	one := startServer(t)
	var want string // the embedded engine's report
	conns := deploy.Conns(2, 0)
	for _, c := range []struct {
		name      string
		addrs     []string
		preloaded bool
		executor  string
	}{
		{"embedded", nil, false, "godbc.Embedded"},
		{"pool", []string{one}, false, "*godbc.Pool"},
		{"pool preloaded", []string{one}, true, "*godbc.Pool"},
		{"sharded", []string{startServer(t), startServer(t)}, false, "*godbc.ShardedDB"},
	} {
		t.Run(c.name, func(t *testing.T) {
			q, closeDB, err := deploy.Open(g, c.addrs, conns, c.preloaded)
			if err != nil {
				t.Fatal(err)
			}
			defer closeDB()
			if got := fmt.Sprintf("%T", q); got != c.executor {
				t.Fatalf("executor is a %s, want %s", got, c.executor)
			}
			switch q := q.(type) {
			case *godbc.Pool:
				if q.Size() != conns {
					t.Errorf("pool of %d connections, want %d", q.Size(), conns)
				}
			case *godbc.ShardedDB:
				if got := q.Pool(1).Size(); got != conns {
					t.Errorf("shard pools of %d connections, want %d", got, conns)
				}
			}
			rep, err := core.New(g).AnalyzeSQL(run, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Render(); want == "" {
				want = got
			} else if got != want {
				t.Errorf("report differs from the embedded engine's:\n%s", got)
			}
		})
	}
	if _, _, err := deploy.Open(g, []string{one}, 1, false); err == nil {
		t.Error("loading a server twice succeeded; the preloaded case above proved nothing")
	}
	if _, err := deploy.Dataset("", "no-such-workload"); err == nil {
		t.Error("unknown workload accepted")
	}
}
