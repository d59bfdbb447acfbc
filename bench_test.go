// The benchmark harness: one benchmark family per experiment of
// EXPERIMENTS.md, regenerating every quantitative claim of the paper's
// evaluation (Section 5) plus the ablations of DESIGN.md.
//
// Run with:
//
//	go test -bench=. -benchmem .
package repro_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/apprentice"
	"repro/internal/asl/parser"
	"repro/internal/asl/sem"
	"repro/internal/asl/sqlgen"
	"repro/internal/core"
	"repro/internal/earl"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/paradyn"
	"repro/internal/service"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

// mustGraph simulates and materializes a workload.
func mustGraph(b *testing.B, w *apprentice.Workload, pes ...int) *model.Graph {
	b.Helper()
	ds, err := apprentice.Simulate(w, apprentice.PartitionSweep(pes...), 42)
	if err != nil {
		b.Fatal(err)
	}
	g, err := model.Build(ds)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func embeddedExecutor(db *sqldb.DB) sqlgen.ExecutorFunc {
	return func(q string, p *sqldb.Params) (int, error) {
		res, err := db.Exec(q, p)
		if err != nil {
			return 0, err
		}
		return res.Affected, nil
	}
}

// uncachedDB returns a fresh database with the result cache disabled. Every
// benchmark that measures repeated executions of the same statements uses it:
// with the cache on, iterations after the first would be answered from the
// result cache and the benchmark would measure the cache instead of the
// pipeline it exists for. Only E11 (BenchmarkCachedAnalyze) runs cache-on.
func uncachedDB() *sqldb.DB {
	db := sqldb.NewDB()
	db.SetResultCacheSize(0)
	return db
}

// startServer launches a wire server over a fresh cache-disabled database
// with the COSY schema created, and returns a connected client.
func startServer(b *testing.B, profile wire.Profile) (*sqldb.DB, *godbc.Conn) {
	b.Helper()
	db := uncachedDB()
	if err := sqlgen.CreateSchema(model.MustCompileSpec(), embeddedExecutor(db)); err != nil {
		b.Fatal(err)
	}
	srv, err := wire.NewServer(db, profile, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		srv.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		conn.Close()
		srv.Close()
	})
	return db, conn
}

// connExecutor adapts a godbc connection to the loader interface.
func connExecutor(c *godbc.Conn) sqlgen.ExecutorFunc {
	return func(q string, p *sqldb.Params) (int, error) {
		res, err := c.Exec(q, p)
		if err != nil {
			return 0, err
		}
		return res.Affected, nil
	}
}

// ---------------------------------------------------------------------------
// E1 — Figure 1: the ASL grammar. Parsing and checking the full canonical
// specification (data model + 8 properties).
// ---------------------------------------------------------------------------

func BenchmarkASLParse(b *testing.B) {
	b.SetBytes(int64(len(model.SpecSource)))
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(model.SpecSource); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkASLCheck(b *testing.B) {
	spec, err := parser.Parse(model.SpecSource)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sem.Check(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// E2 — Section 4.2: evaluating the property set over a test run with the
// object engine (the semantic reference).
// ---------------------------------------------------------------------------

func BenchmarkPropertyEvaluation(b *testing.B) {
	g := mustGraph(b, apprentice.Particles(), 2, 8, 32)
	run := g.Dataset.Versions[0].Runs[2]
	a := core.New(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := a.AnalyzeObject(run)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Bottleneck() == nil {
			b.Fatal("no bottleneck")
		}
	}
}

// ---------------------------------------------------------------------------
// E3 — Section 5: insertion performance across database configurations.
// The paper: MS Access (local) ≈ 20× faster than Oracle 7 (networked);
// MS SQL Server and Postgres ≈ 2× faster than Oracle. The row leg inserts
// record at a time, as the paper did; the bulk leg runs the load plan's
// multi-row INSERTs. Both report ns per inserted row.
// ---------------------------------------------------------------------------

func BenchmarkInsertionByBackend(b *testing.B) {
	world := model.MustCompileSpec()
	g := mustGraph(b, apprentice.ScaledStencil(3, 3), 2, 8)
	bulk, err := sqlgen.LoadPlan(g.Store)
	if err != nil {
		b.Fatal(err)
	}
	// The paper's record-at-a-time insertion: every row of the load plan as
	// an INSERT of its own.
	var rows []sqlgen.Statement
	for _, st := range bulk {
		each, err := testutil.RowInserts(st.SQL, st.Params)
		if err != nil {
			b.Fatal(err)
		}
		for _, ri := range each {
			rows = append(rows, sqlgen.Statement{SQL: ri.SQL, Params: ri.Params})
		}
	}
	records := int64(len(rows))
	load := func(b *testing.B, plan []sqlgen.Statement, exec sqlgen.Executor) {
		for _, st := range plan {
			if _, err := exec.Exec(st.SQL, st.Params); err != nil {
				b.Fatal(err)
			}
		}
	}

	for _, leg := range []struct {
		name string
		plan []sqlgen.Statement
	}{{"row", rows}, {"bulk", bulk}} {
		b.Run(leg.name+"/access-embedded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := uncachedDB()
				if err := sqlgen.CreateSchema(world, embeddedExecutor(db)); err != nil {
					b.Fatal(err)
				}
				pe := godbc.Embedded{DB: db, Profile: wire.ProfileAccess}
				load(b, leg.plan, sqlgen.ExecutorFunc(func(q string, p *sqldb.Params) (int, error) {
					res, err := pe.Exec(q, p)
					return res.Affected, err
				}))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records)/float64(b.N), "ns/record")
		})
		for _, profile := range []wire.Profile{wire.ProfileOracle, wire.ProfileMSSQL, wire.ProfilePostgres} {
			b.Run(leg.name+"/"+profile.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					_, conn := startServer(b, profile)
					b.StartTimer()
					load(b, leg.plan, connExecutor(conn))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records)/float64(b.N), "ns/record")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E4 — Section 5: record-fetch cost. The paper: ≈1 ms per record through
// JDBC against the Oracle server; JDBC 2–4× slower than C-based access.
// The godbc row-at-a-time cursor is the JDBC analogue; the batched cursor
// is JDBC with setFetchSize; the embedded scan is the C-based analogue.
// ---------------------------------------------------------------------------

func BenchmarkRecordFetch(b *testing.B) {
	g := mustGraph(b, apprentice.ScaledStencil(4, 4), 2, 8, 32)

	setup := func(b *testing.B, profile wire.Profile) (*sqldb.DB, *godbc.Conn, int64) {
		db, conn := startServer(b, profile)
		if _, err := sqlgen.Load(g.Store, embeddedExecutor(db)); err != nil {
			b.Fatal(err)
		}
		res, err := db.Exec("SELECT COUNT(*) FROM TotalTiming", nil)
		if err != nil {
			b.Fatal(err)
		}
		return db, conn, res.Set.Rows[0][0].Int()
	}

	b.Run("godbc-row-at-a-time", func(b *testing.B) {
		_, conn, records := setup(b, wire.ProfileOracle)
		conn.SetFetchSize(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := conn.Query("SELECT id, Excl, Incl, Ovhd FROM TotalTiming", nil)
			if err != nil {
				b.Fatal(err)
			}
			n := int64(0)
			for rows.Next() {
				n++
			}
			if rows.Err() != nil || n != records {
				b.Fatalf("fetched %d of %d: %v", n, records, rows.Err())
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records)/float64(b.N), "ns/record")
	})
	b.Run("godbc-batched-100", func(b *testing.B) {
		_, conn, records := setup(b, wire.ProfileOracle)
		conn.SetFetchSize(100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows, err := conn.Query("SELECT id, Excl, Incl, Ovhd FROM TotalTiming", nil)
			if err != nil {
				b.Fatal(err)
			}
			n := int64(0)
			for rows.Next() {
				n++
			}
			if rows.Err() != nil || n != records {
				b.Fatalf("fetched %d of %d: %v", n, records, rows.Err())
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records)/float64(b.N), "ns/record")
	})
	b.Run("bulk-c-style", func(b *testing.B) {
		// Single-round-trip array fetch: the "C-based access" the paper
		// compares JDBC against.
		_, conn, records := setup(b, wire.ProfileOracle)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set, err := conn.ExecQuery("SELECT id, Excl, Incl, Ovhd FROM TotalTiming", nil)
			if err != nil {
				b.Fatal(err)
			}
			if int64(len(set.Rows)) != records {
				b.Fatalf("fetched %d of %d", len(set.Rows), records)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records)/float64(b.N), "ns/record")
	})
	b.Run("direct-embedded", func(b *testing.B) {
		db := uncachedDB()
		exec := embeddedExecutor(db)
		if err := sqlgen.CreateSchema(model.MustCompileSpec(), exec); err != nil {
			b.Fatal(err)
		}
		if _, err := sqlgen.Load(g.Store, exec); err != nil {
			b.Fatal(err)
		}
		var records int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Exec("SELECT id, Excl, Incl, Ovhd FROM TotalTiming", nil)
			if err != nil {
				b.Fatal(err)
			}
			records = int64(len(res.Set.Rows))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records)/float64(b.N), "ns/record")
	})
}

// ---------------------------------------------------------------------------
// E5 — Section 5: where to evaluate property conditions. The paper: pushing
// the conditions entirely into SQL beats fetching the data components and
// evaluating in the tool.
// ---------------------------------------------------------------------------

func BenchmarkEvalPlacement(b *testing.B) {
	// Database volume dominates the trade-off, as in the paper: the client
	// path ships every record of every table (the database holds the whole
	// test-run history), the SQL path ships one query and one result row per
	// property instance of the single run under analysis.
	g := mustGraph(b, apprentice.ScaledStencil(6, 6), 2, 4, 8, 16, 32, 64)
	run := g.Dataset.Versions[0].Runs[5]
	a := core.New(g)

	b.Run("server-sql", func(b *testing.B) {
		db, conn := startServer(b, wire.ProfilePostgres)
		if _, err := sqlgen.Load(g.Store, embeddedExecutor(db)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := a.AnalyzeSQL(run, conn)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Bottleneck() == nil {
				b.Fatal("no bottleneck")
			}
		}
	})
	b.Run("client-fetch-eval-cursor", func(b *testing.B) {
		// JDBC-style: every record of every table comes over the wire
		// through a row-at-a-time cursor, then the tool evaluates.
		db, conn := startServer(b, wire.ProfilePostgres)
		if _, err := sqlgen.Load(g.Store, embeddedExecutor(db)); err != nil {
			b.Fatal(err)
		}
		conn.SetFetchSize(1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := a.AnalyzeClientSide(run, godbc.CursorQuery{Conn: conn})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Bottleneck() == nil {
				b.Fatal("no bottleneck")
			}
		}
	})
	b.Run("client-fetch-eval-bulk", func(b *testing.B) {
		// Best-case client side: whole tables in single round trips.
		db, conn := startServer(b, wire.ProfilePostgres)
		if _, err := sqlgen.Load(g.Store, embeddedExecutor(db)); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := a.AnalyzeClientSide(run, conn)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Bottleneck() == nil {
				b.Fatal("no bottleneck")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E6 — Section 3: total-cost analysis across a partition sweep (simulation
// plus analysis end to end).
// ---------------------------------------------------------------------------

func BenchmarkScalingSweep(b *testing.B) {
	for _, pes := range [][]int{{2, 8}, {2, 8, 32}, {2, 8, 32, 128}} {
		b.Run(fmt.Sprintf("runs=%d", len(pes)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ds, err := apprentice.Simulate(apprentice.Amdahl(), apprentice.PartitionSweep(pes...), 42)
				if err != nil {
					b.Fatal(err)
				}
				g, err := model.Build(ds)
				if err != nil {
					b.Fatal(err)
				}
				a := core.New(g)
				for _, run := range ds.Versions[0].Runs {
					if _, err := a.AnalyzeObject(run); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E7 — the parallel evaluation pipeline: the scaling-sweep workload analyzed
// with the worker pool at 1, 2, 4, and 8 workers. workers=1 is the serial
// code path; the rendered report is byte-identical at every width (see
// internal/core TestParallel*Determinism).
// ---------------------------------------------------------------------------

func BenchmarkParallelAnalyze(b *testing.B) {
	g := mustGraph(b, apprentice.Amdahl(), 2, 4, 8, 16, 32, 64, 128)
	runs := g.Dataset.Versions[0].Runs

	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("object/workers=%d", workers), func(b *testing.B) {
			a := core.New(g, core.WithWorkers(workers))
			for i := 0; i < b.N; i++ {
				for _, run := range runs {
					rep, err := a.AnalyzeObject(run)
					if err != nil {
						b.Fatal(err)
					}
					if rep.Bottleneck() == nil {
						b.Fatal("no bottleneck")
					}
				}
			}
		})
	}

	db := uncachedDB()
	exec := embeddedExecutor(db)
	if err := sqlgen.CreateSchema(g.World, exec); err != nil {
		b.Fatal(err)
	}
	if _, err := sqlgen.Load(g.Store, exec); err != nil {
		b.Fatal(err)
	}
	q := godbc.Embedded{DB: db}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("sql-embedded/workers=%d", workers), func(b *testing.B) {
			a := core.New(g, core.WithWorkers(workers))
			for i := 0; i < b.N; i++ {
				rep, err := a.AnalyzeSQL(runs[len(runs)-1], q)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Bottleneck() == nil {
					b.Fatal("no bottleneck")
				}
			}
		})
	}

	// The networked configurations: every property-instance query pays the
	// vendor profile's round-trip latency, which parallel workers overlap by
	// holding their own pooled connections. On the remote profile (the
	// paper's measured JDBC-to-Oracle deployment, ≈ms round trips) the
	// latency is slept rather than spun, so the speedup shows even on a
	// single core; the LAN profile adds hardware parallelism on multicore
	// hosts.
	for _, profile := range []wire.Profile{wire.ProfilePostgres, wire.ProfileOracleRemote} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("sql-wire-%s/workers=%d", profile.Name, workers), func(b *testing.B) {
				wdb := uncachedDB()
				if err := sqlgen.CreateSchema(g.World, embeddedExecutor(wdb)); err != nil {
					b.Fatal(err)
				}
				if _, err := sqlgen.Load(g.Store, embeddedExecutor(wdb)); err != nil {
					b.Fatal(err)
				}
				srv, err := wire.NewServer(wdb, profile, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := srv.Listen("127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				pool, err := godbc.NewPool(srv.Addr(), workers)
				if err != nil {
					b.Fatal(err)
				}
				defer pool.Close()
				a := core.New(g, core.WithWorkers(workers))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := a.AnalyzeSQL(runs[len(runs)-1], pool)
					if err != nil {
						b.Fatal(err)
					}
					if rep.Bottleneck() == nil {
						b.Fatal("no bottleneck")
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E9 — batching: the prepared analysis executed once per instance
// ("per-instance", batch size 1: one ReqExecBatch round trip of one binding
// per property × context) versus by the set form ("set-form/batch=N", any batch
// size above 1: one ReqExecBatch round trip of one binding per property, N
// sizing only the per-context batches a fallback would ship — none here, so
// the two set-form rows measure the same program). On the remote profile
// every round trip costs a real ≥2 ms sleep, so the instance count per
// property is the amortization factor; reports are byte-identical in every
// mode (see internal/core TestBatched*, TestSetForm*).
// ---------------------------------------------------------------------------

func BenchmarkBatchedAnalyze(b *testing.B) {
	// The scaled stencil gives each region property dozens of context
	// instances, the regime the set form exists for; with a handful of
	// contexts per property the per-property floor (one prepare plus one
	// execution) caps the win.
	g := mustGraph(b, apprentice.ScaledStencil(4, 4), 2, 8, 32)
	runs := g.Dataset.Versions[0].Runs
	run := runs[len(runs)-1]

	modes := []struct {
		name  string
		batch int
	}{
		{"per-instance", 1}, // one execution of the prepared handle per context
		{"set-form/batch=8", 8},
		{"set-form/batch=32", 32},
	}
	for _, mode := range modes {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("oracle-remote/%s/workers=%d", mode.name, workers), func(b *testing.B) {
				db := uncachedDB()
				if err := sqlgen.CreateSchema(g.World, embeddedExecutor(db)); err != nil {
					b.Fatal(err)
				}
				if _, err := sqlgen.Load(g.Store, embeddedExecutor(db)); err != nil {
					b.Fatal(err)
				}
				srv, err := wire.NewServer(db, wire.ProfileOracleRemote, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := srv.Listen("127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				pool, err := godbc.NewPool(srv.Addr(), workers)
				if err != nil {
					b.Fatal(err)
				}
				defer pool.Close()
				a := core.New(g, core.WithWorkers(workers), core.WithBatchSize(mode.batch))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rep, err := a.AnalyzeSQL(run, pool)
					if err != nil {
						b.Fatal(err)
					}
					if rep.Bottleneck() == nil {
						b.Fatal("no bottleneck")
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E10 — the sharding layer: a tuning-cycle sweep (every run of the dataset
// analyzed concurrently, the workload that made a single kojakdb the
// bottleneck) against a run-partitioned database of 1, 2, and 4 shards on
// the oracle-remote profile. Every server executes one statement at a time
// (SetMaxConcurrent(1)) — the finite capacity of the paper-era database host
// that an unbounded simulation would hide — so one saturated instance queues
// the sweep while four split both the data and the execution load. Reports
// are byte-identical at every shard count (see internal/core TestSharded*).
// ---------------------------------------------------------------------------

func BenchmarkShardedAnalyze(b *testing.B) {
	// A dozen runs give the router enough keys to spread: the sweep is the
	// unit of work, one analysis per run, all in flight at once. The scaled
	// stencil is sized so a region property's ~30 contexts fill a batch
	// whose accumulated per-binding cost crosses wire.Delay's sleep
	// threshold — server busy time is then slept, not spun, and the queueing
	// behind a saturated instance is visible even on a single-core host
	// (the same reasoning as E7's remote profile).
	g := mustGraph(b, apprentice.ScaledStencil(5, 5), 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96)
	runs := g.Dataset.Versions[0].Runs

	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("oracle-remote/shards=%d", shards), func(b *testing.B) {
			addrs := make([]string, shards)
			execs := make([]sqlgen.Executor, shards)
			for i := 0; i < shards; i++ {
				db := uncachedDB()
				execs[i] = embeddedExecutor(db)
				if err := sqlgen.CreateSchema(g.World, execs[i]); err != nil {
					b.Fatal(err)
				}
				srv, err := wire.NewServer(db, wire.ProfileOracleRemote, nil)
				if err != nil {
					b.Fatal(err)
				}
				srv.SetMaxConcurrent(1)
				if err := srv.Listen("127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				addrs[i] = srv.Addr()
			}
			sdb, err := godbc.DialSharded(addrs, 8)
			if err != nil {
				b.Fatal(err)
			}
			defer sdb.Close()
			if _, err := sqlgen.LoadSharded(g.Store, model.RunPartitioned(), sdb.ShardFor, execs...); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for _, run := range runs {
					wg.Add(1)
					go func(run *model.TestRun) {
						defer wg.Done()
						a := core.New(g, core.WithWorkers(4), core.WithBatchSize(32))
						rep, err := a.AnalyzeSQL(run, sdb)
						if err != nil {
							b.Error(err)
							return
						}
						if rep.Bottleneck() == nil {
							b.Error("no bottleneck")
						}
					}(run)
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(len(runs))/float64(b.N), "ns/run")
		})
	}
}

// ---------------------------------------------------------------------------
// E11 — the result cache: the tuning-cycle workload of repeated analyses.
// The user inspects hypotheses over an immutable run history, so the second
// and later analyses of the same run repeat exactly the (statement × binding)
// executions of the first. With the server's data-versioned result cache on,
// those repeats are answered without executing — no vendor statement or
// per-row cost, just the round trip — versus re-executing everything with the
// cache off. Both legs warm up with one untimed analysis, so the measured
// iterations are the "second analysis" of the cycle; reports are
// byte-identical in both modes (see internal/core TestCached*).
// ---------------------------------------------------------------------------

func BenchmarkCachedAnalyze(b *testing.B) {
	// The partition sweep is what the tuning cycle accumulates: a database
	// holding many runs makes every uncached property query scan real
	// history, which is exactly the work the cache elides on the repeat
	// analyses. Batches of 64 keep the round-trip count (identical in both
	// modes) small enough that execution, not latency, is the denominator.
	g := mustGraph(b, apprentice.ScaledStencil(15, 16), 2, 4, 8, 16, 32, 64)
	runs := g.Dataset.Versions[0].Runs
	run := runs[len(runs)-1]

	// The tuning cycle is a serial loop — the user inspects one hypothesis at
	// a time — so the on/off comparison runs at workers=1. (Parallel workers
	// overlap the same round-trip latency the cache elides, so they narrow
	// the measured gap without changing what the cache saves; E7 covers the
	// worker axis.)
	for _, mode := range []string{"cache=off", "cache=on"} {
		b.Run(fmt.Sprintf("oracle-remote/second-analysis/%s", mode), func(b *testing.B) {
			db := sqldb.NewDB()
			if mode == "cache=off" {
				db.SetResultCacheSize(0)
			}
			if err := sqlgen.CreateSchema(g.World, embeddedExecutor(db)); err != nil {
				b.Fatal(err)
			}
			if _, err := sqlgen.Load(g.Store, embeddedExecutor(db)); err != nil {
				b.Fatal(err)
			}
			srv, err := wire.NewServer(db, wire.ProfileOracleRemote, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			pool, err := godbc.NewPool(srv.Addr(), 1)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			a := core.New(g, core.WithWorkers(1), core.WithBatchSize(wire.MaxBatch))
			// Warm-up: the first analysis of the cycle (pays the misses).
			if _, err := a.AnalyzeSQL(run, pool); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := a.AnalyzeSQL(run, pool)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Bottleneck() == nil {
					b.Fatal("no bottleneck")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E19 — what a warm analysis allocates: the repository benchmark's warm_wire
// loop as a Go benchmark. One analyzer, one pooled connection to a fast-profile
// server, the result cache on and filled by an untimed first analysis, so the
// measured analyses execute nothing in the engine: what is left is core's
// per-analysis work, the driver, the codec on both ends and the cache lookups
// — and allocs/op is what the evaluation plan, the server's request scratch
// and the plan-marker cache key exist to keep per request, not per binding.
// ---------------------------------------------------------------------------

func BenchmarkWarmAnalyze(b *testing.B) {
	g := mustGraph(b, apprentice.ScaledStencil(15, 16), 2, 4, 8, 16, 32, 64)
	runs := g.Dataset.Versions[0].Runs
	run := runs[len(runs)-1]
	db := sqldb.NewDB()
	if err := sqlgen.CreateSchema(g.World, embeddedExecutor(db)); err != nil {
		b.Fatal(err)
	}
	if _, err := sqlgen.Load(g.Store, embeddedExecutor(db)); err != nil {
		b.Fatal(err)
	}
	srv, err := wire.NewServer(db, wire.ProfileFast, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	pool, err := godbc.NewPool(srv.Addr(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	a := core.New(g, core.WithWorkers(1), core.WithBatchSize(32))
	if _, err := a.AnalyzeSQL(run, pool); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := a.AnalyzeSQL(run, pool)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Bottleneck() == nil {
			b.Fatal("no bottleneck")
		}
	}
}

// ---------------------------------------------------------------------------
// E20 — what a cold analysis costs the engine: the repository benchmark's
// cold_embedded loop as a Go benchmark. The embedded engine with the result
// cache off, one worker, the default batch size, the last four runs in
// rotation: every analysis plans and executes its eight set-form statements
// from scratch, so ns/op is sqldb's vectorized execution plus core's row
// folding, with no transport in the way. This is the per-PR gate on engine
// parity of the set form. BenchmarkColdAnalyzeProperty splits it by
// property (EXPERIMENTS E20/E21's per-property table), each reporting the
// SELECT executions one analysis of that property costs the engine.
// ---------------------------------------------------------------------------

// coldState is the loaded database the cold-analysis benchmarks share: the
// repository benchmark's dataset, 24 runs, so the minimum-PE subquery of
// SublinearSpeedup/UnmeasuredCost folds 24 summaries per region.
var coldState struct {
	sync.Once
	g   *model.Graph
	db  *sqldb.DB
	err error
}

func coldDB(b *testing.B) (*model.Graph, *sqldb.DB) {
	b.Helper()
	s := &coldState
	s.Do(func() {
		pes := make([]int, 0, 24)
		for p := 2; p <= 25; p++ {
			pes = append(pes, p)
		}
		ds, err := apprentice.Simulate(apprentice.ScaledStencil(15, 16), apprentice.PartitionSweep(pes...), 42)
		if err != nil {
			s.err = err
			return
		}
		if s.g, err = model.Build(ds); err != nil {
			s.err = err
			return
		}
		s.db = uncachedDB()
		if err := sqlgen.CreateSchema(s.g.World, embeddedExecutor(s.db)); err != nil {
			s.err = err
			return
		}
		_, s.err = sqlgen.Load(s.g.Store, embeddedExecutor(s.db))
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.g, s.db
}

// coldAnalyze times cache-off analyses of the last four runs in rotation
// (after one untimed pass over them) and reports the SELECT executions per
// analysis as selects/op, the rows their build sides visit as buildrows/op,
// and the builds a statement probed from the analysis's build table, made by
// another, as sharedbuilds/op. With wantBottleneck every report must name
// one, which an analysis of all properties does; one property alone may find
// none.
func coldAnalyze(b *testing.B, wantBottleneck bool, opts ...core.Option) {
	g, db := coldDB(b)
	runs := g.Dataset.Versions[0].Runs
	runs = runs[len(runs)-4:]
	q := godbc.Embedded{DB: db}
	a := core.New(g, append([]core.Option{core.WithWorkers(1), core.WithBatchSize(32)}, opts...)...)
	for _, run := range runs {
		if _, err := a.AnalyzeSQL(run, q); err != nil {
			b.Fatal(err)
		}
	}
	before := db.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := a.AnalyzeSQL(runs[i%len(runs)], q)
		if err != nil {
			b.Fatal(err)
		}
		if wantBottleneck && rep.Bottleneck() == nil {
			b.Fatal("no bottleneck")
		}
	}
	b.StopTimer()
	after := db.Stats()
	if n := after.VecFallbacks - before.VecFallbacks; n != 0 {
		b.Fatalf("%d SELECTs fell back to the row interpreter: %+v", n, after.VecFallbackReasons)
	}
	b.ReportMetric(float64(after.VecSelects-before.VecSelects)/float64(b.N), "selects/op")
	b.ReportMetric(float64(after.BuildRows-before.BuildRows)/float64(b.N), "buildrows/op")
	b.ReportMetric(float64(after.SharedBuilds-before.SharedBuilds)/float64(b.N), "sharedbuilds/op")
}

func BenchmarkColdAnalyze(b *testing.B) { coldAnalyze(b, true) }

func BenchmarkColdAnalyzeProperty(b *testing.B) {
	for _, name := range model.AllProperties {
		b.Run(name, func(b *testing.B) { coldAnalyze(b, false, core.WithProperties(name)) })
	}
}

// BenchmarkRestrictedVsPerContext (E26, E28) prices the restricted set form
// (sqlgen.CompiledProperty.Restrict: the set-form statement plus
// "AND x3.elem_id = $r", which evaluates one context) against the
// per-context statement, on the cold dataset, for the property whose builds
// are keyed by the context and by the minimum-processor run
// (SublinearSpeedup) and one whose builds are pinned to $t (MeasuredCost).
// Both forms are driven as core drives its per-context executions: one op
// executes each form for the same 64 contexts, in batches of
// core.DefaultBatchSize bindings (ExecuteBatchContext), all batches of one
// form under one analysis build table (sqldb.ShareBuilds). restricted_ms and
// per_context_ms are the two halves and ratio their quotient, the cost of
// running one statement text for both; buildrows and sharedbuilds are the
// rows the restricted form's builds read and the builds it served from the
// table, per op.
func BenchmarkRestrictedVsPerContext(b *testing.B) {
	g, db := coldDB(b)
	one := func(sql string) sqldb.Value {
		b.Helper()
		res, err := db.Exec(sql, nil)
		if err != nil || len(res.Set.Rows) == 0 {
			b.Fatalf("%s: %v", sql, err)
		}
		return res.Set.Rows[0][0]
	}
	run := one(`SELECT id FROM TestRun ORDER BY NoPe DESC LIMIT 1`)
	basis := one(`SELECT id FROM Region WHERE Kind = 'program'`)
	for _, name := range []string{"SublinearSpeedup", "MeasuredCost"} {
		b.Run(name, func(b *testing.B) {
			path, ok := core.ContextPath(g.World.Props[name].Params[0].Type.(*sem.Class).Name)
			if !ok {
				b.Fatalf("%s: no containment path", name)
			}
			set, err := sqlgen.CompilePropertySet(g.World, name, path)
			if err != nil {
				b.Fatal(err)
			}
			rcp, err := set.Restrict()
			if err != nil {
				b.Fatal(err)
			}
			per, err := sqlgen.CompileProperty(g.World, name)
			if err != nil {
				b.Fatal(err)
			}
			all, err := db.Exec(set.SQL, &sqldb.Params{Named: map[string]sqldb.Value{
				set.Params[0].Name: run, set.Params[1].Name: basis,
			}})
			if err != nil || len(all.Set.Rows) < 64 {
				b.Fatalf("set form: %v", err)
			}
			restricted, err := db.Prepare(rcp.SQL)
			if err != nil {
				b.Fatal(err)
			}
			defer restricted.Close()
			perContext, err := db.Prepare(per.SQL)
			if err != nil {
				b.Fatal(err)
			}
			defer perContext.Close()
			var rParams, pParams []*sqldb.Params
			for _, row := range all.Set.Rows[:64] {
				rParams = append(rParams, &sqldb.Params{Named: map[string]sqldb.Value{
					set.Params[0].Name: run, set.Params[1].Name: basis, set.Context: row[0],
				}})
				pParams = append(pParams, &sqldb.Params{Named: map[string]sqldb.Value{
					per.Params[0].Name: row[0], per.Params[1].Name: run, per.Params[2].Name: basis,
				}})
			}
			execAll := func(ps *sqldb.PreparedStmt, params []*sqldb.Params) time.Duration {
				start := time.Now()
				ctx, closeBuilds := sqldb.ShareBuilds(context.Background())
				defer closeBuilds()
				for lo := 0; lo < len(params); lo += core.DefaultBatchSize {
					results, err := ps.ExecuteBatchContext(ctx, params[lo:min(lo+core.DefaultBatchSize, len(params))])
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range results {
						if r.Err != nil || len(r.Res.Set.Rows) != 1 {
							b.Fatalf("%v (%+v)", r.Err, r.Res)
						}
					}
				}
				return time.Since(start)
			}
			var rTime, pTime time.Duration
			var rStats sqldb.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := db.Stats()
				rTime += execAll(restricted, rParams)
				after := db.Stats()
				rStats.BuildRows += after.BuildRows - before.BuildRows
				rStats.SharedBuilds += after.SharedBuilds - before.SharedBuilds
				pTime += execAll(perContext, pParams)
			}
			b.ReportMetric(float64(rTime.Microseconds())/1e3/float64(b.N), "restricted_ms")
			b.ReportMetric(float64(pTime.Microseconds())/1e3/float64(b.N), "per_context_ms")
			b.ReportMetric(float64(rTime)/float64(pTime), "ratio")
			b.ReportMetric(float64(rStats.BuildRows)/float64(b.N), "buildrows")
			b.ReportMetric(float64(rStats.SharedBuilds)/float64(b.N), "sharedbuilds")
		})
	}
}

// BenchmarkColdAnalyzeGuided is guided search (AnalyzeGuidedSQL) over the
// same cache-off runs: one set-form execution per property, as in
// BenchmarkColdAnalyze, and a refinement search over their results that
// reports only the instances it visits.
func BenchmarkColdAnalyzeGuided(b *testing.B) {
	g, db := coldDB(b)
	runs := g.Dataset.Versions[0].Runs
	runs = runs[len(runs)-4:]
	q := godbc.Embedded{DB: db}
	a := core.New(g, core.WithWorkers(1), core.WithBatchSize(32))
	guided := func(i int) {
		if _, _, err := a.AnalyzeGuidedSQL(runs[i%len(runs)], core.DefaultHierarchy(), q); err != nil {
			b.Fatal(err)
		}
	}
	for i := range runs {
		guided(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		guided(i)
	}
}

// ---------------------------------------------------------------------------
// E12 — the resident service: the full cosyd stack (service protocol over
// TCP, admission control, multiplexed clients) under concurrent tenants on
// the oracle-remote profile. tenants=1 is the single-client baseline — one
// analysis at a time, exactly a cosy CLI invocation without process start-up;
// tenants=8 overlaps eight tenants' analyses on the shared sleeping server,
// which is where a resident service earns its keep: aggregate analyses/sec
// must scale well past the single client (the acceptance bar is ≥4×) while
// p99 stays within a small factor of p50 (bar: 3×) — admission control keeps
// the overlap fair instead of letting queueing smear the tail. Reports are
// byte-identical to a direct analysis (see internal/service tests).
// ---------------------------------------------------------------------------

func BenchmarkServiceAnalyze(b *testing.B) {
	g := mustGraph(b, apprentice.Particles(), 2, 8, 32)

	for _, tenants := range []int{1, 8} {
		b.Run(fmt.Sprintf("oracle-remote/tenants=%d", tenants), func(b *testing.B) {
			// Cache ON (unlike the pipeline benchmarks): the resident
			// service's steady state is E11's regime — repeat analyses over
			// an immutable run history, answered from the server's result
			// cache. What remains per analysis is the protocol itself
			// (round-trip sleeps, which concurrent tenants overlap) plus the
			// service overhead E12 exists to measure.
			db := sqldb.NewDB()
			if err := sqlgen.CreateSchema(g.World, embeddedExecutor(db)); err != nil {
				b.Fatal(err)
			}
			if _, err := sqlgen.Load(g.Store, embeddedExecutor(db)); err != nil {
				b.Fatal(err)
			}
			wsrv, err := wire.NewServer(db, wire.ProfileOracleRemote, nil)
			if err != nil {
				b.Fatal(err)
			}
			if err := wsrv.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer wsrv.Close()
			const capacity, workers = 8, 1
			pool, err := godbc.NewPool(wsrv.Addr(), capacity*workers)
			if err != nil {
				b.Fatal(err)
			}
			defer pool.Close()
			ssrv := service.NewServer(service.New(g, pool, service.Config{
				Capacity: capacity, Workers: workers, BatchSize: 32,
			}), nil)
			if err := ssrv.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer ssrv.Close()
			clients := make([]*service.Client, tenants)
			for i := range clients {
				c, err := service.Dial(ssrv.Addr())
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				clients[i] = c
			}
			// Warm-up: two full rounds at the measured concurrency. The
			// first analysis of the cycle pays the result-cache misses, and
			// every pool connection pays its prepared-statement setup once;
			// neither belongs to the steady state the service runs in.
			for round := 0; round < 2; round++ {
				var wwg sync.WaitGroup
				for t := 0; t < tenants; t++ {
					wwg.Add(1)
					go func(t int) {
						defer wwg.Done()
						if _, err := clients[t].Analyze(context.Background(), fmt.Sprintf("tenant-%d", t), 0); err != nil {
							b.Error(err)
						}
					}(t)
				}
				wwg.Wait()
			}
			if b.Failed() {
				b.FailNow()
			}

			var mu sync.Mutex
			var latencies []time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for t := 0; t < tenants; t++ {
					wg.Add(1)
					go func(t int) {
						defer wg.Done()
						t0 := time.Now()
						rep, err := clients[t].Analyze(context.Background(), fmt.Sprintf("tenant-%d", t), 0)
						d := time.Since(t0)
						if err != nil {
							b.Error(err)
							return
						}
						if rep == "" {
							b.Error("empty report")
							return
						}
						mu.Lock()
						latencies = append(latencies, d)
						mu.Unlock()
					}(t)
				}
				wg.Wait()
			}
			b.StopTimer()
			analyses := float64(b.N * tenants)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/analyses, "ns/analysis")
			b.ReportMetric(analyses/b.Elapsed().Seconds(), "analyses/sec")
			sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
			if n := len(latencies); n > 0 {
				b.ReportMetric(float64(latencies[n/2].Nanoseconds()), "p50-ns")
				b.ReportMetric(float64(latencies[n*99/100].Nanoseconds()), "p99-ns")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E13 — the execution engine: the cold (cache-off) property sweep of E11's
// workload analyzed on the embedded database with the vectorized engine
// versus the row interpreter. The wire benchmarks sleep their round trips, so
// engine time hides behind latency there; embedded execution is where the
// paper's "local database" configurations live and where execution cost is
// the whole denominator. Reports are byte-identical across engines (see
// internal/core TestVector*).
// ---------------------------------------------------------------------------

func BenchmarkVectorAnalyze(b *testing.B) {
	// E11's accumulated tuning-cycle history: every region's timing sets hold
	// one row per run of the sweep, so the property queries aggregate real
	// history rather than a handful of rows. The sweep is denser than E11's
	// (24 partition counts): per-query volume is what batch execution
	// amortizes, and a long tuning session is exactly where a cold analysis
	// pays for engine time.
	g := mustGraph(b, apprentice.ScaledStencil(15, 16),
		2, 3, 4, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224)
	runs := g.Dataset.Versions[0].Runs
	run := runs[len(runs)-1]

	for _, engine := range []string{sqldb.EngineVector, sqldb.EngineRow} {
		b.Run(fmt.Sprintf("embedded/cache=off/engine=%s", engine), func(b *testing.B) {
			db := uncachedDB()
			if err := db.SetEngine(engine); err != nil {
				b.Fatal(err)
			}
			if err := sqlgen.CreateSchema(g.World, embeddedExecutor(db)); err != nil {
				b.Fatal(err)
			}
			if _, err := sqlgen.Load(g.Store, embeddedExecutor(db)); err != nil {
				b.Fatal(err)
			}
			q := godbc.Embedded{DB: db}
			a := core.New(g, core.WithWorkers(1))
			// Warm-up: lazily built structures (join indexes, row views) and
			// prepared plans, which both engines share.
			if _, err := a.AnalyzeSQL(run, q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := a.AnalyzeSQL(run, q)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Bottleneck() == nil {
					b.Fatal("no bottleneck")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E16 — columnar DML: bulk UPDATE and DELETE on the vectorized engine versus
// the row interpreter. The workload is a synthetic wide table rather than the
// COSY schema: DML cost is per-table scan + mutate, so a single deep table
// isolates the kernel difference without analyzer noise. The UPDATE predicate
// never touches the columns being set, so every iteration mutates the same
// half of the table; DELETE restores the removed rows with the timer stopped.
// ---------------------------------------------------------------------------

func BenchmarkVectorDML(b *testing.B) {
	const rows = 20000
	tags := []string{"red", "green", "blue", "cyan"}
	seed := func(b *testing.B, engine string) *sqldb.DB {
		b.Helper()
		db := uncachedDB()
		if err := db.SetEngine(engine); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Exec(`CREATE TABLE bulk (id INTEGER PRIMARY KEY, grp INTEGER, val REAL, tag TEXT)`, nil); err != nil {
			b.Fatal(err)
		}
		ins, err := db.Prepare(`INSERT INTO bulk (id, grp, val, tag) VALUES ($id, $grp, $val, $tag)`)
		if err != nil {
			b.Fatal(err)
		}
		defer ins.Close()
		for i := 0; i < rows; i++ {
			_, err := ins.Execute(&sqldb.Params{Named: map[string]sqldb.Value{
				"id":  sqldb.NewInt(int64(i)),
				"grp": sqldb.NewInt(int64(i % 16)),
				"val": sqldb.NewFloat(float64(i) * 0.25),
				"tag": sqldb.NewText(tags[i%len(tags)]),
			}})
			if err != nil {
				b.Fatal(err)
			}
		}
		return db
	}

	for _, engine := range []string{sqldb.EngineVector, sqldb.EngineRow} {
		b.Run(fmt.Sprintf("update/engine=%s", engine), func(b *testing.B) {
			db := seed(b, engine)
			// grp < 8 selects exactly half the table and is never written, so
			// the matched set is identical every iteration; val converges to a
			// fixpoint instead of drifting without bound.
			upd, err := db.Prepare(`UPDATE bulk SET val = val * 0.5 + 1.0 WHERE grp < $cut AND tag <> 'cyan'`)
			if err != nil {
				b.Fatal(err)
			}
			defer upd.Close()
			params := &sqldb.Params{Named: map[string]sqldb.Value{"cut": sqldb.NewInt(8)}}
			res, err := upd.Execute(params)
			if err != nil {
				b.Fatal(err)
			}
			if res.Affected == 0 || res.Affected >= rows {
				b.Fatalf("update matched %d of %d rows", res.Affected, rows)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := upd.Execute(params); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(res.Affected)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
	for _, engine := range []string{sqldb.EngineVector, sqldb.EngineRow} {
		b.Run(fmt.Sprintf("delete/engine=%s", engine), func(b *testing.B) {
			db := seed(b, engine)
			del, err := db.Prepare(`DELETE FROM bulk WHERE grp >= $cut OR tag = 'cyan'`)
			if err != nil {
				b.Fatal(err)
			}
			defer del.Close()
			ins, err := db.Prepare(`INSERT INTO bulk (id, grp, val, tag) VALUES ($id, $grp, $val, $tag)`)
			if err != nil {
				b.Fatal(err)
			}
			defer ins.Close()
			params := &sqldb.Params{Named: map[string]sqldb.Value{"cut": sqldb.NewInt(8)}}
			restore := func(b *testing.B) {
				b.Helper()
				for i := 0; i < rows; i++ {
					if i%16 < 8 && tags[i%len(tags)] != "cyan" {
						continue // survivor, still present
					}
					_, err := ins.Execute(&sqldb.Params{Named: map[string]sqldb.Value{
						"id":  sqldb.NewInt(int64(i)),
						"grp": sqldb.NewInt(int64(i % 16)),
						"val": sqldb.NewFloat(float64(i) * 0.25),
						"tag": sqldb.NewText(tags[i%len(tags)]),
					}})
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			var affected int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := del.Execute(params)
				if err != nil {
					b.Fatal(err)
				}
				if res.Affected == 0 || res.Affected >= rows {
					b.Fatalf("delete matched %d of %d rows", res.Affected, rows)
				}
				affected = res.Affected
				b.StopTimer()
				restore(b)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(affected)*float64(b.N)/b.Elapsed().Seconds(), "rows/sec")
		})
	}
}

// ---------------------------------------------------------------------------
// A2 — ablation: specification-driven analysis versus the Paradyn-style
// fixed bottleneck set.
// ---------------------------------------------------------------------------

func BenchmarkSpecVsFixed(b *testing.B) {
	g := mustGraph(b, apprentice.Particles(), 2, 8, 32)
	run := g.Dataset.Versions[0].Runs[2]

	b.Run("cosy-spec", func(b *testing.B) {
		a := core.New(g)
		for i := 0; i < b.N; i++ {
			if _, err := a.AnalyzeObject(run); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("paradyn-fixed", func(b *testing.B) {
		cfg := paradyn.DefaultConfig()
		for i := 0; i < b.N; i++ {
			if _, err := paradyn.Analyze(g.Dataset.Versions[0], run, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// A3 — ablation: exhaustive evaluation versus the OPAL-style refinement
// search (evaluate a property only where its parent is a problem).
// ---------------------------------------------------------------------------

func BenchmarkGuidedVsExhaustive(b *testing.B) {
	g := mustGraph(b, apprentice.Amdahl(), 2, 8, 32)
	run := g.Dataset.Versions[0].Runs[2]
	a := core.New(g)
	db := uncachedDB()
	if err := sqlgen.CreateSchema(g.World, embeddedExecutor(db)); err != nil {
		b.Fatal(err)
	}
	if _, err := sqlgen.Load(g.Store, embeddedExecutor(db)); err != nil {
		b.Fatal(err)
	}
	q := godbc.Embedded{DB: db}

	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.AnalyzeObject(run); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("guided", func(b *testing.B) {
		var saved float64
		for i := 0; i < b.N; i++ {
			_, stats, err := a.AnalyzeGuided(run, core.DefaultHierarchy())
			if err != nil {
				b.Fatal(err)
			}
			saved = stats.Savings()
		}
		b.ReportMetric(saved*100, "%saved")
	})
	b.Run("sql-exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := a.AnalyzeSQL(run, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sql-guided", func(b *testing.B) {
		var saved float64
		for i := 0; i < b.N; i++ {
			_, stats, err := a.AnalyzeGuidedSQL(run, core.DefaultHierarchy(), q)
			if err != nil {
				b.Fatal(err)
			}
			saved = stats.Savings()
		}
		b.ReportMetric(saved*100, "%saved")
	})
}

// ---------------------------------------------------------------------------
// A4 — ablation: trace-based pattern analysis (the EARL approach of the
// paper's related work) versus summary-based property evaluation on the
// same execution.
// ---------------------------------------------------------------------------

func BenchmarkTraceVsSummary(b *testing.B) {
	w := apprentice.Particles()
	mach := apprentice.Machine{NoPe: 32, ClockMHz: 450}

	b.Run("trace-generate-and-scan", func(b *testing.B) {
		var nevents int
		for i := 0; i < b.N; i++ {
			tr, err := earl.Generate(w, mach, 42)
			if err != nil {
				b.Fatal(err)
			}
			if len(earl.BarrierWaits(tr)) == 0 {
				b.Fatal("no findings")
			}
			nevents = tr.Len()
		}
		b.ReportMetric(float64(nevents), "events")
	})
	b.Run("summary-simulate-and-analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ds, err := apprentice.Simulate(w, []apprentice.Machine{{NoPe: 2, ClockMHz: 450}, mach}, 42)
			if err != nil {
				b.Fatal(err)
			}
			g, err := model.Build(ds)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := core.New(g).AnalyzeObject(ds.Versions[0].Runs[1])
			if err != nil {
				b.Fatal(err)
			}
			if rep.Bottleneck() == nil {
				b.Fatal("no bottleneck")
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Supporting micro-benchmarks: property compilation and the SQL engine.
// ---------------------------------------------------------------------------

func BenchmarkCompileProperty(b *testing.B) {
	world := model.MustCompileSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlgen.CompileProperty(world, "SublinearSpeedup"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompiledQueryExec(b *testing.B) {
	g := mustGraph(b, apprentice.Stencil(), 2, 8, 32)
	db := uncachedDB()
	exec := embeddedExecutor(db)
	if err := sqlgen.CreateSchema(g.World, exec); err != nil {
		b.Fatal(err)
	}
	if _, err := sqlgen.Load(g.Store, exec); err != nil {
		b.Fatal(err)
	}
	cp, err := sqlgen.CompileProperty(g.World, "SyncCost")
	if err != nil {
		b.Fatal(err)
	}
	version := g.Dataset.Versions[0]
	run := g.Runs[version.Runs[2]]
	var region *model.Region
	for _, r := range version.AllRegions() {
		if r.Name == "sweep" {
			region = r
		}
	}
	basis := g.Regions[version.RootRegion()]
	params := &sqldb.Params{Named: map[string]sqldb.Value{
		"r":     sqldb.NewInt(g.Regions[region].ID),
		"t":     sqldb.NewInt(run.ID),
		"Basis": sqldb.NewInt(basis.ID),
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec(cp.SQL, params)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Set.Rows) != 1 {
			b.Fatal("bad row count")
		}
	}
}
