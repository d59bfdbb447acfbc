package godbc_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// executor is what the analyzer probes an executor for.
type executor interface {
	sqlgen.QueryExecutor
	sqlgen.ContextQueryExecutor
	sqlgen.QueryPreparer
}

// handle is what the analyzer probes a prepared handle for.
type handle interface {
	sqlgen.BatchPreparedQuery
	sqlgen.ContextPreparedQuery
	sqlgen.ContextBatchPreparedQuery
}

func render(set *sqldb.ResultSet) string {
	out := fmt.Sprint(set.Columns)
	for _, row := range set.Rows {
		out += fmt.Sprint(" ", row)
	}
	return out
}

func renderBatch(t *testing.T, results []sqlgen.BatchQueryResult) string {
	t.Helper()
	out := ""
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("binding %d: %v", i, r.Err)
		}
		out += render(r.Set) + ";"
	}
	return out
}

// TestContextEquivalence: on every executor, the plain-named call, its
// ...Context form under context.Background(), and the same under a live
// cancelable context are one body and so return the same rows, for text,
// prepared and batched execution; under an already-canceled context each
// returns context.Canceled and a wire executor sends the server nothing.
func TestContextEquivalence(t *testing.T) {
	const query = `SELECT id, time FROM typed WHERE run_id = $r ORDER BY id`
	runParam := func(r int64) *sqldb.Params {
		return &sqldb.Params{Named: map[string]sqldb.Value{"r": sqldb.NewInt(r)}}
	}
	bindings := []*sqldb.Params{runParam(1), runParam(2), runParam(3)}

	// Each constructor returns the executor over a fresh database and, for
	// the wire executors, the server it talks to.
	executors := []struct {
		name string
		open func(t *testing.T) (executor, *wire.Server)
	}{
		{"Conn", func(t *testing.T) (executor, *wire.Server) {
			_, srv := startCachePair(t)
			c, err := godbc.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c, srv
		}},
		{"Pool", func(t *testing.T) (executor, *wire.Server) {
			_, srv := startCachePair(t)
			p, err := godbc.NewPool(srv.Addr(), 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p, srv
		}},
		{"ShardedDB", func(t *testing.T) (executor, *wire.Server) {
			_, srv := startCachePair(t)
			s, err := godbc.DialSharded([]string{srv.Addr()}, 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s, srv
		}},
		{"Embedded", func(t *testing.T) (executor, *wire.Server) {
			db, _ := startCachePair(t)
			return godbc.Embedded{DB: db}, nil
		}},
		{"ProfiledEmbedded", func(t *testing.T) (executor, *wire.Server) {
			db, _ := startCachePair(t)
			return godbc.Embedded{DB: db, Profile: wire.ProfileMSSQL}, nil
		}},
	}

	live, stop := context.WithCancel(context.Background())
	defer stop()
	dead, kill := context.WithCancel(context.Background())
	kill()

	want := [3]string{}
	for _, ex := range executors {
		t.Run(ex.name, func(t *testing.T) {
			e, srv := ex.open(t)
			pq, err := e.PrepareQuery(query)
			if err != nil {
				t.Fatal(err)
			}
			defer pq.Close()
			h, ok := pq.(handle)
			if !ok {
				t.Fatalf("%T lacks a context or batch execution form", pq)
			}

			// run executes the three kinds under one calling convention;
			// ctx == nil selects the plain-named methods.
			run := func(ctx context.Context) (got [3]string, errs [3]error) {
				var text, prepared *sqldb.ResultSet
				var batch []sqlgen.BatchQueryResult
				if ctx == nil {
					text, errs[0] = e.ExecQuery(query, runParam(1))
					prepared, errs[1] = h.ExecQuery(runParam(1))
					batch, errs[2] = h.ExecQueryBatch(bindings)
				} else {
					text, errs[0] = e.ExecQueryContext(ctx, query, runParam(1))
					prepared, errs[1] = h.ExecQueryContext(ctx, runParam(1))
					batch, errs[2] = h.ExecQueryBatchContext(ctx, bindings)
				}
				if errs == [3]error{} {
					got = [3]string{render(text), render(prepared), renderBatch(t, batch)}
				}
				return got, errs
			}

			for _, mode := range []struct {
				name string
				ctx  context.Context
			}{{"plain", nil}, {"background", context.Background()}, {"live", live}} {
				got, errs := run(mode.ctx)
				if errs != [3]error{} {
					t.Fatalf("%s: %v", mode.name, errs)
				}
				if want == [3]string{} {
					want = got // the first executor's plain calls are the reference for all
				}
				if got != want {
					t.Errorf("%s: got %q, want %q", mode.name, got, want)
				}
			}

			// requests reads the server's request count through a connection of
			// its own; the reading is itself one request.
			requests := func() int64 {
				if srv == nil {
					return 0
				}
				obs, err := godbc.Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer obs.Close()
				st, ok, err := obs.ServerStats()
				if err != nil || !ok {
					t.Fatalf("ServerStats: ok=%v err=%v", ok, err)
				}
				return st.Requests
			}
			before := requests()
			_, errs := run(dead)
			for i, err := range errs {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("canceled, kind %d: err = %v, want context.Canceled", i, err)
				}
			}
			if sent := requests() - before; srv != nil && sent != 1 {
				t.Errorf("canceled calls sent the server %d requests", sent-1)
			}
		})
	}
}
