package godbc_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

func idParams(ids ...int64) []*sqldb.Params {
	out := make([]*sqldb.Params, len(ids))
	for i, id := range ids {
		out[i] = &sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(id)}}
	}
	return out
}

// checkBatch verifies one binding-per-id result slice against v = id*1.5.
func checkBatch(t *testing.T, results []sqlgen.BatchQueryResult, ids ...int64) {
	t.Helper()
	if len(results) != len(ids) {
		t.Fatalf("got %d results for %d bindings", len(results), len(ids))
	}
	for i, id := range ids {
		if results[i].Err != nil {
			t.Fatalf("binding %d: %v", i, results[i].Err)
		}
		if got := results[i].Set.Rows[0][0].Float(); got != float64(id)*1.5 {
			t.Fatalf("binding %d: v = %v", i, got)
		}
	}
}

func TestEmbeddedStmtExecQueryBatch(t *testing.T) {
	db, _ := startServer(t)
	e := godbc.Embedded{DB: db}
	pq, err := e.PrepareQuery("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Close()
	bq, ok := pq.(sqlgen.BatchPreparedQuery)
	if !ok {
		t.Fatal("embedded prepared query does not support batching")
	}
	results, err := bq.ExecQueryBatch(idParams(1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, results, 1, 2, 3)
}

func TestProfiledEmbeddedStmtExecQueryBatch(t *testing.T) {
	db, _ := startServer(t)
	pe := godbc.Embedded{DB: db, Profile: wire.ProfileAccess}
	pq, err := pe.PrepareQuery("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Close()
	bq := pq.(sqlgen.BatchPreparedQuery)
	results, err := bq.ExecQueryBatch(idParams(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	checkBatch(t, results, 4, 5)
}

func TestPooledStmtExecQueryBatchConcurrent(t *testing.T) {
	_, srv := startServer(t)
	pool, err := godbc.NewPool(srv.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pq, err := pool.PrepareQuery("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Close()
	bq := pq.(sqlgen.BatchPreparedQuery)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				results, err := bq.ExecQueryBatch(idParams(1, 2, 3, 4, 5))
				if err != nil {
					t.Error(err)
					return
				}
				for i, r := range results {
					if r.Err != nil || r.Set.Rows[0][0].Float() != float64(i+1)*1.5 {
						t.Errorf("binding %d: %+v", i, r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestPooledStmtBatchTextFallback(t *testing.T) {
	// The server's eager prepare validation rejects statements over missing
	// tables; the pooled batch must fall back to per-binding text execution
	// and surface the per-binding errors, exactly like ExecQuery does.
	_, srv := startServer(t)
	pool, err := godbc.NewPool(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pq, err := pool.PrepareQuery("SELECT (SELECT id FROM ghost) FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Close()
	bq := pq.(sqlgen.BatchPreparedQuery)
	results, err := bq.ExecQueryBatch(idParams(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "ghost") {
			t.Fatalf("binding %d: %+v", i, r)
		}
	}
}
