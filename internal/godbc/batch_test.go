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

// TestPooledStmtRejectedPrepareSendsNoText: the server's eager prepare
// validation rejects statements over missing tables. A pooled statement
// fails its batch and its single execution with the server's error, and never
// retries the statement as query text.
func TestPooledStmtRejectedPrepareSendsNoText(t *testing.T) {
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
	before, _, err := pool.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.(sqlgen.BatchPreparedQuery).ExecQueryBatch(idParams(1, 2)); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("batch: err %v, want the server's prepare error naming ghost", err)
	}
	if _, err := pq.ExecQuery(idParams(1)[0]); err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("single execution: err %v, want the server's prepare error naming ghost", err)
	}
	after, _, err := pool.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	// Two refused prepares, one per execution, and one of the two stats reads.
	if n := after.Requests - before.Requests; n != 3 {
		t.Errorf("the server served %d requests, want 3: the statement was retried as text", n)
	}
	// Both connections are back in the pool.
	for range 2 {
		c, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Put(c)
	}
}
