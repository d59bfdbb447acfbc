package godbc_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// startShards launches n wire servers, each over its own database holding a
// table t(run INTEGER, v INTEGER) where v encodes the shard index, so tests
// can verify which shard served a row. Rows for run r exist only on the
// shard modRouting assigns r to.
func startShards(t *testing.T, n int, runs ...int64) ([]*wire.Server, *godbc.ShardedDB) {
	t.Helper()
	servers := make([]*wire.Server, n)
	addrs := make([]string, n)
	dbs := make([]*sqldb.DB, n)
	for i := 0; i < n; i++ {
		db := sqldb.NewDB()
		if _, err := db.Exec("CREATE TABLE t (run INTEGER, v INTEGER)", nil); err != nil {
			t.Fatal(err)
		}
		srv, err := wire.NewServer(db, wire.ProfileFast, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers[i], addrs[i], dbs[i] = srv, srv.Addr(), db
	}
	for _, run := range runs {
		shard := int(run % int64(n))
		if _, err := dbs[shard].Exec("INSERT INTO t (run, v) VALUES (?, ?)", &sqldb.Params{
			Positional: []sqldb.Value{sqldb.NewInt(run), sqldb.NewInt(int64(shard))}}); err != nil {
			t.Fatal(err)
		}
	}
	sdb, err := godbc.DialSharded(addrs, 4, godbc.WithRoutingPolicy(modRouting))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sdb.Close() })
	return servers, sdb
}

// modRouting routes run r to shard r mod n — transparent for tests.
func modRouting(runID int64, shards int) int { return int(runID % int64(shards)) }

func runParams(runs ...int64) []*sqldb.Params {
	out := make([]*sqldb.Params, len(runs))
	for i, r := range runs {
		out[i] = &sqldb.Params{Named: map[string]sqldb.Value{"t": sqldb.NewInt(r)}}
	}
	return out
}

func TestHashRoutingInRangeAndDeterministic(t *testing.T) {
	hit := make(map[int]int)
	for run := int64(1); run <= 256; run++ {
		i := godbc.HashRouting(run, 4)
		if i < 0 || i >= 4 {
			t.Fatalf("run %d routed to shard %d of 4", run, i)
		}
		if j := godbc.HashRouting(run, 4); j != i {
			t.Fatalf("run %d routed to %d then %d", run, i, j)
		}
		hit[i]++
	}
	for i := 0; i < 4; i++ {
		if hit[i] == 0 {
			t.Fatalf("no run of 256 hashed to shard %d: %v", i, hit)
		}
	}
	if godbc.HashRouting(99, 1) != 0 {
		t.Fatal("single shard must always route to 0")
	}
}

func TestDialShardedValidation(t *testing.T) {
	if _, err := godbc.DialSharded(nil, 1); err == nil {
		t.Fatal("empty address list accepted")
	}
	if _, err := godbc.DialSharded([]string{"127.0.0.1:1", " "}, 1); err == nil {
		t.Fatal("blank shard address accepted")
	}
}

func TestDialShardedReportsDeadShard(t *testing.T) {
	servers, _ := startShards(t, 1)
	live := servers[0].Addr()
	// Grab a port that is certainly closed by binding and releasing it.
	dead, sdbErr := func() (string, error) {
		srv, err := wire.NewServer(sqldb.NewDB(), wire.ProfileFast, nil)
		if err != nil {
			return "", err
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return "", err
		}
		addr := srv.Addr()
		return addr, srv.Close()
	}()
	if sdbErr != nil {
		t.Fatal(sdbErr)
	}
	_, err := godbc.DialSharded([]string{live, dead}, 1)
	if err == nil {
		t.Fatal("dial of a dead shard succeeded")
	}
	var se *godbc.ShardError
	if !errors.As(err, &se) || se.Addr != dead {
		t.Fatalf("error does not name the dead shard %s: %v", dead, err)
	}
}

// TestRoutedQueryHitsOwningShard: a routed prepared query must be answered
// by the shard owning the bound run — the returned v encodes the serving
// shard — while un-routed query text pins to the first shard.
func TestRoutedQueryHitsOwningShard(t *testing.T) {
	_, sdb := startShards(t, 3, 1, 2, 3, 4, 5, 6)
	pq, err := sdb.PrepareRoutedQuery("SELECT v FROM t WHERE run = $t", "t")
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Close()
	for run := int64(1); run <= 6; run++ {
		set, err := pq.ExecQuery(runParams(run)[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Rows) != 1 || set.Rows[0][0].Int() != run%3 {
			t.Fatalf("run %d: rows %v, want v=%d", run, set.Rows, run%3)
		}
	}
	set, err := sdb.ExecQueryContext(context.Background(), "SELECT v FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 2 || set.Rows[0][0].Int() != 0 || set.Rows[1][0].Int() != 0 {
		t.Fatalf("un-routed text: rows %v, want the first shard's two", set.Rows)
	}
}

// TestShardedBatchMergesInBindingOrder: a batch whose bindings interleave
// runs of different shards must come back in binding order, each binding
// answered by its owning shard — the deterministic merge the analyzer's
// byte-identical reports rest on.
func TestShardedBatchMergesInBindingOrder(t *testing.T) {
	_, sdb := startShards(t, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	pq, err := sdb.PrepareRoutedQuery("SELECT v FROM t WHERE run = $t", "t")
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Close()
	bq, ok := pq.(sqlgen.BatchPreparedQuery)
	if !ok {
		t.Fatal("sharded prepared query does not support batching")
	}
	// Interleaved across all three shards, plus a single-shard batch.
	for _, runs := range [][]int64{{1, 2, 3, 4, 5, 6, 7, 8, 9}, {9, 1, 5, 2, 7}, {3, 6, 9}} {
		results, err := bq.ExecQueryBatch(runParams(runs...))
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(runs) {
			t.Fatalf("%d results for %d bindings", len(results), len(runs))
		}
		for i, run := range runs {
			if results[i].Err != nil {
				t.Fatalf("binding %d (run %d): %v", i, run, results[i].Err)
			}
			rows := results[i].Set.Rows
			if len(rows) != 1 || rows[0][0].Int() != run%3 {
				t.Fatalf("binding %d (run %d): rows %v, want v=%d", i, run, rows, run%3)
			}
		}
	}
}

func TestShardedExecBroadcasts(t *testing.T) {
	_, sdb := startShards(t, 3)
	if _, err := sdb.Exec("CREATE TABLE b (id INTEGER PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.Exec("INSERT INTO b (id) VALUES (?)", &sqldb.Params{
		Positional: []sqldb.Value{sqldb.NewInt(7)}}); err != nil {
		t.Fatal(err)
	}
	// Every shard must hold the broadcast row.
	for i := 0; i < sdb.Shards(); i++ {
		set, err := sdb.Pool(i).ExecQuery("SELECT id FROM b", nil)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if len(set.Rows) != 1 || set.Rows[0][0].Int() != 7 {
			t.Fatalf("shard %d rows: %v", i, set.Rows)
		}
	}
}

// TestShardLossTaggedWithAddress: when a shard dies mid-flight, routed
// executions that need it fail with a ShardError naming its address, while
// runs owned by live shards keep working.
func TestShardLossTaggedWithAddress(t *testing.T) {
	servers, sdb := startShards(t, 2, 1, 2, 3, 4)
	deadAddr := servers[1].Addr() // owns odd runs under modRouting
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	pq, err := sdb.PrepareRoutedQuery("SELECT v FROM t WHERE run = $t", "t")
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Close()
	if _, err := pq.ExecQuery(runParams(2)[0]); err != nil {
		t.Fatalf("live shard: %v", err)
	}
	_, err = pq.ExecQuery(runParams(1)[0])
	if err == nil {
		t.Fatal("query against the dead shard succeeded")
	}
	var se *godbc.ShardError
	if !errors.As(err, &se) || se.Addr != deadAddr {
		t.Fatalf("error does not name the dead shard %s: %v", deadAddr, err)
	}
	if !strings.Contains(err.Error(), deadAddr) {
		t.Fatalf("error text lacks the shard address: %v", err)
	}
	// A mixed batch fails as a whole, again naming the dead shard: no
	// partial results leak out of a batch that could not complete.
	bq := pq.(sqlgen.BatchPreparedQuery)
	_, err = bq.ExecQueryBatch(runParams(2, 1, 4, 3))
	if err == nil {
		t.Fatal("mixed batch over a dead shard succeeded")
	}
	se = nil
	if !errors.As(err, &se) || se.Addr != deadAddr {
		t.Fatalf("batch error does not name the dead shard %s: %v", deadAddr, err)
	}
}

// TestShardedStmtConcurrent exercises the sharded statement from many
// goroutines under -race.
func TestShardedStmtConcurrent(t *testing.T) {
	_, sdb := startShards(t, 2, 1, 2, 3, 4)
	pq, err := sdb.PrepareRoutedQuery("SELECT v FROM t WHERE run = $t", "t")
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := int64(1); run <= 4; run++ {
				set, err := pq.ExecQuery(runParams(run)[0])
				if err != nil {
					t.Error(err)
					return
				}
				if set.Rows[0][0].Int() != run%2 {
					t.Errorf("run %d served by wrong shard: %v", run, set.Rows)
				}
			}
		}()
	}
	wg.Wait()
}
