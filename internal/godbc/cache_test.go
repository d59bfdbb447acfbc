package godbc_test

import (
	"testing"

	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// startCachePair launches a server over a small loaded database.
func startCachePair(t *testing.T) (*sqldb.DB, *wire.Server) {
	t.Helper()
	db := sqldb.NewDB()
	db.MustExec(`CREATE TABLE typed (id INTEGER PRIMARY KEY, run_id INTEGER, time REAL)`, nil)
	db.MustExec(`INSERT INTO typed (id, run_id, time) VALUES (1, 1, 1.0), (2, 2, 4.0)`, nil)
	srv, err := wire.NewServer(db, wire.ProfileFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, srv
}

// The result-cache counters are read from the one backend snapshot
// (ServerStats); these tests keep their names from when the cache had a
// request kind and a stats type of its own.

func TestConnCacheStats(t *testing.T) {
	_, srv := startCachePair(t)
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		if _, err := conn.ExecQuery(`SELECT SUM(time) FROM typed`, nil); err != nil {
			t.Fatal(err)
		}
	}
	stats, ok, err := conn.ServerStats()
	if err != nil || !ok {
		t.Fatalf("ServerStats: ok=%v err=%v", ok, err)
	}
	if stats.ResultCacheHits != 2 || stats.ResultCacheMisses != 1 || stats.ResultCacheEntries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPoolAndEmbeddedCacheStats(t *testing.T) {
	_, srv := startCachePair(t)
	pool, err := godbc.NewPool(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 2; i++ {
		if _, err := pool.ExecQuery(`SELECT COUNT(*) FROM typed`, nil); err != nil {
			t.Fatal(err)
		}
	}
	stats, ok, err := pool.ServerStats()
	if err != nil || !ok {
		t.Fatalf("pool ServerStats: ok=%v err=%v", ok, err)
	}
	if stats.ResultCacheHits != 1 || stats.ResultCacheMisses != 1 {
		t.Fatalf("pool stats = %+v", stats)
	}

	edb := sqldb.NewDB()
	edb.MustExec(`CREATE TABLE t (id INTEGER)`, nil)
	e := godbc.Embedded{DB: edb}
	e.ExecQuery(`SELECT COUNT(*) FROM t`, nil)
	e.ExecQuery(`SELECT COUNT(*) FROM t`, nil)
	estats, ok, err := e.ServerStats()
	if err != nil || !ok {
		t.Fatalf("embedded ServerStats: ok=%v err=%v", ok, err)
	}
	if estats.ResultCacheHits != 1 || estats.ResultCacheMisses != 1 {
		t.Fatalf("embedded stats = %+v", estats)
	}
}

func TestShardedCacheStatsSumAcrossShards(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		_, srv := startCachePair(t)
		addrs[i] = srv.Addr()
	}
	sdb, err := godbc.DialSharded(addrs, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	// Hit each shard's pool directly so both contribute counters: each shard
	// caches independently.
	for i := 0; i < sdb.Shards(); i++ {
		p := sdb.Pool(i)
		for j := 0; j < 2; j++ {
			if _, err := p.ExecQuery(`SELECT COUNT(*) FROM typed`, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	stats, ok, err := sdb.ServerStats()
	if err != nil || !ok {
		t.Fatalf("sharded ServerStats: ok=%v err=%v", ok, err)
	}
	if stats.ResultCacheHits != 2 || stats.ResultCacheMisses != 2 || stats.ResultCacheEntries != 2 {
		t.Fatalf("summed stats = %+v", stats)
	}
}
