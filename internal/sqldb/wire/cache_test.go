package wire_test

import (
	"net"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// startCacheServer launches a server over a small loaded database and returns
// a raw protocol codec, so the tests can observe the cache fields of the
// responses themselves.
func startCacheServer(t *testing.T) (*sqldb.DB, *wire.Server, *wire.Codec) {
	t.Helper()
	return startProfiledServer(t, wire.ProfileFast)
}

// startProfiledServer is startCacheServer under a vendor profile.
func startProfiledServer(t *testing.T, profile wire.Profile) (*sqldb.DB, *wire.Server, *wire.Codec) {
	t.Helper()
	db := sqldb.NewDB()
	db.MustExec(`CREATE TABLE typed (id INTEGER PRIMARY KEY, run_id INTEGER, time REAL)`, nil)
	db.MustExec(`INSERT INTO typed (id, run_id, time) VALUES (1, 1, 1.0), (2, 1, 2.0), (3, 2, 4.0)`, nil)
	srv, err := wire.NewServer(db, profile, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		nc.Close()
		srv.Close()
	})
	return db, srv, wire.NewCodec(nc)
}

func roundTrip(t *testing.T, codec *wire.Codec, req *wire.Request) *wire.Response {
	t.Helper()
	if err := codec.WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	resp, err := codec.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestExecRepliesReportCacheHits: a repeated text execution is answered from
// the server's result cache and says so in the reply.
func TestExecRepliesReportCacheHits(t *testing.T) {
	_, _, codec := startCacheServer(t)
	req := &wire.Request{Kind: wire.ReqExec, SQL: `SELECT SUM(time) FROM typed`}
	first := roundTrip(t, codec, req)
	if first.Err != "" || first.CacheHits != 0 {
		t.Fatalf("first exec: err=%q hits=%d", first.Err, first.CacheHits)
	}
	second := roundTrip(t, codec, req)
	if second.Err != "" || second.CacheHits != 1 {
		t.Fatalf("second exec: err=%q hits=%d", second.Err, second.CacheHits)
	}
	if len(second.Rows) != 1 || second.Rows[0][0].Float() != 7.0 {
		t.Fatalf("cached rows: %v", second.Rows)
	}
}

// TestBatchRepliesMarkCachedItems: batch items answered from the cache carry
// the per-item Cached flag and are counted in the reply's CacheHits.
func TestBatchRepliesMarkCachedItems(t *testing.T) {
	_, _, codec := startCacheServer(t)
	prep := roundTrip(t, codec, &wire.Request{Kind: wire.ReqPrepare, SQL: `SELECT SUM(time) FROM typed WHERE run_id = $r`})
	if prep.Err != "" {
		t.Fatal(prep.Err)
	}
	batch := func(runs ...int64) *wire.Request {
		req := &wire.Request{Kind: wire.ReqExecBatch, StmtID: prep.StmtID}
		for _, r := range runs {
			req.Batch = append(req.Batch, wire.BatchBinding{
				Named: map[string]wire.WireValue{"r": wire.ToWire(sqldb.NewInt(r))},
			})
		}
		return req
	}
	first := roundTrip(t, codec, batch(1, 2))
	if first.Err != "" || first.CacheHits != 0 {
		t.Fatalf("first batch: err=%q hits=%d", first.Err, first.CacheHits)
	}
	second := roundTrip(t, codec, batch(1, 2, 1))
	if second.Err != "" {
		t.Fatal(second.Err)
	}
	if second.CacheHits != 3 {
		t.Fatalf("second batch hits = %d, want 3", second.CacheHits)
	}
	for i, item := range second.Items {
		if !item.Cached {
			t.Fatalf("item %d not marked cached", i)
		}
	}
}

// TestCacheStatsRequest: the one stats request, ReqServerStats, returns the
// engine's result-cache counters (they had a request kind of their own once,
// hence the name).
func TestCacheStatsRequest(t *testing.T) {
	_, _, codec := startCacheServer(t)
	req := &wire.Request{Kind: wire.ReqExec, SQL: `SELECT COUNT(*) FROM typed`}
	roundTrip(t, codec, req)
	roundTrip(t, codec, req)
	resp := roundTrip(t, codec, &wire.Request{Kind: wire.ReqServerStats})
	if resp.Err != "" || resp.Server == nil {
		t.Fatalf("server stats: err=%q server=%v", resp.Err, resp.Server)
	}
	if st := resp.Server; st.ResultCacheHits != 1 || st.ResultCacheMisses != 1 || st.ResultCacheEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
