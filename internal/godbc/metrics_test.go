package godbc_test

import (
	"testing"

	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

func TestServerStatsOverWire(t *testing.T) {
	_, srv := startCachePair(t)
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 3; i++ {
		if _, err := conn.ExecQuery(`SELECT id FROM typed WHERE run_id = 1`, nil); err != nil {
			t.Fatal(err)
		}
	}
	stats, ok, err := conn.ServerStats()
	if err != nil || !ok {
		t.Fatalf("ServerStats: ok=%v err=%v", ok, err)
	}
	// 3 queries + the stats request itself have been served by now.
	if stats.Requests < 4 {
		t.Errorf("requests = %d, want at least 4", stats.Requests)
	}
	if stats.VecSelects+stats.VecFallbacks == 0 {
		t.Errorf("no SELECT executions counted: %+v", stats)
	}
}

func TestServerStatsVendorCost(t *testing.T) {
	// A profiled server charges simulated vendor delay per statement;
	// VendorNanos must reflect it. ProfileFast servers (the other tests)
	// legitimately report zero.
	db := sqldb.NewDB()
	db.MustExec(`CREATE TABLE typed (id INTEGER PRIMARY KEY, run_id INTEGER, time REAL)`, nil)
	db.MustExec(`INSERT INTO typed (id, run_id, time) VALUES (1, 1, 1.0), (2, 2, 4.0)`, nil)
	srv, err := wire.NewServer(db, wire.ProfileMSSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.ExecQuery(`SELECT COUNT(*) FROM typed`, nil); err != nil {
		t.Fatal(err)
	}
	stats, ok, err := conn.ServerStats()
	if err != nil || !ok {
		t.Fatalf("ServerStats: ok=%v err=%v", ok, err)
	}
	// At least the query's round trip + statement + prepare charges.
	if min := int64(wire.ProfileMSSQL.RoundTrip); stats.VendorNanos < min {
		t.Errorf("vendor cost = %dns, want at least %dns", stats.VendorNanos, min)
	}
}

func TestPoolMetricsCheckoutAccounting(t *testing.T) {
	_, srv := startCachePair(t)
	pool, err := godbc.NewPool(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	for i := 0; i < 5; i++ {
		if _, err := pool.ExecQuery(`SELECT COUNT(*) FROM typed`, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Metrics()
	if st.Addr != srv.Addr() {
		t.Errorf("addr = %q, want %q", st.Addr, srv.Addr())
	}
	if st.Capacity != 2 || st.InUse != 0 {
		t.Errorf("occupancy wrong: %+v", st)
	}
	if st.Checkouts != 5 {
		t.Errorf("checkouts = %d, want 5", st.Checkouts)
	}
	if st.CheckoutWait.Count != st.Checkouts {
		t.Errorf("wait histogram holds %d observations for %d checkouts", st.CheckoutWait.Count, st.Checkouts)
	}
	// Sequential single-connection use never dials a second connection and
	// never waits for a slot.
	if st.Dialed != 1 || st.Discarded != 0 {
		t.Errorf("dialed %d discarded %d, want 1 and 0", st.Dialed, st.Discarded)
	}
}
