package sqldb_test

import (
	"bytes"
	"testing"

	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

// filledStats returns a snapshot whose every counter holds a distinct
// non-zero value: base+1, base+2, ... in declaration order.
func filledStats(base int64) sqldb.Stats {
	var st sqldb.Stats
	testutil.FillCounters(&st, func() int64 { base++; return base })
	return st
}

// serveStats starts a wire server over a database that reports st.
func serveStats(t *testing.T, st sqldb.Stats) string {
	t.Helper()
	db := sqldb.NewDB()
	db.SetStats(st)
	srv, err := wire.NewServer(db, wire.ProfileFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// TestStatsDeclaredOnce: sqldb.Stats is the only declaration of the engine's
// counters and Stats.Counters the only field list, so a snapshot with every
// numeric field set (found by reflection, VecFallbackReasons included) must
// come back unchanged from each layer that carries it. A counter added to the
// struct but not to Counters reads 0 here instead of reading 0 in cosytop.
func TestStatsDeclaredOnce(t *testing.T) {
	want := filledStats(0)
	seen := map[int64]bool{0: true}
	for _, c := range want.Counters() {
		if seen[*c] {
			t.Fatalf("Counters lists a field twice, or one FillCounters did not reach (value %d)", *c)
		}
		seen[*c] = true
	}

	t.Run("wire round trip", func(t *testing.T) {
		var sent wire.ServerStats // the engine's counters and the server's own
		n := int64(0)
		testutil.FillCounters(&sent, func() int64 { n++; return n })
		var buf bytes.Buffer
		codec := wire.NewCodec(&buf)
		if err := codec.WriteResponse(&wire.Response{Server: &sent}); err != nil {
			t.Fatal(err)
		}
		resp, err := codec.ReadResponse()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Server == nil || *resp.Server != sent {
			t.Fatalf("ReqServerStats reply changed on the wire:\nsent %+v\ngot  %+v", sent, resp.Server)
		}
	})

	t.Run("engine", func(t *testing.T) {
		db := sqldb.NewDB()
		db.SetStats(want)
		if got := db.Stats(); got != want {
			t.Fatalf("DB.Stats drops a counter (or the test hook SetStats does not set it):\nwant %+v\ngot  %+v", want, got)
		}
	})

	t.Run("Embedded", func(t *testing.T) {
		db := sqldb.NewDB()
		db.SetStats(want)
		got, ok, err := godbc.Embedded{DB: db}.ServerStats()
		if err != nil || !ok {
			t.Fatalf("ServerStats: ok=%v err=%v", ok, err)
		}
		if got != (godbc.ServerStats{Stats: want}) {
			t.Fatalf("Embedded.ServerStats:\nwant %+v\ngot  %+v", want, got)
		}
	})

	t.Run("ShardedDB sums two shards", func(t *testing.T) {
		other := filledStats(1000)
		sdb, err := godbc.DialSharded([]string{serveStats(t, want), serveStats(t, other)}, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer sdb.Close()
		got, ok, err := sdb.ServerStats()
		if err != nil || !ok {
			t.Fatalf("ServerStats: ok=%v err=%v", ok, err)
		}
		// Each shard's snapshot was the first request its server saw.
		sum := godbc.ServerStats{Stats: want, Requests: 2}
		theirs := other.Counters()
		for i, c := range sum.Stats.Counters() {
			*c += *theirs[i]
		}
		if got != sum {
			t.Fatalf("sum over shards:\nwant %+v\ngot  %+v", sum, got)
		}
	})
}
