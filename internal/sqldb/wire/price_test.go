package wire_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// priced has a distinct power of two per charge, so every sum names the
// charges it is made of.
var priced = wire.Profile{
	Name:         "priced",
	RoundTrip:    1 * time.Microsecond,
	PerStatement: 2 * time.Microsecond,
	PerPrepare:   4 * time.Microsecond,
	PerRowWrite:  8 * time.Microsecond,
	PerRowRead:   16 * time.Microsecond,
}

// TestProfileCost pins the price list: the statement, compilation when asked
// for, and each row written and read.
func TestProfileCost(t *testing.T) {
	for _, c := range []struct {
		compile       bool
		written, read int
		want          time.Duration
	}{
		{false, 0, 0, 2 * time.Microsecond},
		{true, 0, 0, 6 * time.Microsecond},
		{false, 3, 0, 26 * time.Microsecond},
		{false, 0, 5, 82 * time.Microsecond},
		{true, 2, 1, 38 * time.Microsecond},
	} {
		if got := priced.Cost(c.compile, c.written, c.read); got != c.want {
			t.Errorf("Cost(%v, %d, %d) = %v, want %v", c.compile, c.written, c.read, got, c.want)
		}
	}
	if got := wire.ProfileFast.Cost(true, 100, 100); got != 0 {
		t.Errorf("the fast profile charges %v", got)
	}
}

// TestServerChargesThePriceList: what the server adds to VendorNanos for a
// request is its round trip plus the price list's charge — for a text
// execution, a text query, a prepare, a cursor open, and each binding of a
// batch — nothing more for an answer from the result cache, the statement
// alone for a failed binding, and the round trip alone for a refused kind.
func TestServerChargesThePriceList(t *testing.T) {
	_, _, codec := startProfiledServer(t, priced)
	vendor := func() time.Duration {
		return time.Duration(roundTrip(t, codec, &wire.Request{Kind: wire.ReqServerStats}).Server.VendorNanos)
	}
	// charged sends one request and returns its reply and what it added to
	// VendorNanos; the stats request after it pays a round trip of its own.
	charged := func(req *wire.Request) (*wire.Response, time.Duration) {
		before := vendor()
		resp := roundTrip(t, codec, req)
		return resp, vendor() - before - priced.RoundTrip
	}
	run := func(r int64) wire.BatchBinding {
		return wire.BatchBinding{Named: map[string]sqldb.Value{"r": sqldb.NewInt(r)}}
	}
	const query = `SELECT id FROM typed ORDER BY id`
	var stmt int64
	for _, c := range []struct {
		name string
		req  func() *wire.Request
		want time.Duration
		// check inspects the reply.
		check func(resp *wire.Response) error
	}{
		{"text exec", func() *wire.Request {
			return &wire.Request{Kind: wire.ReqExec, SQL: `INSERT INTO typed (id, run_id, time) VALUES (10, 3, 0.5), (11, 3, 0.5)`}
		}, priced.Cost(true, 2, 0), nil},
		{"text query", func() *wire.Request { return &wire.Request{Kind: wire.ReqExec, SQL: query} }, priced.Cost(true, 0, 5), nil},
		{"cached text query", func() *wire.Request { return &wire.Request{Kind: wire.ReqExec, SQL: query} }, 0,
			func(resp *wire.Response) error {
				if resp.CacheHits != 1 {
					return fmt.Errorf("%d cache hits, want 1", resp.CacheHits)
				}
				return nil
			}},
		{"prepare", func() *wire.Request {
			return &wire.Request{Kind: wire.ReqPrepare, SQL: `SELECT time FROM typed WHERE run_id = $r`}
		}, priced.Cost(true, 0, 0), func(resp *wire.Response) error { stmt = resp.StmtID; return nil }},
		{"cursor open", func() *wire.Request { return &wire.Request{Kind: wire.ReqQueryCursor, SQL: `SELECT time FROM typed`} }, priced.Cost(true, 0, 0), nil},
		// Run 1 has two rows and run 3 two; the third binding leaves $r unbound.
		{"batch", func() *wire.Request {
			return &wire.Request{Kind: wire.ReqExecBatch, StmtID: stmt, Batch: []wire.BatchBinding{run(1), run(3), {}}}
		}, priced.Cost(false, 0, 2) + priced.Cost(false, 0, 2) + priced.Cost(false, 0, 0),
			func(resp *wire.Response) error {
				if len(resp.Items) != 3 || resp.Items[2].Err == "" || resp.Items[0].Cached || resp.Items[1].Cached {
					return fmt.Errorf("items %+v, want two executed and a failed one", resp.Items)
				}
				return nil
			}},
		{"cached batch", func() *wire.Request {
			return &wire.Request{Kind: wire.ReqExecBatch, StmtID: stmt, Batch: []wire.BatchBinding{run(1)}}
		}, 0, func(resp *wire.Response) error {
			if len(resp.Items) != 1 || !resp.Items[0].Cached {
				return fmt.Errorf("items %+v, want one from the cache", resp.Items)
			}
			return nil
		}},
		{"retired single execution", func() *wire.Request {
			return &wire.Request{Kind: wire.ReqExecPrepared, StmtID: stmt, Named: map[string]sqldb.Value{"r": sqldb.NewInt(2)}}
		}, 0, func(resp *wire.Response) error {
			if want := fmt.Sprintf("wire: unknown request kind %d", wire.ReqExecPrepared); resp.Err != want {
				return fmt.Errorf("err %q, want %q", resp.Err, want)
			}
			return nil
		}},
	} {
		resp, got := charged(c.req())
		if c.check == nil && resp.Err != "" {
			t.Fatalf("%s: %s", c.name, resp.Err)
		}
		if c.check != nil {
			if err := c.check(resp); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if want := priced.RoundTrip + c.want; got != want {
			t.Errorf("%s: charged %v, want the round trip and %v", c.name, got, c.want)
		}
	}
}
