package wire_test

// Fault injection for the wire layer: the protocol's failure modes are torn
// byte streams, dying peers, and readers that stop reading. None of them may
// take down the server, wedge unrelated connections, or leak goroutines.

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

// startServer launches a wire server over a fresh database.
func startServer(t testing.TB, profile wire.Profile) (*sqldb.DB, *wire.Server) {
	t.Helper()
	db := sqldb.NewDB()
	srv, err := wire.NewServer(db, profile, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, srv
}

// TestTornFrameClientToServer: a client that dies mid-frame (half a
// request, then EOF) must cost the server nothing but that one connection —
// concurrent and subsequent clients are unaffected.
func TestTornFrameClientToServer(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, srv := startServer(t, wire.ProfileFast)

	// A healthy connection established before the fault.
	healthy, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	// Encode a valid request, then send only half of it.
	frame := encodeRequests(t, &wire.Request{Kind: wire.ReqPing})
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	// And one that sends outright garbage.
	raw2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw2.Write([]byte("\xff\xfe\xfd this is not a frame \x00\x01")); err != nil {
		t.Fatal(err)
	}
	raw2.Close()

	// The server survives both: the pre-existing connection still works, and
	// new connections are accepted.
	if err := healthy.Ping(); err != nil {
		t.Fatalf("healthy connection after torn frames: %v", err)
	}
	fresh, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial after torn frames: %v", err)
	}
	defer fresh.Close()
	if err := fresh.Ping(); err != nil {
		t.Fatalf("fresh connection after torn frames: %v", err)
	}
}

// TestTornFrameServerToClient: garbage on the reply stream must surface as an
// error on the call that was waiting and on every later one — never hang,
// never mis-deliver.
func TestTornFrameServerToClient(t *testing.T) {
	testutil.CheckGoroutines(t)
	// A fake "server" that reads one request and answers with garbage.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1024)
		conn.Read(buf)
		conn.Write([]byte("\x07garbage that is not a Response"))
	}()

	c, err := godbc.Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("ping over a garbage reply stream succeeded")
	}
	// The connection is poisoned: later calls fail fast instead of hanging.
	errc := make(chan error, 1)
	go func() { errc <- c.Ping() }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("second ping on a poisoned connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second ping on a poisoned connection hung")
	}
}

// TestSlowReaderBackpressure: a client that floods requests and never reads
// replies only backs up its own connection. A second client on the same
// server stays responsive — per-connection writes must not share a lock.
func TestSlowReaderBackpressure(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, srv := startServer(t, wire.ProfileFast)
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)", nil); err != nil {
		t.Fatal(err)
	}
	// Bulk rows so replies are big enough to fill kernel buffers eventually.
	for i := 0; i < 64; i++ {
		if _, err := db.Exec("INSERT INTO t (id, v) VALUES (?, ?)", &sqldb.Params{
			Positional: []sqldb.Value{sqldb.NewInt(int64(i)), sqldb.NewText("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The slow reader: raw codec, writes requests, reads nothing.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	codec := wire.NewCodec(raw)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := codec.WriteRequest(&wire.Request{Kind: wire.ReqQueryCursor, SQL: "SELECT id, v FROM t"}); err != nil {
				return // write blocked until teardown closed the socket
			}
		}
	}()

	// Meanwhile a well-behaved client must see ordinary latency.
	c, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := c.ExecQueryContext(ctx, "SELECT id FROM t", nil)
		cancel()
		if err != nil {
			t.Fatalf("well-behaved client starved beside a slow reader: %v", err)
		}
	}
}

// refusingPeer is a raw listener speaking the wire codec that prepares and
// pings like a server but answers ReqExecBatch and ReqServerStats as request
// kinds it does not know, and counts what it was sent.
type refusingPeer struct {
	lis net.Listener
	wg  sync.WaitGroup

	mu   sync.Mutex
	seen map[wire.RequestKind]int
}

func startRefusingPeer(t *testing.T) *refusingPeer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &refusingPeer{lis: lis, seen: make(map[wire.RequestKind]int)}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go p.serve(conn)
		}
	}()
	t.Cleanup(func() { lis.Close(); p.wg.Wait() })
	return p
}

func (p *refusingPeer) serve(conn net.Conn) {
	defer p.wg.Done()
	defer conn.Close()
	codec := wire.NewCodec(conn)
	for {
		req, err := codec.ReadRequest()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.seen[req.Kind]++
		p.mu.Unlock()
		resp := &wire.Response{}
		switch req.Kind {
		case wire.ReqPrepare:
			resp.StmtID = 1
		case wire.ReqExecBatch, wire.ReqServerStats:
			resp.Err = fmt.Sprintf("wire: unknown request kind %d", req.Kind)
		}
		if codec.WriteResponse(resp) != nil {
			return
		}
	}
}

func (p *refusingPeer) count(kind wire.RequestKind) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seen[kind]
}

// TestRefusedRequestKindIsAnOrdinaryError: a peer that refuses a request kind
// gets no special treatment. Batch execution and the stats call, on a plain
// connection and through a pool, return the peer's error to the caller after
// exactly one request — no retry through another kind, no remembered verdict
// — and the connection stays usable.
func TestRefusedRequestKindIsAnOrdinaryError(t *testing.T) {
	testutil.CheckGoroutines(t)
	binding := []*sqldb.Params{{Named: map[string]sqldb.Value{"id": sqldb.NewInt(1)}}}
	clients := map[string]func(t *testing.T, addr string) (batch, server, ping func() error){
		"Conn": func(t *testing.T, addr string) (batch, server, ping func() error) {
			conn, err := godbc.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			st, err := conn.Prepare("SELECT v FROM t WHERE id = $id")
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := st.ExecBatch(binding); return err },
				func() error { _, _, err := conn.ServerStats(); return err },
				conn.Ping
		},
		"Pool": func(t *testing.T, addr string) (batch, server, ping func() error) {
			// One slot, so every call — the ping included — reuses the
			// connection the refusal arrived on.
			p, err := godbc.NewPool(addr, 1)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			pq, err := p.PrepareQuery("SELECT v FROM t WHERE id = $id")
			if err != nil {
				t.Fatal(err)
			}
			return func() error { _, err := pq.(sqlgen.BatchPreparedQuery).ExecQueryBatch(binding); return err },
				func() error { _, _, err := p.ServerStats(); return err },
				func() error {
					c, err := p.Get()
					if err != nil {
						return err
					}
					defer p.Put(c)
					return c.Ping()
				}
		},
	}
	for name, dial := range clients {
		t.Run(name, func(t *testing.T) {
			peer := startRefusingPeer(t)
			batch, server, ping := dial(t, peer.lis.Addr().String())
			for _, c := range []struct {
				kind wire.RequestKind
				call func() error
			}{
				{wire.ReqExecBatch, batch},
				{wire.ReqServerStats, server},
			} {
				want := fmt.Sprintf("wire: unknown request kind %d", c.kind)
				if err := c.call(); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("kind %d: err = %v, want %q", c.kind, err, want)
				}
				if n := peer.count(c.kind); n != 1 {
					t.Errorf("kind %d: peer received %d requests, want 1", c.kind, n)
				}
				if err := ping(); err != nil {
					t.Fatalf("kind %d: connection unusable after the refusal: %v", c.kind, err)
				}
			}
			if n := peer.count(wire.ReqExecPrepared) + peer.count(wire.ReqExec); n != 0 {
				t.Errorf("client fell back to %d single executions", n)
			}
		})
	}
}

// TestOneRequestAtATimeProtocol: the whole protocol from a plain Conn — ping,
// a parameterized write, a read — each request answered in turn on the one
// connection.
func TestOneRequestAtATimeProtocol(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, srv := startServer(t, wire.ProfileFast)
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}

	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO t (id) VALUES (?)", &sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	set, err := conn.ExecQuery("SELECT id FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 1 {
		t.Fatalf("rows: %v", set.Rows)
	}
}
