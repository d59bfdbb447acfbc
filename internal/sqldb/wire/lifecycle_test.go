package wire_test

// The life cycle wire.Server and service.Server share (internal/netsrv),
// tested once against both: the skeleton is one type, but each server plugs
// its own connection handler into it, and a drain is only as good as the
// handler's way of noticing that its connection is finished.

import (
	"context"
	"testing"
	"time"

	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

// lifecycle is what both servers get from the skeleton.
type lifecycle interface {
	Listen(addr string) error
	Addr() string
	Close() error
	Shutdown(timeout time.Duration) error
	Draining() bool
	ConnCount() int
}

// peer is a connected client of either protocol.
type peer struct {
	ping  func() error
	close func() error
}

var lifecycleServers = []struct {
	name string
	new  func(t *testing.T) lifecycle
	dial func(addr string) (peer, error)
}{
	{
		name: "wire",
		new: func(t *testing.T) lifecycle {
			srv, err := wire.NewServer(sqldb.NewDB(), wire.ProfileFast, nil)
			if err != nil {
				t.Fatal(err)
			}
			return srv
		},
		dial: func(addr string) (peer, error) {
			c, err := godbc.Dial(addr)
			if err != nil {
				return peer{}, err
			}
			return peer{ping: c.Ping, close: c.Close}, nil
		},
	},
	{
		name: "service",
		new: func(t *testing.T) lifecycle {
			// Pings never reach the analyzer, so its graph holds no data.
			return service.NewServer(service.New(new(model.Graph), nil, service.Config{Capacity: 1}), nil)
		},
		dial: func(addr string) (peer, error) {
			c, err := service.Dial(addr)
			if err != nil {
				return peer{}, err
			}
			return peer{ping: func() error { return c.Ping(context.Background()) }, close: c.Close}, nil
		},
	},
}

// returns waits for the call running behind done to finish.
func returns(t *testing.T, what string, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

func TestServerShutdownDrains(t *testing.T) {
	testutil.CheckGoroutines(t)
	for _, kind := range lifecycleServers {
		// start launches a server and connects one client whose connection
		// the server has accepted (a ping went through).
		start := func(t *testing.T) (lifecycle, peer) {
			t.Helper()
			srv := kind.new(t)
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			if srv.Draining() {
				t.Fatal("a fresh server reports draining")
			}
			c, err := kind.dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.close() })
			if err := c.ping(); err != nil {
				t.Fatal(err)
			}
			if n := srv.ConnCount(); n != 1 {
				t.Fatalf("ConnCount = %d with one client connected", n)
			}
			return srv, c
		}
		// draining starts a Shutdown in the background and returns once the
		// drain has begun.
		draining := func(t *testing.T, srv lifecycle, timeout time.Duration) <-chan error {
			t.Helper()
			done := make(chan error, 1)
			go func() { done <- srv.Shutdown(timeout) }()
			for deadline := time.Now().Add(5 * time.Second); !srv.Draining(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("Shutdown never began draining")
				}
			}
			return done
		}
		// refused checks that the server takes no new client: the dial, or
		// at the latest the first round trip, fails.
		refused := func(t *testing.T, srv lifecycle) {
			t.Helper()
			c, err := kind.dial(srv.Addr())
			if err != nil {
				return
			}
			defer c.close()
			if c.ping() == nil {
				t.Error("server served a connection made after it stopped accepting")
			}
		}

		t.Run(kind.name+"/waits for a busy connection", func(t *testing.T) {
			srv, c := start(t)
			done := draining(t, srv, time.Minute)
			// The drain is not a cut-off: the connected client is still served.
			if err := c.ping(); err != nil {
				t.Fatalf("ping during the drain: %v", err)
			}
			select {
			case err := <-done:
				t.Fatalf("Shutdown returned (%v) with a client still connected", err)
			default:
			}
			refused(t, srv)
			c.close()
			returns(t, "Shutdown after the client left", done)
			if n := srv.ConnCount(); n != 0 {
				t.Errorf("ConnCount = %d after the drain", n)
			}
		})

		t.Run(kind.name+"/expired timeout force-closes", func(t *testing.T) {
			srv, c := start(t)
			if err := srv.Shutdown(20 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if c.ping() == nil {
				t.Error("ping succeeded after a forced shutdown")
			}
			if n := srv.ConnCount(); n != 0 {
				t.Errorf("ConnCount = %d after a forced shutdown", n)
			}
			refused(t, srv)
		})

		t.Run(kind.name+"/Close cuts a drain short", func(t *testing.T) {
			srv, c := start(t)
			done := draining(t, srv, time.Minute)
			closed := make(chan error, 1)
			go func() { closed <- srv.Close() }()
			returns(t, "Close during a drain", closed)
			returns(t, "the drain Close cut short", done)
			if c.ping() == nil {
				t.Error("ping succeeded after Close")
			}
		})

		t.Run(kind.name+"/Draining never reverts", func(t *testing.T) {
			srv, c := start(t)
			c.close()
			// With no client left, even a long drain returns at once.
			done := draining(t, srv, time.Minute)
			returns(t, "an idle Shutdown", done)
			for _, again := range []func() error{srv.Close, func() error { return srv.Shutdown(time.Second) }, srv.Close} {
				if err := again(); err != nil {
					t.Errorf("stopping a stopped server: %v", err)
				}
				if !srv.Draining() {
					t.Fatal("Draining reverted")
				}
			}
			refused(t, srv)
		})
	}
}
