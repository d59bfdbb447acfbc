package service_test

// The cancellation paths promised by the resident service, each run under the
// goroutine-leak check: abandoning an analysis — by deadline, by explicit
// cancel, or by yanking the whole connection — must wind down every goroutine
// it started and return every pool connection it held.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

// TestCancelWhileQueuedNoLeak: capacity 1, one analysis occupying it, a
// second waiting in the admission queue. Canceling the queued one returns its
// context error promptly, sheds the waiter, and leaks nothing; the occupant
// finishes untouched.
func TestCancelWhileQueuedNoLeak(t *testing.T) {
	testutil.CheckGoroutines(t)
	svc, addr := startService(t, wire.ProfileOracleRemote, service.Config{Capacity: 1})
	occupant := dialClient(t, addr)
	queued := dialClient(t, addr)

	occErr := make(chan error, 1)
	go func() {
		_, err := occupant.Analyze(context.Background(), "occupant", 0)
		occErr <- err
	}()
	// Wait until the occupant actually holds the slot.
	waitFor(t, func() bool { return svc.Admission().Stats().InFlight == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	qErr := make(chan error, 1)
	go func() {
		_, err := queued.Analyze(ctx, "queued", 0)
		qErr <- err
	}()
	waitFor(t, func() bool { return svc.Admission().Stats().Waiting == 1 })

	cancel()
	select {
	case err := <-qErr:
		if err == nil {
			t.Fatal("queued analysis succeeded despite cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled queued analysis did not return")
	}
	if err := <-occErr; err != nil {
		t.Fatalf("occupant analysis: %v", err)
	}
	waitFor(t, func() bool {
		st := svc.Admission().Stats()
		return st.InFlight == 0 && st.Waiting == 0
	})
	if st := svc.Admission().Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1 (stats: %+v)", st.Shed, st)
	}
}

// TestCancelMidAnalysisNoLeak: cancel an analysis while its batches are in
// flight on the wire. The call returns the context error, the connection
// stays usable, and a follow-up analysis on the same service still succeeds —
// the pool got its connections back.
func TestCancelMidAnalysisNoLeak(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, addr := startService(t, wire.ProfileOracleRemote, service.Config{Capacity: 2})
	c := dialClient(t, addr)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Analyze(ctx, "alice", 0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let some batches hit the wire
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("canceled analysis succeeded")
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, service.ErrCanceled) {
			t.Fatalf("canceled analysis returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled analysis did not return")
	}

	// The service must still have its full pool: an uncanceled analysis
	// completes. (A leaked pool slot would hang it until this test times out.)
	if _, err := c.Analyze(context.Background(), "alice", 0); err != nil {
		t.Fatalf("analysis after a canceled one: %v", err)
	}
}

// TestClientDisconnectMidAnalysisNoLeak: the client vanishes with an analysis
// in flight. The server cancels the orphaned work, releases its admission
// slot, and the service keeps serving other clients.
func TestClientDisconnectMidAnalysisNoLeak(t *testing.T) {
	testutil.CheckGoroutines(t)
	svc, addr := startService(t, wire.ProfileOracleRemote, service.Config{Capacity: 2})

	doomed := dialClient(t, addr)
	errc := make(chan error, 1)
	go func() {
		_, err := doomed.Analyze(context.Background(), "doomed", 0)
		errc <- err
	}()
	waitFor(t, func() bool { return svc.Admission().Stats().InFlight == 1 })
	doomed.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("analysis on a closed connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("analysis on a closed connection did not return")
	}
	// The orphaned analysis must release its slot server-side.
	waitFor(t, func() bool { return svc.Admission().Stats().InFlight == 0 })

	survivor := dialClient(t, addr)
	if _, err := survivor.Analyze(context.Background(), "survivor", 0); err != nil {
		t.Fatalf("analysis after another client's disconnect: %v", err)
	}
}

// TestExplicitCancelStopsServerWork: a ReqCancel (sent by abandoning the
// client call) cancels the named server-side request — observable as the
// admission slot freeing long before the analysis could have finished.
func TestExplicitCancelStopsServerWork(t *testing.T) {
	testutil.CheckGoroutines(t)
	svc, addr := startService(t, wire.ProfileOracleRemote, service.Config{Capacity: 1})
	c := dialClient(t, addr)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.Analyze(ctx, "alice", 0)
		errc <- err
	}()
	waitFor(t, func() bool { return svc.Admission().Stats().InFlight == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call returned %v, want context.Canceled", err)
	}
	// The server must observe the ReqCancel and free the capacity without the
	// client disconnecting.
	waitFor(t, func() bool { return svc.Admission().Stats().InFlight == 0 })
	if _, err := c.Analyze(context.Background(), "alice", 0); err != nil {
		t.Fatalf("analysis after an explicit cancel: %v", err)
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// shippedDeadline carries a deadline the client ships to the server but
// never acts on itself: Done stays the parent's, so the client keeps waiting
// and the reply it gets is the server's own verdict.
type shippedDeadline struct {
	context.Context
	at time.Time
}

func (c shippedDeadline) Deadline() (time.Time, bool) { return c.at, true }

// TestSentinelErrorsCrossTheWire: an analysis the server sheds at its
// deadline and one the full admission queue rejects both reach the client,
// whose own context is still live, as the errors.Is-matchable sentinels — not
// as bare text to be substring-matched.
func TestSentinelErrorsCrossTheWire(t *testing.T) {
	testutil.CheckGoroutines(t)
	svc, addr := startService(t, wire.ProfileOracleRemote, service.Config{Capacity: 1, MaxQueue: 1})

	late := shippedDeadline{context.Background(), time.Now().Add(5 * time.Millisecond)}
	if _, err := dialClient(t, addr).Analyze(late, "late", 0); !errors.Is(err, service.ErrCanceled) {
		t.Fatalf("analysis past its shipped deadline returned %v, want ErrCanceled", err)
	}
	waitFor(t, func() bool { return svc.Admission().Stats().InFlight == 0 })

	// Fill the slot and the one queue place; the third request is rejected.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i, arrived := range []func() bool{
		func() bool { return svc.Admission().Stats().InFlight == 1 },
		func() bool { return svc.Admission().Stats().Waiting == 1 },
	} {
		c := dialClient(t, addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Analyze(ctx, fmt.Sprintf("holder-%d", i), 0) // outcome irrelevant: canceled below
		}()
		waitFor(t, arrived)
	}
	if _, err := dialClient(t, addr).Analyze(context.Background(), "third", 0); !errors.Is(err, service.ErrRejected) {
		t.Errorf("analysis against a full queue returned %v, want ErrRejected", err)
	}
	cancel()
	wg.Wait()
}
