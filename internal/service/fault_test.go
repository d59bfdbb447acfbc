package service_test

// Fault injection for the service protocol — the one multiplexed transport in
// the stack, so the one where a misbehaving connection shares a server with
// well-behaved ones: a reader that stops reading and a torn request frame
// must each cost their own connection and nothing else.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

// TestSlowReaderStallsOnlyItsOwnReplies: a client that sends analyses and
// then stops reading stalls the replies of its own connection only. The
// stalled replies hold no admission slot — a second client on a capacity-1
// service keeps completing analyses meanwhile — and none is lost: when the
// slow client finally reads, every request has exactly one reply waiting.
//
// The slow client sits on a net.Pipe, which has no buffer at all: the
// server's first reply write blocks for certain, where a TCP socket would
// first absorb megabytes into kernel buffers.
func TestSlowReaderStallsOnlyItsOwnReplies(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := buildGraph(t)
	svc := service.New(g, startWirePool(t, g, wire.ProfileFast, 4), service.Config{Capacity: 1})
	srv := service.NewServer(svc, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	near, far := net.Pipe()
	served := make(chan struct{})
	go func() { srv.ServeConn(far); far.Close(); close(served) }()
	slow := service.NewCodec(near)
	const stalled = 4
	for id := int64(1); id <= stalled; id++ {
		if err := slow.WriteRequest(&service.Request{Kind: service.ReqAnalyze, ID: id, Tenant: "slow"}); err != nil {
			t.Fatal(err)
		}
	}
	// Every one of them ran to completion and gave its slot back, though not
	// one reply could be written.
	waitFor(t, func() bool {
		return svc.Metrics().Snapshot()["slow"].Completed == stalled && svc.Admission().Stats().InFlight == 0
	})

	good := dialClient(t, srv.Addr())
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := good.Analyze(ctx, "good", 0)
		cancel()
		if err != nil {
			t.Fatalf("well-behaved client starved beside a slow reader: %v", err)
		}
	}

	seen := make(map[int64]bool)
	for i := 0; i < stalled; i++ {
		resp, err := slow.ReadResponse()
		if err != nil {
			t.Fatalf("stalled reply %d: %v", i, err)
		}
		if resp.Err != "" || resp.Report == "" || seen[resp.ID] || resp.ID < 1 || resp.ID > stalled {
			t.Fatalf("stalled reply %d: id %d err %q, report of %d bytes", i, resp.ID, resp.Err, len(resp.Report))
		}
		seen[resp.ID] = true
	}
	near.Close()
	<-served
}

// TestTornRequestFrameCostsOnlyItsConnection: a request frame that breaks off
// into garbage, with analyses of the same connection in flight, costs exactly
// that connection: the server hangs up on it, cancels its analyses and gets
// their admission slots back, and keeps serving everyone else.
func TestTornRequestFrameCostsOnlyItsConnection(t *testing.T) {
	testutil.CheckGoroutines(t)
	svc, addr := startService(t, wire.ProfileOracleRemote, service.Config{Capacity: 2})
	bystander := dialClient(t, addr)
	if err := bystander.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	codec := service.NewCodec(raw)
	for id := int64(1); id <= 2; id++ {
		if err := codec.WriteRequest(&service.Request{Kind: service.ReqAnalyze, ID: id, Tenant: "torn"}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return svc.Admission().Stats().InFlight == 2 })

	// The first half of a well-formed frame, then bytes that are not the
	// second half. The frame comes from a fresh codec, so it also
	// re-declares a type the connection has already seen.
	var frame bytes.Buffer
	if err := service.NewCodec(&frame).WriteRequest(&service.Request{Kind: service.ReqAnalyze, ID: 3, Tenant: "torn"}); err != nil {
		t.Fatal(err)
	}
	torn := append(frame.Bytes()[:frame.Len()/2:frame.Len()/2], bytes.Repeat([]byte{0xff}, frame.Len())...)
	if _, err := raw.Write(torn); err != nil {
		t.Fatal(err)
	}

	// The server hangs up: whatever replies it still wrote, the stream ends
	// (in EOF, or in a reset when the server closed with garbage unread).
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, raw); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the server did not close the torn connection")
	}
	waitFor(t, func() bool { return svc.Admission().Stats().InFlight == 0 })
	if ts := svc.Metrics().Snapshot()["torn"]; ts.Canceled != 2 || ts.Completed != 0 {
		t.Errorf("the torn connection's analyses: %d canceled, %d completed, want 2 and 0", ts.Canceled, ts.Completed)
	}

	if _, err := bystander.Analyze(context.Background(), "bystander", 0); err != nil {
		t.Fatalf("analysis on another connection after the torn frame: %v", err)
	}
}
