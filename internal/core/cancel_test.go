package core

// Cancellation at the analyzer layer: AnalyzeSQLCtx must stop between (and
// inside) property batches when the context fires, return the context's
// error rather than a partial report, and give every pool connection back.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/apprentice"
	"repro/internal/godbc"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

func TestAnalyzeSQLCtxPreCanceled(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := New(g)
	rep, err := a.AnalyzeSQLCtx(ctx, lastRun(g), godbc.Embedded{DB: db})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("canceled analysis returned a report")
	}
}

// TestAnalyzeSQLCtxCancelMidBatch: cancel while property batches are in
// flight on a slow wire. The analysis returns context.Canceled well before it
// could have finished, and the pool has all its connections afterwards.
func TestAnalyzeSQLCtxCancelMidBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	srv, err := wire.NewServer(db, wire.ProfileOracleRemote, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const conns = 4
	pool, err := godbc.NewPool(srv.Addr(), conns)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		a := New(g)
		_, err := a.AnalyzeSQLCtx(ctx, lastRun(g), pool)
		errc <- err
	}()
	time.Sleep(8 * time.Millisecond) // let batches reach the wire
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled analysis did not return")
	}

	// No orphaned pool connections: every slot can be checked out again.
	getCtx, done := context.WithTimeout(context.Background(), 5*time.Second)
	defer done()
	held := make([]*godbc.Conn, 0, conns)
	for i := 0; i < conns; i++ {
		c, err := pool.GetCtx(getCtx)
		if err != nil {
			t.Fatalf("slot %d not returned to the pool: %v", i, err)
		}
		held = append(held, c)
	}
	for _, c := range held {
		pool.Put(c)
	}
}

// TestAnalyzeSQLCtxDeadlineMidBatch: same as above with a deadline instead of
// an explicit cancel; the error is context.DeadlineExceeded.
func TestAnalyzeSQLCtxDeadlineMidBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	srv, err := wire.NewServer(db, wire.ProfileOracleRemote, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool, err := godbc.NewPool(srv.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Millisecond)
	defer cancel()
	a := New(g)
	if _, err := a.AnalyzeSQLCtx(ctx, lastRun(g), pool); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestAnalyzeSQLCtxUncanceledMatchesPlain: passing a live context must not
// change the result — the ctx path renders byte-identically to AnalyzeSQL.
func TestAnalyzeSQLCtxUncanceledMatchesPlain(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	run := lastRun(g)
	a := New(g)
	want, err := a.AnalyzeSQL(run, godbc.Embedded{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.AnalyzeSQLCtx(context.Background(), run, godbc.Embedded{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Errorf("ctx analysis differs from plain:\n--- plain ---\n%s--- ctx ---\n%s", want.Render(), got.Render())
	}
}

// TestShardedTextProtocolCancelAtCheckout: with prepared statements disabled
// a sharded analysis runs one-shot routed text queries — one per instance at
// batch size 1, enough of them to be caught in flight. Mid-analysis on a
// slow wire the test takes every pooled connection away, so each worker's
// next query waits at pool checkout; canceling must free them there — the
// routed text path observes the context like every other path — rather than
// leave the analysis waiting for connections that never come back.
func TestShardedTextProtocolCancelAtCheckout(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := buildGraph(t, apprentice.Particles())
	h := startProfiledShardHarness(t, g, 2, wire.ProfileOracleRemote)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		a := New(g, WithPreparedStatements(false), WithWorkers(4), WithBatchSize(1))
		_, err := a.AnalyzeSQLCtx(ctx, lastRun(g), h.sdb)
		errc <- err
	}()
	time.Sleep(8 * time.Millisecond) // let queries reach the wire

	// Get hands over each connection as the query holding it completes.
	for i := 0; i < h.sdb.Shards(); i++ {
		pool := h.sdb.Pool(i)
		for j := 0; j < shardConns; j++ {
			c, err := pool.Get()
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Put(c)
		}
	}
	select {
	case err := <-errc:
		t.Fatalf("analysis ended (%v) before it could be starved of connections", err)
	default:
	}

	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled analysis still waits at pool checkout")
	}
}
