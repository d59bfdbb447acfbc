package godbc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/asl/sqlgen"
	"repro/internal/metrics"
	"repro/internal/sqldb"
)

// Pool is a fixed-capacity pool of connections to one wire server. Unlike a
// single Conn, a Pool is safe for concurrent use: every statement checks out
// its own connection for the duration of the round trip, so N in-flight
// queries hold N distinct connections — the JDBC "connection pool" the COSY
// analyzer's parallel evaluation pipeline needs to keep its workers from
// sharing a socket.
//
// Connections are dialed lazily up to the capacity and reused afterwards;
// connections that suffered a transport-level failure are discarded instead
// of being returned to the pool.
type Pool struct {
	addr string

	// slots bounds the number of checked-out plus idle connections.
	slots chan struct{}

	// Checkout instrumentation, surfaced by Metrics (see metrics.go).
	checkouts    metrics.Counter
	dialed       metrics.Counter
	discarded    metrics.Counter
	checkoutWait *metrics.Histogram

	mu     sync.Mutex
	idle   []*Conn
	closed bool
}

// NewPool connects to a wire server and returns a pool of at most size
// connections (values below 1 are treated as 1). The address is validated
// eagerly by dialing the first connection.
func NewPool(addr string, size int) (*Pool, error) {
	if size < 1 {
		size = 1
	}
	p := &Pool{
		addr:         addr,
		slots:        make(chan struct{}, size),
		checkoutWait: metrics.MustHistogram(),
	}
	for i := 0; i < size; i++ {
		p.slots <- struct{}{}
	}
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	p.dialed.Inc()
	p.idle = append(p.idle, c)
	return p, nil
}

// Size returns the pool capacity.
func (p *Pool) Size() int { return cap(p.slots) }

// acquireSlot claims one capacity slot, observing ctx while blocked and
// recording the wait into the checkout metrics. The common case — a free
// slot — is recorded as zero wait without consulting the clock, so the fast
// path stays two atomic adds. A caller whose ctx is already canceled claims
// nothing, free slot or not.
func (p *Pool) acquireSlot(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case <-p.slots:
		p.checkouts.Inc()
		p.checkoutWait.Observe(0)
		return nil
	default:
	}
	start := time.Now()
	select {
	case <-p.slots:
	case <-ctx.Done():
		return ctx.Err()
	}
	p.checkouts.Inc()
	p.checkoutWait.Observe(time.Since(start))
	return nil
}

// Get checks a connection out of the pool, dialing a new one if no idle
// connection is available and the capacity is not exhausted; otherwise it
// blocks until a connection is returned. Return the connection with Put.
func (p *Pool) Get() (*Conn, error) { return p.GetCtx(context.Background()) }

// GetCtx is Get observing a context while waiting for a free slot: a caller
// canceled in the checkout queue releases its claim instead of dialing.
func (p *Pool) GetCtx(ctx context.Context) (*Conn, error) {
	if err := p.acquireSlot(ctx); err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.slots <- struct{}{}
		return nil, fmt.Errorf("godbc: pool is closed")
	}
	var c *Conn
	if n := len(p.idle); n > 0 {
		c = p.idle[n-1]
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := Dial(p.addr)
	if err != nil {
		p.slots <- struct{}{}
		return nil, err
	}
	p.dialed.Inc()
	return c, nil
}

// Put returns a connection obtained from Get. Broken or closed connections
// are discarded; their capacity slot is freed either way.
func (p *Pool) Put(c *Conn) {
	if c == nil {
		return
	}
	p.mu.Lock()
	if c.broken || c.closed || p.closed {
		p.mu.Unlock()
		c.Close()
		p.discarded.Inc()
		p.slots <- struct{}{}
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
	p.slots <- struct{}{}
}

// Close closes the idle connections and marks the pool closed. Connections
// currently checked out are closed as they are returned.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var first error
	for _, c := range p.idle {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	p.idle = nil
	return first
}

// Exec runs a statement on a pooled connection.
func (p *Pool) Exec(query string, params *sqldb.Params) (Result, error) {
	c, err := p.Get()
	if err != nil {
		return Result{}, err
	}
	defer p.Put(c)
	return c.Exec(query, params)
}

// ExecQuery runs a SELECT on a pooled connection.
func (p *Pool) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return p.ExecQueryContext(context.Background(), query, params)
}

// ExecQueryContext is ExecQuery observing ctx at checkout and across the
// round trip.
func (p *Pool) ExecQueryContext(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	c, err := p.GetCtx(ctx)
	if err != nil {
		return nil, err
	}
	defer p.Put(c)
	return c.ExecQueryContext(ctx, query, params)
}

// ConcurrentQuery marks the pool as safe for concurrent querying.
func (p *Pool) ConcurrentQuery() bool { return true }

var _ Executor = (*Pool)(nil)
var _ sqlgen.ContextQueryExecutor = (*Pool)(nil)
