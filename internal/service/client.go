package service

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a multiplexed cosyd client: one socket shared by any number of
// concurrent Analyze calls, demultiplexed by request ID. It is safe for
// concurrent use. A canceled call sends a best-effort ReqCancel so the
// server stops the abandoned analysis; the connection survives.
type Client struct {
	nc    net.Conn
	codec *Codec

	writeMu sync.Mutex

	mu      sync.Mutex
	nextID  int64
	pending map[int64]chan *Response
	err     error
	closed  bool
}

// Dial connects to a cosyd server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("service: dial %s: %w", addr, err)
	}
	c := &Client{nc: nc, codec: NewCodec(nc), pending: make(map[int64]chan *Response)}
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	for {
		resp, err := c.codec.ReadResponse()
		if err != nil {
			c.fail(fmt.Errorf("service: receive: %w", err))
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[int64]chan *Response)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// Close terminates the connection; in-flight calls fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.nc.Close()
	c.fail(fmt.Errorf("service: connection closed"))
	return err
}

func (c *Client) register() (int64, chan *Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	if c.closed {
		return 0, nil, fmt.Errorf("service: connection closed")
	}
	c.nextID++
	id := c.nextID
	ch := make(chan *Response, 1)
	c.pending[id] = ch
	return id, ch, nil
}

// abandon stops waiting for a request and tells the server to cancel it. The
// cancel's own ack uses a fresh unregistered ID, so the demultiplexer drops
// it silently.
func (c *Client) abandon(id int64) {
	c.mu.Lock()
	if _, ok := c.pending[id]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.pending, id)
	c.nextID++
	cancelID := c.nextID
	c.mu.Unlock()
	c.writeMu.Lock()
	c.codec.WriteRequest(&Request{Kind: ReqCancel, ID: cancelID, CancelID: id})
	c.writeMu.Unlock()
}

func (c *Client) roundTrip(ctx context.Context, req *Request) (*Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	req.ID = id
	c.writeMu.Lock()
	werr := c.codec.WriteRequest(req)
	c.writeMu.Unlock()
	if werr != nil {
		werr = fmt.Errorf("service: send: %w", werr)
		c.fail(werr)
		return nil, werr
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return nil, err
		}
		return resp, nil
	case <-ctx.Done():
		c.abandon(id)
		return nil, ctx.Err()
	}
}

// Ping performs a protocol round trip.
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.roundTrip(ctx, &Request{Kind: ReqPing})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return responseErr(resp.Err)
	}
	return nil
}

// Stats fetches the server's admission counters.
func (c *Client) Stats(ctx context.Context) (AdmissionStats, error) {
	resp, err := c.roundTrip(ctx, &Request{Kind: ReqStats})
	if err != nil {
		return AdmissionStats{}, err
	}
	if resp.Err != "" {
		return AdmissionStats{}, responseErr(resp.Err)
	}
	if resp.Stats == nil {
		return AdmissionStats{}, fmt.Errorf("service: stats response without stats")
	}
	return *resp.Stats, nil
}

// Analyze requests one analysis and returns the rendered report. The
// context's deadline (if any) is shipped as the request's DeadlineMillis, so
// the server sheds the work by itself even if the client's cancel message
// never arrives.
func (c *Client) Analyze(ctx context.Context, tenant string, nope int) (string, error) {
	req := &Request{Kind: ReqAnalyze, Tenant: tenant, NoPe: nope}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.DeadlineMillis = ms
	}
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		return "", err
	}
	if resp.Err != "" {
		return "", responseErr(resp.Err)
	}
	return resp.Report, nil
}
