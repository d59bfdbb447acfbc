package service

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"time"
)

// Server exposes a Service over TCP — the network face of cosyd. Every
// connection may carry many concurrent requests; each ReqAnalyze runs in its
// own goroutine under a cancelable context that is the root of the request's
// whole cancellation chain (admission queue, analyzer chunks, driver round
// trips, engine bindings). The context is canceled by a ReqCancel naming the
// request, by the request's own DeadlineMillis, or by the client
// disconnecting — whichever comes first.
type Server struct {
	svc    *Service
	lis    net.Listener
	logger *log.Logger

	mu sync.Mutex
	// draining is set the moment a graceful Shutdown (or Close) begins and
	// never cleared: /healthz flips to 503 so load balancers stop sending
	// work while in-flight analyses finish.
	draining bool
	closed   bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
}

// NewServer wraps a Service for network serving. If logger is nil, logging is
// disabled.
func NewServer(svc *Service, logger *log.Logger) *Server {
	return &Server{svc: svc, logger: logger, conns: make(map[net.Conn]struct{})}
}

// Listen binds the server to addr ("127.0.0.1:0" picks a free port) and
// starts accepting connections in the background.
func (s *Server) Listen(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound address; valid after Listen.
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close stops the listener and all connections and waits for the handler and
// request goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.draining = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.lis != nil && !wasClosed {
		err = s.lis.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown closes the listener, then waits up to timeout for connected
// clients to finish their in-flight requests and disconnect on their own;
// lingering connections are then closed forcibly.
//
// Shutdown returning is the drain barrier: every request goroutine has
// finished — including its admission release and metrics recording — so a
// snapshot taken afterwards reconciles exactly (nothing in flight, every
// admitted analysis classified). cmd/cosyd prints its final stats only after
// this barrier.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	s.draining = true
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var lerr error
	if s.lis != nil {
		lerr = s.lis.Close()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return lerr
	case <-time.After(timeout):
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-done
	return lerr
}

// Draining reports whether shutdown has begun. It never reverts to false.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ConnCount is the number of currently connected clients — one of the two
// drift signals (with the goroutine count) the CI soak gate watches across a
// drained load run.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// connState is the per-connection request bookkeeping: in-flight cancel
// functions for ReqCancel, serialized writes on the shared gob encoder (also
// the slow-reader backpressure path — a client that stops reading blocks its
// own connection's request goroutines, nobody else's), and a WaitGroup so
// teardown drains the request goroutines.
type connState struct {
	writeMu sync.Mutex

	inflMu   sync.Mutex
	inflight map[int64]context.CancelFunc

	wg sync.WaitGroup
}

func (st *connState) cancel(id int64) {
	st.inflMu.Lock()
	cancel := st.inflight[id]
	st.inflMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (st *connState) register(id int64, cancel context.CancelFunc) {
	st.inflMu.Lock()
	st.inflight[id] = cancel
	st.inflMu.Unlock()
}

func (st *connState) unregister(id int64, cancel context.CancelFunc) {
	st.inflMu.Lock()
	delete(st.inflight, id)
	st.inflMu.Unlock()
	cancel()
}

func (st *connState) write(s *Server, codec *Codec, resp *Response) bool {
	st.writeMu.Lock()
	err := codec.WriteResponse(resp)
	st.writeMu.Unlock()
	if err != nil {
		s.logf("service: write: %v", err)
		return false
	}
	return true
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	st := &connState{inflight: make(map[int64]context.CancelFunc)}
	connCtx, cancelConn := context.WithCancel(context.Background())
	defer func() {
		// Client gone: cancel every in-flight analysis of this connection and
		// wait for the request goroutines to observe it. Abandoned work must
		// release its admission slot before the connection is forgotten.
		cancelConn()
		st.wg.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	codec := NewCodec(conn)
	for {
		req, err := codec.ReadRequest()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("service: read: %v", err)
			}
			return
		}
		if req.Kind == ReqCancel {
			st.cancel(req.CancelID)
			if !st.write(s, codec, &Response{ID: req.ID}) {
				return
			}
			continue
		}
		reqCtx, cancel := context.WithCancel(connCtx)
		if req.Kind == ReqAnalyze && req.DeadlineMillis > 0 {
			reqCtx, cancel = context.WithTimeout(connCtx, time.Duration(req.DeadlineMillis)*time.Millisecond)
		}
		st.register(req.ID, cancel)
		st.wg.Add(1)
		go func(req *Request) {
			defer st.wg.Done()
			resp := s.serve(reqCtx, req)
			resp.ID = req.ID
			st.unregister(req.ID, cancel)
			st.write(s, codec, resp)
		}(req)
	}
}

func (s *Server) serve(ctx context.Context, req *Request) *Response {
	switch req.Kind {
	case ReqPing:
		return &Response{}
	case ReqStats:
		stats := s.svc.Admission().Stats()
		return &Response{Stats: &stats}
	case ReqAnalyze:
		rep, err := s.svc.Analyze(ctx, req.Tenant, req.NoPe)
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return &Response{Err: ErrCanceled.Error()}
		case err != nil:
			return &Response{Err: err.Error()}
		}
		return &Response{Report: rep.Render()}
	}
	return &Response{Err: "service: unknown request kind"}
}
