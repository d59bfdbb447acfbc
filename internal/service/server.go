package service

import (
	"context"
	"errors"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/netsrv"
)

// Server exposes a Service over TCP — the network face of cosyd. Every
// connection may carry many concurrent requests; each ReqAnalyze runs in its
// own goroutine under a cancelable context that is the root of the request's
// whole cancellation chain (admission queue, analyzer chunks, driver round
// trips, engine bindings). The context is canceled by a ReqCancel naming the
// request, by the request's own DeadlineMillis, or by the client
// disconnecting — whichever comes first.
//
// The listener, the connection set and the stop/drain life cycle are the
// embedded skeleton's, and three of its promises carry cosyd's operations.
// Shutdown returning is the drain barrier: a connection's handler returns
// only after its request goroutines have — admission release and metrics
// recording included — so a snapshot taken afterwards reconciles exactly
// (nothing in flight, every admitted analysis classified); cmd/cosyd prints
// its final stats only after it. Draining turns true the moment shutdown
// begins and flips /healthz to 503, so load balancers stop sending work while
// in-flight analyses finish. ConnCount is one of the two drift signals (with
// the goroutine count) the CI soak gate watches across a drained load run.
type Server struct {
	*netsrv.Server
	svc *Service
}

// NewServer wraps a Service for network serving. If logger is nil, logging is
// disabled.
func NewServer(svc *Service, logger *log.Logger) *Server {
	s := &Server{svc: svc}
	s.Server = netsrv.New(logger, s.handle)
	return s
}

// connState is the per-connection request bookkeeping: in-flight cancel
// functions for ReqCancel, serialized writes on the codec's one writing
// direction (also the slow-reader backpressure path — a client that stops
// reading blocks its own connection's request goroutines, nobody else's), and
// a WaitGroup so teardown drains the request goroutines.
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
		s.Logf("service: write: %v", err)
		return false
	}
	return true
}

func (s *Server) handle(conn net.Conn) {
	st := &connState{inflight: make(map[int64]context.CancelFunc)}
	connCtx, cancelConn := context.WithCancel(context.Background())
	defer func() {
		// Client gone: cancel every in-flight analysis of this connection and
		// wait for the request goroutines to observe it. Abandoned work must
		// release its admission slot before the connection is forgotten.
		cancelConn()
		st.wg.Wait()
	}()
	codec := NewCodec(conn)
	for {
		req, err := codec.ReadRequest()
		if err != nil {
			if !netsrv.Hangup(err) {
				s.Logf("service: read: %v", err)
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
