// Package netsrv is the TCP serving skeleton the repo's two servers share:
// wire.Server (kojakdb, one request at a time per connection) and
// service.Server (cosyd, multiplexed). It owns the listener, the set of live
// connections, and the stop/drain life cycle; a server built on it supplies
// only the function that serves one connection. The package also holds the
// one codec both protocols frame their messages with: length-prefixed binary
// frames, each protocol supplying the marshal of its own messages (codec.go).
//
// The life cycle is tested against both embedding servers at once, in
// internal/sqldb/wire/lifecycle_test.go.
package netsrv

import (
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"time"
)

// Server accepts TCP connections and runs a handler on each.
type Server struct {
	logger *log.Logger
	handle func(net.Conn)
	lis    net.Listener

	mu sync.Mutex
	// closed is set the moment Close or Shutdown begins and never cleared:
	// no connection is admitted after it.
	closed bool
	conns  map[net.Conn]struct{}
	// wg counts the accept loop and every connection handler.
	wg sync.WaitGroup
}

// New returns a server that serves each accepted connection by calling handle
// in a goroutine of its own. handle returns when the connection is finished —
// the peer hung up, or the server closed the socket under it — after winding
// down whatever it started; the skeleton then closes and forgets the
// connection. If logger is nil, logging is disabled.
func New(logger *log.Logger, handle func(net.Conn)) *Server {
	return &Server{logger: logger, handle: handle, conns: make(map[net.Conn]struct{})}
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

// Close stops the listener, closes every connection, and waits for the
// handlers to finish. Calling Close while a Shutdown drain is in progress
// force-closes the lingering connections immediately.
func (s *Server) Close() error {
	err := s.stopAccepting()
	s.closeConns()
	s.wg.Wait()
	return err
}

// Shutdown closes the listener, then waits up to timeout for the connected
// clients to finish their in-flight requests and disconnect on their own.
// Connections still open when the timeout expires are closed forcibly, as
// Close does immediately. Shutdown is what a signal handler should call: a
// draining server never cuts a response off mid-write.
//
// Shutdown returning is the drain barrier: every handler — and so everything
// a handler waits for before it returns — has finished.
func (s *Server) Shutdown(timeout time.Duration) error {
	err := s.stopAccepting()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return err
	case <-time.After(timeout):
	}
	s.closeConns()
	<-done
	return err
}

// stopAccepting marks the server closed and, the first time, closes the
// listener.
func (s *Server) stopAccepting() error {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if wasClosed || s.lis == nil {
		return nil
	}
	return s.lis.Close()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

// Draining reports whether Close or Shutdown has begun. It never reverts to
// false.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// ConnCount is the number of currently connected clients.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Hangup reports whether a handler's read error is just the connection
// ending — the peer closed it, or the server did — rather than a fault worth
// logging.
func Hangup(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)
}

// Logf logs through the server's logger, if it has one.
func (s *Server) Logf(format string, args ...any) {
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
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}
