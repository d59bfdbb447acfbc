package service

import "net"

// ServeConn runs the server's connection handler on conn and returns when
// the connection is finished — the entry point the listener's accept loop
// uses, opened to tests that need a transport they control (a net.Pipe end,
// whose writes block the moment the peer stops reading).
func (s *Server) ServeConn(conn net.Conn) { s.handle(conn) }
