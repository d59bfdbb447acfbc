package wire

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/netsrv"
	"repro/internal/sqldb"
)

// Server serves a sqldb.DB over TCP. The protocol is one request at a time per
// connection, answered in order; concurrency is the client's connection pool,
// one handler goroutine per pooled connection. Listen, Addr, Close, Shutdown
// and the rest of the life cycle are the shared skeleton's.
type Server struct {
	*netsrv.Server
	db      *sqldb.DB
	profile Profile

	nextCursor int64
	nextStmt   int64

	// requests counts protocol requests served; vendorNanos accumulates the
	// simulated vendor delay charged by sleep. Both feed ReqServerStats.
	requests    atomic.Int64
	vendorNanos atomic.Int64

	// sem, when non-nil, bounds how many statements the server executes
	// simultaneously (see SetMaxConcurrent).
	sem chan struct{}
}

// NewServer returns a server for db with the given vendor profile. If logger
// is nil, logging is disabled.
func NewServer(db *sqldb.DB, profile Profile, logger *log.Logger) (*Server, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	s := &Server{db: db, profile: profile}
	s.Server = netsrv.New(logger, s.handle)
	return s, nil
}

// cursor is a server-side materialized result with a read offset.
type cursor struct {
	set *sqldb.ResultSet
	off int
}

// connState is the per-connection server state, touched by the connection's
// one handler goroutine only.
type connState struct {
	cursors map[int64]*cursor
	// stmts holds this connection's prepared statements; like JDBC
	// PreparedStatements, handles are scoped to the connection and released
	// when it closes.
	stmts map[int64]*sqldb.PreparedStmt
	// params and bindings are what serveExecBatch hands the engine, kept from
	// batch to batch: bindings[i] is nil or points at params[i], which wraps
	// the request's i-th parameter set. The engine keeps neither past the
	// call.
	params   []sqldb.Params
	bindings []*sqldb.Params
}

// handle serves one connection: read a request, serve it inline, write the
// reply. Nothing reads the socket while a request is being served, so a
// client that snaps the connection to cancel is not noticed until serve
// returns — the request runs to completion and its reply fails to write. It
// is also what lets the codec decode every request into the same memory: a
// request is done with before the next is read.
func (s *Server) handle(conn net.Conn) {
	st := &connState{
		cursors: make(map[int64]*cursor),
		stmts:   make(map[int64]*sqldb.PreparedStmt),
	}
	defer func() {
		for _, ps := range st.stmts {
			ps.Close()
		}
	}()
	codec := NewCodec(conn)
	for {
		req, err := codec.ReadRequest()
		if err != nil {
			if !netsrv.Hangup(err) {
				s.Logf("wire: read: %v", err)
			}
			return
		}
		if err := codec.WriteResponse(s.serve(req, st)); err != nil {
			s.Logf("wire: write: %v", err)
			return
		}
	}
}

// SetMaxConcurrent bounds the number of statements the server executes
// simultaneously; n <= 0 removes the bound (the default). The vendor
// profiles model per-statement cost but not server capacity — as if the
// server scaled to any number of concurrent clients. A real 1999 database
// host did not, and a capacity bound is what makes one saturated server
// observable: requests beyond the bound queue, which is exactly the regime
// the client-side sharding layer exists to relieve. The bound gates
// statement execution only; the round-trip (network) delay is charged
// outside it. Call before Listen.
func (s *Server) SetMaxConcurrent(n int) {
	if n <= 0 {
		s.sem = nil
		return
	}
	s.sem = make(chan struct{}, n)
}

func (s *Server) serve(req *Request, st *connState) *Response {
	s.requests.Add(1)
	s.sleep(s.profile.RoundTrip)
	if s.sem != nil {
		s.sem <- struct{}{}
		defer func() { <-s.sem }()
	}
	switch req.Kind {
	case ReqPing:
		s.sleep(s.profile.PerStatement)
		return &Response{}
	case ReqExec:
		return s.serveExec(req)
	case ReqQueryCursor:
		return s.serveQueryCursor(req, st)
	case ReqFetch:
		return s.serveFetch(req, st)
	case ReqCloseCursor:
		delete(st.cursors, req.CursorID)
		return &Response{}
	case ReqPrepare:
		return s.servePrepare(req, st)
	case ReqExecPrepared:
		return s.serveExecPrepared(req, st)
	case ReqClosePrepared:
		if ps, ok := st.stmts[req.StmtID]; ok {
			delete(st.stmts, req.StmtID)
			ps.Close()
		}
		return &Response{}
	case ReqExecBatch:
		return s.serveExecBatch(req, st)
	case ReqServerStats:
		return &Response{Server: &ServerStats{
			Stats:       s.db.Stats(),
			Requests:    s.requests.Load(),
			VendorNanos: s.vendorNanos.Load(),
		}}
	}
	return &Response{Err: fmt.Sprintf("wire: unknown request kind %d", req.Kind)}
}

// paramsInto wraps a message's decoded parameter slices and map for the
// engine, as they are, in dst; a binding without parameters is nil.
func paramsInto(dst *sqldb.Params, pos []sqldb.Value, named map[string]sqldb.Value) *sqldb.Params {
	if len(pos) == 0 && len(named) == 0 {
		return nil
	}
	*dst = sqldb.Params{Positional: pos, Named: named}
	return dst
}

func (s *Server) serveExec(req *Request) *Response {
	res, err := s.db.Exec(req.SQL, paramsInto(new(sqldb.Params), req.Pos, req.Named))
	// A text-protocol execution compiles the statement anew every time, so
	// it is charged the prepare cost on top of the per-statement overhead.
	return s.execReply(res, err, s.profile.PerPrepare)
}

func (s *Server) servePrepare(req *Request, st *connState) *Response {
	ps, err := s.db.Prepare(req.SQL)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	s.sleep(s.profile.PerPrepare + s.profile.PerStatement)
	id := atomic.AddInt64(&s.nextStmt, 1)
	st.stmts[id] = ps
	return &Response{StmtID: id}
}

func (s *Server) serveExecPrepared(req *Request, st *connState) *Response {
	ps, ok := st.stmts[req.StmtID]
	if !ok {
		return &Response{Err: fmt.Sprintf("wire: no prepared statement %d", req.StmtID)}
	}
	// Executing a prepared handle skips the compile cost.
	res, err := ps.Execute(paramsInto(new(sqldb.Params), req.Pos, req.Named))
	return s.execReply(res, err, 0)
}

// execReply answers one execution of a statement. A result the cache served
// costs the vendor server nothing beyond the round trip (already charged in
// serve): no compiler or executor ran. Any other pays compile, the fixed
// per-statement overhead and the row costs.
func (s *Server) execReply(res *sqldb.Result, err error, compile time.Duration) *Response {
	if err != nil {
		return &Response{Err: err.Error()}
	}
	resp := &Response{Affected: res.Affected, Done: true}
	if res.Set != nil {
		resp.Columns = res.Set.Columns
		resp.Rows = replyRows(res.Set.Rows)
	}
	if res.Cached {
		resp.CacheHits = 1
		return resp
	}
	s.sleep(compile + s.profile.PerStatement + time.Duration(res.Affected)*s.profile.PerRowWrite)
	s.sleep(time.Duration(len(resp.Rows)) * s.profile.PerRowRead)
	return resp
}

// serveExecBatch executes a prepared handle once per binding. The whole batch
// was carried by one request, so the profile's round-trip latency was charged
// once (in serve); what accumulates per binding is only the per-statement and
// per-row work the vendor server would really do — the array-binding
// economics that make batches worthwhile on high-latency links.
func (s *Server) serveExecBatch(req *Request, st *connState) *Response {
	if len(req.Batch) > MaxBatch {
		return &Response{Err: fmt.Sprintf("wire: batch of %d bindings exceeds the limit of %d", len(req.Batch), MaxBatch)}
	}
	ps, ok := st.stmts[req.StmtID]
	if !ok {
		return &Response{Err: fmt.Sprintf("wire: no prepared statement %d", req.StmtID)}
	}
	if n := len(req.Batch); n > len(st.params) {
		st.params, st.bindings = make([]sqldb.Params, n), make([]*sqldb.Params, n)
	}
	bindings := st.bindings[:len(req.Batch)]
	for i, b := range req.Batch {
		bindings[i] = paramsInto(&st.params[i], b.Pos, b.Named)
	}
	results, err := ps.ExecuteBatch(bindings)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	resp := &Response{Items: make([]BatchItem, len(results)), Done: true}
	var delay time.Duration
	for i, r := range results {
		if r.Err != nil {
			resp.Items[i] = BatchItem{Err: r.Err.Error()}
			delay += s.profile.PerStatement
			continue
		}
		item := BatchItem{Affected: r.Res.Affected}
		if r.Res.Cached {
			// A binding the result cache answered costs the vendor server
			// nothing beyond the (already charged, batch-wide) round trip.
			item.Cached = true
			item.Columns = r.Res.Set.Columns
			item.Rows = replyRows(r.Res.Set.Rows)
			resp.Items[i] = item
			resp.CacheHits++
			continue
		}
		delay += s.profile.PerStatement + time.Duration(r.Res.Affected)*s.profile.PerRowWrite
		if r.Res.Set != nil {
			item.Columns = r.Res.Set.Columns
			item.Rows = replyRows(r.Res.Set.Rows)
			delay += time.Duration(len(item.Rows)) * s.profile.PerRowRead
		}
		resp.Items[i] = item
	}
	s.sleep(delay)
	return resp
}

func (s *Server) serveQueryCursor(req *Request, st *connState) *Response {
	res, err := s.db.Exec(req.SQL, paramsInto(new(sqldb.Params), req.Pos, req.Named))
	if err != nil {
		return &Response{Err: err.Error()}
	}
	if res.Set == nil {
		return &Response{Err: "wire: statement produced no result set"}
	}
	if !res.Cached {
		s.sleep(s.profile.PerPrepare + s.profile.PerStatement)
	}
	id := atomic.AddInt64(&s.nextCursor, 1)
	st.cursors[id] = &cursor{set: res.Set}
	resp := &Response{CursorID: id, Columns: res.Set.Columns}
	if res.Cached {
		resp.CacheHits = 1
	}
	return resp
}

func (s *Server) serveFetch(req *Request, st *connState) *Response {
	cur, ok := st.cursors[req.CursorID]
	if !ok {
		return &Response{Err: fmt.Sprintf("wire: no cursor %d", req.CursorID)}
	}
	n := req.FetchN
	if n <= 0 {
		n = 1
	}
	end := cur.off + n
	if end > len(cur.set.Rows) {
		end = len(cur.set.Rows)
	}
	rows := cur.set.Rows[cur.off:end]
	cur.off = end
	done := cur.off >= len(cur.set.Rows)
	if done {
		delete(st.cursors, req.CursorID)
	}
	s.sleep(time.Duration(len(rows)) * s.profile.PerRowRead)
	return &Response{Rows: replyRows(rows), Done: done}
}

// replyRows points a reply at a result's rows. Nothing is copied but the row
// headers: result rows are read-only, and the codec only reads them.
func replyRows(rows []sqldb.Row) [][]sqldb.Value {
	out := make([][]sqldb.Value, len(rows))
	for i, r := range rows {
		out[i] = r
	}
	return out
}

// sleep injects the profile's simulated processing delay and adds it to the
// vendor cost the server reports. Sub-millisecond delays are spun rather than
// slept: the OS timer granularity (≈1 ms) would otherwise flatten the
// differences between vendor profiles that the insertion benchmarks measure.
func (s *Server) sleep(d time.Duration) {
	if d > 0 {
		s.vendorNanos.Add(int64(d))
		Delay(d)
	}
}

// Delay blocks for d with microsecond precision.
func Delay(d time.Duration) {
	DelayCtx(context.Background(), d)
}

// DelayCtx blocks for d with microsecond precision, returning early with the
// context's error when it is canceled. Long delays (the sleepable remote
// round trips a canceled analysis would otherwise sit out in full) select on
// the context; the sub-2ms spin path checks it once at the end, which bounds
// the overshoot of a cancellation to less than the OS timer granularity.
func DelayCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if d >= 2*time.Millisecond {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return ctx.Err()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
	return ctx.Err()
}
