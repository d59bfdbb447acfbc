package godbc

// This file implements prepared statements: the JDBC PreparedStatement
// analogue for the wire protocol and the embedded engine. A statement is
// parsed and planned once — on the server for networked connections,
// in-process for the embedded configurations — and then executed repeatedly
// with fresh parameters, paying only the execution cost per call. Every
// handle has one execution body, ExecQueryBatchContext (batch.go).

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/asl/sqlgen"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// Stmt is a prepared statement bound to one connection, like a JDBC
// PreparedStatement. It is not safe for concurrent use (its connection is
// not); use Pool.PrepareQuery for concurrent callers.
type Stmt struct {
	conn   *Conn
	id     int64
	closed bool
}

// Prepare parses and plans a statement on the server, returning a reusable
// handle.
func (c *Conn) Prepare(query string) (*Stmt, error) {
	id, err := prepare(c, query)
	if err != nil {
		return nil, err
	}
	return &Stmt{conn: c, id: id}, nil
}

// errStmtClosed is returned by executions on a closed handle.
var errStmtClosed = fmt.Errorf("godbc: prepared statement is closed")

// ExecQuery runs the prepared SELECT once and returns the complete result
// set in a single round trip.
func (st *Stmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	return execOne(context.Background(), st, params)
}

// ExecQueryContext is ExecQuery observing a context.
func (st *Stmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return execOne(ctx, st, params)
}

// Close releases the server-side handle. Closing is idempotent.
func (st *Stmt) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	if st.conn.closed || st.conn.broken {
		return nil // the server released the handle with the connection
	}
	_, err := call(context.Background(), st.conn, &wire.Request{Kind: wire.ReqClosePrepared, StmtID: st.id})
	return err
}

// PrepareQuery implements sqlgen.QueryPreparer.
func (c *Conn) PrepareQuery(query string) (sqlgen.PreparedQuery, error) {
	return c.Prepare(query)
}

// prepared returns the connection's cached handle for the query, preparing
// it on first use. This is how pooled prepared statements attach to
// whichever connection serves the call: each underlying connection prepares
// a given statement at most once for its lifetime.
func (c *Conn) prepared(query string) (*Stmt, error) {
	if st, ok := c.stmts[query]; ok {
		return st, nil
	}
	st, err := c.Prepare(query)
	if err != nil {
		return nil, err
	}
	if c.stmts == nil {
		c.stmts = make(map[string]*Stmt)
	}
	c.stmts[query] = st
	return st, nil
}

// PooledStmt is a prepared statement over a connection pool: safe for
// concurrent use, it lazily prepares the query once per underlying
// connection and executes on whichever connection the pool hands out.
type PooledStmt struct {
	pool   *Pool
	sql    string
	closed atomic.Bool
}

// PrepareQuery implements sqlgen.QueryPreparer. Preparation is lazy: the
// query is planned on each underlying connection the first time that
// connection serves an execution.
func (p *Pool) PrepareQuery(query string) (sqlgen.PreparedQuery, error) {
	return &PooledStmt{pool: p, sql: query}, nil
}

// ExecQuery checks a connection out of the pool, ensures the statement is
// prepared on it, and executes once.
func (ps *PooledStmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	return execOne(context.Background(), ps, params)
}

// ExecQueryContext is ExecQuery observing ctx at checkout and across the
// round trip.
func (ps *PooledStmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return execOne(ctx, ps, params)
}

// checkout takes a connection from the pool and returns it with the
// statement's handle on it, preparing on first use. On error nothing is
// checked out: a statement the server refuses to prepare (eager table
// validation, say) fails every execution with the server's error.
func (ps *PooledStmt) checkout(ctx context.Context) (*Conn, *Stmt, error) {
	if ps.closed.Load() {
		return nil, nil, errStmtClosed
	}
	c, err := ps.pool.GetCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	st, err := c.prepared(ps.sql)
	if err != nil {
		ps.pool.Put(c)
		return nil, nil, err
	}
	return c, st, nil
}

// Close marks the pooled statement closed. The per-connection handles stay
// cached on their connections (other pooled statements for the same SQL
// share them) and are released by the server when the connections close.
func (ps *PooledStmt) Close() error {
	ps.closed.Store(true)
	return nil
}

// embeddedStmt adapts a sqldb prepared statement to sqlgen.PreparedQuery. The
// vendor's compile cost was paid at prepare time, so executions are charged
// the profile's price without it.
type embeddedStmt struct {
	ps      *sqldb.PreparedStmt
	profile wire.Profile
}

// PrepareQuery implements sqlgen.QueryPreparer for the in-process engine,
// charging the profile's one-time statement-compilation delay up front; the
// returned handle is safe for concurrent use (sqldb plans are immutable).
func (e Embedded) PrepareQuery(query string) (sqlgen.PreparedQuery, error) {
	ps, err := e.DB.Prepare(query)
	if err != nil {
		return nil, err
	}
	wire.Delay(e.Profile.Cost(true, 0, 0))
	return embeddedStmt{ps: ps, profile: e.Profile}, nil
}

func (s embeddedStmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	return execOne(context.Background(), s, params)
}

func (s embeddedStmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return execOne(ctx, s, params)
}

func (s embeddedStmt) Close() error { return s.ps.Close() }

var _ sqlgen.QueryPreparer = (*Conn)(nil)
var _ sqlgen.QueryPreparer = (*Pool)(nil)
var _ sqlgen.QueryPreparer = Embedded{}
var _ sqlgen.ContextPreparedQuery = (*Stmt)(nil)
var _ sqlgen.ContextPreparedQuery = (*PooledStmt)(nil)
var _ sqlgen.ContextPreparedQuery = embeddedStmt{}
