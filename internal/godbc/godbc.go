// Package godbc is a JDBC-like database driver for the sqldb wire protocol:
// connections, statement execution with positional and named parameters, and
// cursor-based result iteration with a configurable fetch size.
//
// The paper's COSY prototype accessed its databases through JDBC and
// measured about 1 ms per fetched record, a factor of 2–4 over C-based
// access; the row-at-a-time default fetch size reproduces that behaviour
// against a wire server, while Embedded provides the in-process path that
// stands in for "C-based" access.
//
// Every operation has one body, and it takes a context first. A method with a
// plain name is its ...Context form called with context.Background() — never
// a second implementation — and an operation that has no ...Context form runs
// its single body under context.Background(). A context that can never be
// canceled costs nothing extra: no watchdog is armed and no clock is read.
//
// The resident analysis service runs many concurrent analyses with
// per-request deadlines, so every blocking point of the driver observes the
// context:
//
//   - pool checkout (Pool.GetCtx) — a request canceled while waiting for a
//     connection leaves the queue instead of executing doomed work;
//   - the wire round trip — the protocol is one request at a time per
//     connection and has no cancel message, so cancellation snaps the
//     connection's deadline: the round trip fails, the connection is marked
//     broken, and the pool discards it. That frees the caller and sacrifices
//     the connection; it does not stop the server, which serves a
//     connection's requests inline in its read loop and cannot notice the
//     close until the request it is serving returns;
//   - the profiled vendor delays — wire.DelayCtx returns early on cancel.
package godbc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/asl/sqlgen"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// DefaultFetchSize is the number of rows fetched per cursor round trip,
// mirroring JDBC's row-at-a-time default.
const DefaultFetchSize = 1

// Conn is a database connection. A Conn is not safe for concurrent use, like
// a JDBC Connection; use a Pool to serve concurrent callers.
type Conn struct {
	nc        net.Conn
	codec     *wire.Codec
	fetchSize int
	closed    bool
	// broken is set when a transport-level failure leaves the connection in
	// an undefined protocol state; a Pool discards such connections.
	broken bool
	// stmts caches prepared statements by SQL text so pooled prepared
	// statements plan at most once per connection (see prepared.go).
	stmts map[string]*Stmt
}

// Dial connects to a wire server.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, &transportError{fmt.Errorf("godbc: dial %s: %w", addr, err)}
	}
	return &Conn{nc: nc, codec: wire.NewCodec(nc), fetchSize: DefaultFetchSize}, nil
}

// transportError marks a failure of the transport itself — a refused dial, a
// dropped connection mid-round-trip — as opposed to the server answering with
// a statement error. The sharding layer promotes transport errors to
// ShardError so analyses can tell a dead shard from a bad query; the message
// is unchanged, so non-sharded callers see exactly the errors they always
// did.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// isTransportError reports whether err originated in the transport layer.
func isTransportError(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// SetFetchSize sets the number of rows per fetch round trip (JDBC's
// setFetchSize). Values below 1 are treated as 1.
func (c *Conn) SetFetchSize(n int) {
	if n < 1 {
		n = 1
	}
	c.fetchSize = n
}

// FetchSize returns the current fetch size.
func (c *Conn) FetchSize() int { return c.fetchSize }

// Close terminates the connection.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

// Ping performs a protocol round trip.
func (c *Conn) Ping() error { return ping(c) }

// roundTrip performs one exchange observing ctx. The one-at-a-time protocol
// has no cancel message, so cancellation mid round trip snaps the socket's
// deadline: the exchange fails and the connection, its protocol state now
// undefined, is sacrificed (broken, for a pool to discard).
func (c *Conn) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ctx.Done() == nil {
		return c.exchange(req)
	}
	stop := context.AfterFunc(ctx, func() {
		// Snap the in-flight read/write; exchange fails and marks broken.
		c.nc.SetDeadline(time.Unix(1, 0))
	})
	resp, err := c.exchange(req)
	if !stop() {
		// The watchdog ran. If the exchange still completed, clear the
		// poisoned deadline so the error (if any) is the only casualty.
		c.nc.SetDeadline(time.Time{})
		if err != nil {
			return nil, fmt.Errorf("godbc: round trip canceled: %w", ctx.Err())
		}
	}
	return resp, err
}

func (c *Conn) exchange(req *wire.Request) (*wire.Response, error) {
	if c.closed {
		return nil, fmt.Errorf("godbc: connection closed")
	}
	if err := c.codec.WriteRequest(req); err != nil {
		c.broken = true
		return nil, &transportError{fmt.Errorf("godbc: send: %w", err)}
	}
	resp, err := c.codec.ReadResponse()
	if err != nil {
		c.broken = true
		return nil, &transportError{fmt.Errorf("godbc: receive: %w", err)}
	}
	return resp, nil
}

// Result reports the outcome of a non-query statement.
type Result struct {
	Affected int
}

// Exec runs a statement and returns the affected-row count. SELECTs may also
// be run through Exec; their rows are returned inline by ExecQuery instead.
func (c *Conn) Exec(query string, params *sqldb.Params) (Result, error) {
	return c.ExecContext(context.Background(), query, params)
}

// ExecContext is Exec observing a context.
func (c *Conn) ExecContext(ctx context.Context, query string, params *sqldb.Params) (Result, error) {
	return execAffected(ctx, c, textExec(query, params))
}

// ExecQuery runs a SELECT and returns the complete result set in a single
// round trip (the bulk path).
func (c *Conn) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return c.ExecQueryContext(context.Background(), query, params)
}

// ExecQueryContext is ExecQuery observing a context.
func (c *Conn) ExecQueryContext(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return execSet(ctx, c, textExec(query, params))
}

// Rows is a cursor over a query result, fetched in batches of the
// connection's fetch size. Always Close a Rows that was not fully drained.
type Rows struct {
	conn     *Conn
	cursorID int64
	columns  []string
	buf      []sqldb.Row
	pos      int
	done     bool
	err      error
	cur      sqldb.Row
}

// Query opens a cursor for a SELECT.
func (c *Conn) Query(query string, params *sqldb.Params) (*Rows, error) {
	resp, err := call(context.Background(), c, withParams(&wire.Request{Kind: wire.ReqQueryCursor, SQL: query}, params))
	if err != nil {
		return nil, err
	}
	return &Rows{conn: c, cursorID: resp.CursorID, columns: resp.Columns}, nil
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.columns }

// Next advances to the next row, fetching a new batch from the server when
// the local buffer is exhausted. It returns false at end of data or on
// error; check Err afterwards.
func (r *Rows) Next() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.buf) {
		if r.done {
			return false
		}
		resp, err := call(context.Background(), r.conn, &wire.Request{
			Kind:     wire.ReqFetch,
			CursorID: r.cursorID,
			FetchN:   r.conn.fetchSize,
		})
		if err != nil {
			r.err = err
			return false
		}
		r.buf = appendRows(r.buf[:0], resp.Rows)
		r.pos = 0
		r.done = resp.Done
		if len(r.buf) == 0 {
			return false
		}
	}
	r.cur = r.buf[r.pos]
	r.pos++
	return true
}

// Row returns the current row.
func (r *Rows) Row() sqldb.Row { return r.cur }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the server-side cursor.
func (r *Rows) Close() error {
	if r.done {
		return nil
	}
	r.done = true
	_, err := call(context.Background(), r.conn, &wire.Request{Kind: wire.ReqCloseCursor, CursorID: r.cursorID})
	return err
}

// Executor is the interface shared by networked connections and the
// embedded engine, so analysis code is deployment-agnostic.
type Executor interface {
	Exec(query string, params *sqldb.Params) (Result, error)
	ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error)
}

// Embedded adapts an in-process sqldb.DB to the Executor interface — the
// stand-in for C-based direct access, and, with a Profile, the "MS Access
// through a local driver" configuration of the paper's comparison: the
// vendor's statement, prepare and per-row costs are applied client side
// (round-trip delays do not apply — there is no network). The zero Profile
// charges nothing.
type Embedded struct {
	DB      *sqldb.DB
	Profile wire.Profile
}

// Exec implements Executor. Text execution compiles the statement anew, so
// the profile's price includes compilation on every call (use PrepareQuery to
// pay it once). A result the engine's cache answered skips the vendor delays
// — the modeled driver never compiled or executed anything.
func (e Embedded) Exec(query string, params *sqldb.Params) (Result, error) {
	res, err := e.DB.Exec(query, params)
	if err != nil {
		return Result{}, err
	}
	if !res.Cached {
		wire.Delay(e.Profile.Cost(true, res.Affected, 0))
	}
	return Result{Affected: res.Affected}, nil
}

// ExecQuery implements Executor.
func (e Embedded) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return e.ExecQueryContext(context.Background(), query, params)
}

// ExecQueryContext checks ctx before executing (the in-process scan itself is
// uninterruptible but fast) and applies the vendor delays through
// wire.DelayCtx, so a canceled request stops paying simulated latency
// immediately.
func (e Embedded) ExecQueryContext(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := e.DB.Exec(query, params)
	if err != nil {
		return nil, err
	}
	if res.Set == nil {
		return nil, fmt.Errorf("godbc: statement produced no result set")
	}
	if !res.Cached {
		if err := wire.DelayCtx(ctx, e.Profile.Cost(true, 0, len(res.Set.Rows))); err != nil {
			return nil, err
		}
	}
	return res.Set, nil
}

// ConcurrentQuery reports whether workers may share the executor. The engine
// is safe for concurrent querying (sqldb serializes writers against readers
// internally), so an uncharged Embedded is; one that charges vendor costs
// emulates a single serial local driver, and letting workers overlap (and
// concurrently spin) its simulated delays would divide the very cost the
// profile exists to model.
func (e Embedded) ConcurrentQuery() bool {
	return e.Profile.Cost(true, 1, 1) == 0
}

// CursorQuery adapts a connection so that every ExecQuery is served through
// a row-at-a-time cursor — the JDBC default the paper's client-side
// evaluation measurements are based on. Use it to reproduce the
// "fetch the data components, evaluate in the tool" configuration.
type CursorQuery struct {
	Conn *Conn
}

// ExecQuery implements the query interface by draining a cursor.
func (c CursorQuery) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	rows, err := c.Conn.Query(query, params)
	if err != nil {
		return nil, err
	}
	set := &sqldb.ResultSet{Columns: rows.Columns()}
	for rows.Next() {
		set.Rows = append(set.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return set, rows.Close()
}

var _ Executor = (*Conn)(nil)
var _ Executor = Embedded{}
var _ sqlgen.ContextQueryExecutor = (*Conn)(nil)
var _ sqlgen.ContextQueryExecutor = Embedded{}
