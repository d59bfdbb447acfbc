package godbc

// The driver's wire vocabulary. Every request kind is built, and every reply
// kind decoded, by exactly one function in this file, over the one way a
// request travels: Conn.roundTrip(ctx, req).
//
// A reply whose Err is set is an ordinary error for the caller, whatever it
// says: the exchange completed, so the connection stays usable. That includes
// a peer refusing a request kind it does not know — there is no probing of
// what a peer can do and no fallback to another request kind.

import (
	"context"
	"fmt"

	"repro/internal/asl/sqlgen"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// call performs one exchange and turns a server-reported failure into an
// error.
func call(ctx context.Context, c *Conn, req *wire.Request) (*wire.Response, error) {
	resp, err := c.roundTrip(ctx, req)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("godbc: %s", resp.Err)
	}
	return resp, nil
}

// decodeRows adopts a reply's rows as a result set: the decoder made them for
// this reply alone, so they are the caller's to keep.
func decodeRows(columns []string, rows [][]sqldb.Value) *sqldb.ResultSet {
	return &sqldb.ResultSet{Columns: columns, Rows: appendRows(make([]sqldb.Row, 0, len(rows)), rows)}
}

func appendRows(dst []sqldb.Row, rows [][]sqldb.Value) []sqldb.Row {
	for _, r := range rows {
		dst = append(dst, r)
	}
	return dst
}

// withParams hands a request the caller's parameters, as they are.
func withParams(req *wire.Request, params *sqldb.Params) *wire.Request {
	if params != nil {
		req.Pos, req.Named = params.Positional, params.Named
	}
	return req
}

// textExec builds a text-protocol execution: the statement is compiled anew
// by the server.
func textExec(query string, params *sqldb.Params) *wire.Request {
	return withParams(&wire.Request{Kind: wire.ReqExec, SQL: query}, params)
}

// preparedExec builds one execution of a server-side prepared handle.
func preparedExec(stmtID int64, params *sqldb.Params) *wire.Request {
	return withParams(&wire.Request{Kind: wire.ReqExecPrepared, StmtID: stmtID}, params)
}

// execAffected sends an execution and decodes its reply as a non-query
// outcome.
func execAffected(ctx context.Context, c *Conn, req *wire.Request) (Result, error) {
	resp, err := call(ctx, c, req)
	if err != nil {
		return Result{}, err
	}
	return Result{Affected: resp.Affected}, nil
}

// execSet sends an execution and decodes its reply as a complete result set.
func execSet(ctx context.Context, c *Conn, req *wire.Request) (*sqldb.ResultSet, error) {
	resp, err := call(ctx, c, req)
	if err != nil {
		return nil, err
	}
	return decodeRows(resp.Columns, resp.Rows), nil
}

// The requests below have no ...Context form on any connection type, so
// their one body runs under context.Background().

// ping performs an empty protocol round trip.
func ping(c *Conn) error {
	_, err := call(context.Background(), c, &wire.Request{Kind: wire.ReqPing})
	return err
}

// prepare plans a statement on the server and returns its handle id.
func prepare(c *Conn, query string) (int64, error) {
	resp, err := call(context.Background(), c, &wire.Request{Kind: wire.ReqPrepare, SQL: query})
	if err != nil {
		return 0, err
	}
	return resp.StmtID, nil
}

// execBatch executes a prepared handle once per binding, wire.MaxBatch
// bindings per request; results are in binding order regardless of the
// split. Per-binding failures are reported inline; a failed request (or a
// ctx canceled between chunks) fails the whole call — a partial batch is
// never reported as success.
func execBatch(ctx context.Context, c *Conn, stmtID int64, bindings []*sqldb.Params) ([]BatchResult, error) {
	out := make([]BatchResult, 0, len(bindings))
	for start := 0; start < len(bindings); start += wire.MaxBatch {
		chunk := bindings[start:min(start+wire.MaxBatch, len(bindings))]
		req := &wire.Request{Kind: wire.ReqExecBatch, StmtID: stmtID, Batch: make([]wire.BatchBinding, len(chunk))}
		for i, p := range chunk {
			if p != nil {
				req.Batch[i] = wire.BatchBinding{Pos: p.Positional, Named: p.Named}
			}
		}
		resp, err := call(ctx, c, req)
		if err != nil {
			return nil, err
		}
		if len(resp.Items) != len(chunk) {
			return nil, fmt.Errorf("godbc: batch returned %d results for %d bindings", len(resp.Items), len(chunk))
		}
		// The result sets of one reply, and their row headers, are cut from
		// one allocation each: fresh for this reply, but not one per binding.
		sets := make([]sqldb.ResultSet, len(resp.Items))
		nrows := 0
		for _, item := range resp.Items {
			nrows += len(item.Rows)
		}
		rows := make([]sqldb.Row, 0, nrows)
		for i, item := range resp.Items {
			if item.Err != "" {
				out = append(out, BatchResult{Err: fmt.Errorf("godbc: %s", item.Err)})
				continue
			}
			mine := len(rows)
			rows = appendRows(rows, item.Rows)
			sets[i] = sqldb.ResultSet{Columns: item.Columns, Rows: rows[mine:len(rows):len(rows)]}
			out = append(out, BatchResult{Affected: item.Affected, Set: &sets[i]})
		}
	}
	return out, nil
}

// queryBatch is execBatch in the shape of sqlgen.BatchPreparedQuery.
func queryBatch(ctx context.Context, c *Conn, stmtID int64, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	results, err := execBatch(ctx, c, stmtID, bindings)
	if err != nil {
		return nil, err
	}
	out := make([]sqlgen.BatchQueryResult, len(results))
	for i, r := range results {
		out[i] = sqlgen.BatchQueryResult{Set: r.Set, Err: r.Err}
	}
	return out, nil
}

// serverStats fetches the engine's and the server's counters. ok reports
// whether the reply carried them.
func serverStats(c *Conn) (stats ServerStats, ok bool, err error) {
	resp, err := call(context.Background(), c, &wire.Request{Kind: wire.ReqServerStats})
	if err != nil || resp.Server == nil {
		return ServerStats{}, false, err
	}
	return *resp.Server, true, nil
}
