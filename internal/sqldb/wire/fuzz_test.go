package wire_test

// Fuzzing the wire frame decoders and the server's dispatch: whatever bytes
// arrive on the socket, the codec must fail cleanly — an error, never a panic
// — and whatever request they decode to, the server answers it exactly once.
// FuzzReadRequest is the server's side of that, FuzzReadResponse the client's,
// facing a torn or hostile server. The in-code seeds are well-formed frames of
// every message shape, every torn prefix of them, and frames that lie about a
// length, so mutations explore the encoding's neighborhood rather than pure
// noise; the checked-in corpus under testdata/ is the fuzzer's own finds.

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/netsrv"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// encodeRequests encodes a request stream to raw bytes.
func encodeRequests(t testing.TB, reqs ...*wire.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	codec := wire.NewCodec(&buf)
	for _, r := range reqs {
		if err := codec.WriteRequest(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// encodeResponses encodes a response stream to raw bytes.
func encodeResponses(t testing.TB, resps ...*wire.Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	codec := wire.NewCodec(&buf)
	for _, r := range resps {
		if err := codec.WriteResponse(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// withTornAndHostile adds to a set of well-formed streams every prefix of
// their concatenation — what a peer sees when the other side dies mid-write —
// and frames whose lengths lie.
func withTornAndHostile(seeds [][]byte) [][]byte {
	stream := bytes.Join(seeds, nil)
	for i := range stream {
		seeds = append(seeds, stream[:i])
	}
	return append(seeds,
		[]byte{0xff, 0xfe, 0x00, 0x01},
		append(netsrv.AppendCount(nil, 1<<30), 1, 2, 3, 4),              // a prefix past the frame limit
		append(netsrv.AppendCount(nil, netsrv.MaxFrame), 1, 2, 3, 4),    // a legal prefix with nothing behind it
		frame(append(netsrv.AppendCount([]byte{0}, 1<<32), 1, 2, 3, 4)), // a count no frame could hold
	)
}

func FuzzReadRequest(f *testing.F) {
	seeds := [][]byte{
		encodeRequests(f, &wire.Request{Kind: wire.ReqPing}),
		encodeRequests(f, &wire.Request{Kind: wire.ReqExec, SQL: "CREATE TABLE t (id INTEGER PRIMARY KEY)"}),
		encodeRequests(f, &wire.Request{
			Kind: wire.ReqQueryCursor,
			SQL:  "SELECT * FROM t WHERE id = ? AND v = :v",
			Pos:  []sqldb.Value{sqldb.NewInt(42)},
			Named: map[string]sqldb.Value{
				"v": sqldb.NewText("hello"),
			},
			FetchN: 8,
		}),
		encodeRequests(f, &wire.Request{
			Kind:   wire.ReqExecBatch,
			StmtID: 3,
			Batch: []wire.BatchBinding{
				{Pos: []sqldb.Value{sqldb.NewFloat(1.5)}},
				{Pos: []sqldb.Value{sqldb.Null}},
				{Named: map[string]sqldb.Value{"on": sqldb.NewBool(true)}},
			},
		}),
		encodeRequests(f, &wire.Request{Kind: wire.ReqFetch, CursorID: 4, FetchN: 2}),
		// A kind past the last one the server dispatches: an ordinary error
		// reply, like any other request the server cannot serve.
		encodeRequests(f, &wire.Request{Kind: wire.ReqServerStats + 1}),
		// A pipelined stream: frames back to back.
		encodeRequests(f,
			&wire.Request{Kind: wire.ReqPrepare, SQL: "SELECT 1"},
			&wire.Request{Kind: wire.ReqExecPrepared, StmtID: 1},
			&wire.Request{Kind: wire.ReqExecBatch, StmtID: 1, Batch: []wire.BatchBinding{{}, {}}},
			&wire.Request{Kind: wire.ReqClosePrepared, StmtID: 1},
			&wire.Request{Kind: wire.ReqServerStats},
		),
		[]byte{},
	}
	// A bare frame of every kind the server dispatches.
	for kind := wire.ReqExec; kind <= wire.ReqServerStats; kind++ {
		seeds = append(seeds, encodeRequests(f, &wire.Request{Kind: kind}))
	}
	seeds = withTornAndHostile(seeds)
	for _, s := range seeds {
		f.Add(s)
	}

	// The dispatch half runs against one live server. Only requests that
	// carry no SQL are sent (the engine has fuzzers of its own), and those
	// change nothing outside their own connection, so sharing the server
	// keeps every input's outcome independent of the inputs before it.
	_, srv := startServer(f, wire.ProfileFast)

	// The re-encoded frame is decoded by a codec that has just decoded this
	// one: a request with parameters at every level, some of which any input
	// is bound to lack, so whatever a decoder's reused memory let through
	// from an earlier request would show as a difference.
	used := encodeRequests(f, &wire.Request{
		Kind:  wire.ReqExecBatch,
		Pos:   []sqldb.Value{sqldb.NewText("left over"), sqldb.NewInt(-1)},
		Named: map[string]sqldb.Value{"left": sqldb.NewText("over"), "v": sqldb.NewFloat(-1)},
		Batch: []wire.BatchBinding{
			{Pos: []sqldb.Value{sqldb.NewText("left over")}, Named: map[string]sqldb.Value{"left": sqldb.NewText("over"), "on": sqldb.NewInt(-1)}},
			{Pos: []sqldb.Value{sqldb.NewText("left over")}, Named: map[string]sqldb.Value{"left": sqldb.NewText("over")}},
			{Pos: []sqldb.Value{sqldb.NewText("left over")}, Named: map[string]sqldb.Value{"left": sqldb.NewText("over")}},
			{Pos: []sqldb.Value{sqldb.NewText("left over")}, Named: map[string]sqldb.Value{"left": sqldb.NewText("over")}},
		},
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		var live *wire.Codec // dialed on the first request to dispatch
		codec := wire.NewCodec(bytes.NewBuffer(data))
		// Decode the stream as the server's read loop would: frame by frame
		// until the first error. Must never panic; a decoded frame must
		// re-encode to a frame that decodes to the same request (nothing
		// unrepresentable sneaks through). A request is valid until the
		// codec reads the next, which is how long it is looked at here.
		for i := 0; i < 64; i++ {
			req, err := codec.ReadRequest()
			if err != nil {
				return
			}
			if len(req.Batch) > 10*wire.MaxBatch {
				// Decoding is tolerant; the server's own request handling
				// enforces semantic limits. Re-encoding a pathological batch
				// is pointless work for the fuzzer.
				return
			}
			second := wire.NewCodec(bytes.NewBuffer(append(bytes.Clone(used), encodeRequests(t, req)...)))
			if _, err := second.ReadRequest(); err != nil {
				t.Fatal(err)
			}
			again, err := second.ReadRequest()
			if err != nil {
				t.Fatalf("decoded request does not re-encode: %v", err)
			}
			if want, got := bitwiseRequest(req), bitwiseRequest(again); !reflect.DeepEqual(want, got) {
				t.Fatalf("request changed on re-encoding:\nfirst  %+v\nsecond %+v", want, got)
			}
			if req.Kind == wire.ReqExec || req.Kind == wire.ReqQueryCursor || req.Kind == wire.ReqPrepare {
				continue
			}
			if live == nil {
				conn, err := net.Dial("tcp", srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				live = wire.NewCodec(conn)
			}
			if err := live.WriteRequest(req); err != nil {
				t.Fatalf("kind %d: send: %v", req.Kind, err)
			}
			resp, err := live.ReadResponse()
			if err != nil {
				t.Fatalf("kind %d: no reply: %v", req.Kind, err)
			}
			known := req.Kind >= wire.ReqExec && req.Kind <= wire.ReqServerStats && req.Kind != wire.ReqExecPrepared
			if !known && !strings.Contains(resp.Err, "unknown request kind") {
				t.Fatalf("kind %d: reply %+v, want the unknown-request-kind error", req.Kind, resp)
			}
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	_, batchReply := warmWireBatch()
	batchReply.Items[5] = wire.BatchItem{Err: "binding 5 failed"}
	seeds := [][]byte{
		encodeResponses(f, &wire.Response{}),
		encodeResponses(f, &wire.Response{Err: "wire: no prepared statement 9"}),
		encodeResponses(f, &wire.Response{Affected: 360, Done: true}),
		encodeResponses(f, &wire.Response{
			Columns: []string{"id", "v", "name", "ok"}, Done: true, CacheHits: 1,
			Rows: [][]sqldb.Value{
				{sqldb.NewInt(1), sqldb.NewFloat(-0.5), sqldb.NewText("a"), sqldb.NewBool(true)},
				{sqldb.NewInt(-2), sqldb.Null, sqldb.NewText(""), sqldb.NewBool(false)},
			},
		}),
		encodeResponses(f, &wire.Response{CursorID: 4, Columns: []string{"id"}}),
		encodeResponses(f, &wire.Response{StmtID: 3}),
		// The one stats reply: a server that has served nothing yet, and a busy
		// one with every section of the snapshot in use.
		encodeResponses(f, &wire.Response{Server: &wire.ServerStats{Requests: 1}}),
		encodeResponses(f, &wire.Response{Server: &wire.ServerStats{
			Stats:    sqldb.Stats{ResultCacheHits: 9, ResultCacheMisses: 3, ResultCacheEntries: 2, VecSelects: 64, VecFallbackReasons: sqldb.FallbackReasons{Other: 1}},
			Requests: 65, VendorNanos: 128e6,
		}}),
		// A cursor's life as the client reads it: frames back to back.
		encodeResponses(f,
			&wire.Response{CursorID: 1, Columns: []string{"id"}},
			&wire.Response{Rows: [][]sqldb.Value{{sqldb.NewInt(1)}}},
			&wire.Response{Rows: [][]sqldb.Value{{sqldb.NewInt(2)}}, Done: true},
		),
		[]byte{},
	}
	seeds = withTornAndHostile(seeds)
	// The batch reply is long; its prefixes would crowd the others out.
	seeds = append(seeds, encodeResponses(f, batchReply))
	// Whole stats replies, also past the torn prefixes: one with every
	// fallback reason and build counter in use, and one from a server whose
	// snapshot carries a counter more than this client reads (the layout that
	// still sent join_shape), which must fail on its trailing byte.
	busy := encodeResponses(f, &wire.Response{Server: &wire.ServerStats{
		Stats: sqldb.Stats{
			VecSelects: 40, VecFallbacks: 10,
			VecFallbackReasons: sqldb.FallbackReasons{Star: 1, OrderExpr: 2, Subquery: 3, Other: 4},
			BuildRows:          1 << 20, SharedBuilds: 6,
		},
		Requests: 50, VendorNanos: 1 << 40,
	}})
	_, n := binary.Uvarint(busy)
	seeds = append(seeds, busy, frame(append(slices.Clip(busy[n:]), 0)))
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		codec := wire.NewCodec(bytes.NewBuffer(data))
		// Decode the stream as a client would: reply by reply until the
		// first error. Must never panic; a decoded reply must re-encode to a
		// frame that decodes to the same reply.
		for i := 0; i < 64; i++ {
			resp, err := codec.ReadResponse()
			if err != nil {
				return
			}
			again, err := wire.NewCodec(bytes.NewBuffer(encodeResponses(t, resp))).ReadResponse()
			if err != nil {
				t.Fatalf("decoded response does not re-encode: %v", err)
			}
			if want, got := bitwiseResponse(resp), bitwiseResponse(again); !reflect.DeepEqual(want, got) {
				t.Fatalf("response changed on re-encoding:\nfirst  %+v\nsecond %+v", want, got)
			}
		}
	})
}
