package wire_test

// Fuzzing the wire frame decoder and the server's dispatch: whatever bytes
// arrive on the socket, the codec must fail cleanly — an error, never a panic
// — and whatever request they decode to, the server answers it exactly once.
// The in-code seeds are well-formed frames of the request kinds the server
// dispatches plus one kind it does not, so mutations explore the gob
// encoding's neighborhood rather than pure noise; the checked-in corpus under
// testdata/ is the fuzzer's own finds, nearly all of them inputs that must
// (and do) end in a decode error.

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/sqldb/wire"
)

// encodeRequests gob-encodes a request stream to raw bytes.
func encodeRequests(t testing.TB, reqs ...*wire.Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	codec := wire.NewCodec(struct {
		io.Reader
		io.Writer
	}{nil, &buf})
	for _, r := range reqs {
		if err := codec.WriteRequest(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func FuzzReadRequest(f *testing.F) {
	seeds := [][]byte{
		encodeRequests(f, &wire.Request{Kind: wire.ReqPing}),
		encodeRequests(f, &wire.Request{Kind: wire.ReqExec, SQL: "CREATE TABLE t (id INTEGER PRIMARY KEY)"}),
		encodeRequests(f, &wire.Request{
			Kind: wire.ReqQueryCursor,
			SQL:  "SELECT * FROM t WHERE id = ? AND v = :v",
			Pos:  []wire.WireValue{{Kind: 1, I: 42}},
			Named: map[string]wire.WireValue{
				"v": {Kind: 3, S: "hello"},
			},
			FetchN: 8,
		}),
		encodeRequests(f, &wire.Request{
			Kind:   wire.ReqExecBatch,
			StmtID: 3,
			Batch: []wire.BatchBinding{
				{Pos: []wire.WireValue{{Kind: 2, F: 1.5}}},
				{Pos: []wire.WireValue{{Kind: 0}}},
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
			&wire.Request{Kind: wire.ReqClosePrepared, StmtID: 1},
			&wire.Request{Kind: wire.ReqCacheStats},
		),
		[]byte{},
		[]byte{0xff, 0xfe, 0x00, 0x01},
	}
	// Torn variants of the first real frame: every prefix of a valid
	// encoding is a frame the server may see when a client dies mid-write.
	whole := encodeRequests(f, &wire.Request{Kind: wire.ReqExec, SQL: "SELECT 1"})
	for i := 0; i < len(whole); i += 3 {
		seeds = append(seeds, whole[:i])
	}
	// And a bare frame of every kind the server dispatches.
	for kind := wire.ReqExec; kind <= wire.ReqServerStats; kind++ {
		seeds = append(seeds, encodeRequests(f, &wire.Request{Kind: kind}))
	}
	for _, s := range seeds {
		f.Add(s)
	}

	// The dispatch half runs against one live server. Only requests that
	// carry no SQL are sent (the engine has fuzzers of its own), and those
	// change nothing outside their own connection, so sharing the server
	// keeps every input's outcome independent of the inputs before it.
	_, srv := startServer(f, wire.ProfileFast)

	f.Fuzz(func(t *testing.T, data []byte) {
		var live *wire.Codec // dialed on the first request to dispatch
		codec := wire.NewCodec(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(data), io.Discard})
		// Decode the stream as the server's read loop would: frame by frame
		// until the first error. Must never panic; decoded frames must
		// re-encode cleanly (nothing unrepresentable sneaks through).
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
			if err := wire.NewCodec(struct {
				io.Reader
				io.Writer
			}{nil, io.Discard}).WriteRequest(req); err != nil {
				t.Fatalf("decoded request does not re-encode: %v", err)
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
			known := req.Kind >= wire.ReqExec && req.Kind <= wire.ReqServerStats
			if !known && !strings.Contains(resp.Err, "unknown request kind") {
				t.Fatalf("kind %d: reply %+v, want the unknown-request-kind error", req.Kind, resp)
			}
		}
	})
}
