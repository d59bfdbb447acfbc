package wire_test

// The server decodes every request of a connection into the same memory
// (requestDecoder, connState's batch scratch). What one request leaves there
// must never show in the next: these tests send a long batch, then shorter
// ones with other names and values, then a text execution down one
// connection, and hold every reply against what a connection that has seen
// nothing answers.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// exchange sends one request and returns the reply, without its cache marks:
// whether the result cache answered depends on who asked first.
func exchange(t *testing.T, codec *wire.Codec, req *wire.Request) *wire.Response {
	t.Helper()
	if err := codec.WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	resp, err := codec.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	resp.CacheHits = 0
	for i := range resp.Items {
		resp.Items[i].Cached = false
	}
	return bitwiseResponse(resp)
}

func TestServerReusesRequestScratch(t *testing.T) {
	// The statement reads two named markers and a positional one, so a name
	// or a value left over from an earlier binding would turn a "missing
	// parameter" error into an answer, or one answer into another.
	const reads = "SELECT $a, $b, ?"
	var batchA []wire.BatchBinding
	for i := range 5 {
		batchA = append(batchA, wire.BatchBinding{
			Pos:   []sqldb.Value{sqldb.NewInt(int64(100 + i)), sqldb.NewText("unread")},
			Named: map[string]sqldb.Value{"a": sqldb.NewInt(int64(i)), "b": sqldb.NewText("b of A"), "extra": sqldb.NewFloat(1.5)},
		})
	}
	// Batch B: a binding without $b and ?, one without any parameter, and a
	// complete one of other kinds.
	batchB := []wire.BatchBinding{
		{Named: map[string]sqldb.Value{"a": sqldb.NewText("a of B")}},
		{},
		{Pos: []sqldb.Value{sqldb.Null}, Named: map[string]sqldb.Value{"b": sqldb.NewInt(9), "a": sqldb.Null}},
	}
	requests := func(stmt int64) []*wire.Request {
		return []*wire.Request{
			{Kind: wire.ReqExecBatch, StmtID: stmt, Batch: batchA},
			{Kind: wire.ReqExecBatch, StmtID: stmt, Batch: batchB},
			{Kind: wire.ReqExecBatch, StmtID: stmt, Batch: []wire.BatchBinding{{Pos: []sqldb.Value{sqldb.NewInt(1)}, Named: map[string]sqldb.Value{"a": sqldb.NewInt(2), "b": sqldb.NewInt(3)}}}},
			{Kind: wire.ReqExecBatch, StmtID: stmt, Batch: []wire.BatchBinding{{Named: map[string]sqldb.Value{"a": sqldb.NewInt(2), "b": sqldb.NewInt(3)}}}}, // no ?
			{Kind: wire.ReqExecBatch, StmtID: stmt, Batch: []wire.BatchBinding{{Named: map[string]sqldb.Value{"b": sqldb.NewInt(3)}}}},                       // no $a, no ?
			{Kind: wire.ReqExec, SQL: "SELECT $c", Named: map[string]sqldb.Value{"c": sqldb.NewText("text protocol")}},
			{Kind: wire.ReqExec, SQL: "SELECT $a"}, // nothing bound
			{Kind: wire.ReqExecBatch, StmtID: stmt, Batch: batchA[:2]},
		}
	}
	prepare := func(codec *wire.Codec) int64 {
		resp := exchange(t, codec, &wire.Request{Kind: wire.ReqPrepare, SQL: reads})
		if resp.Err != "" {
			t.Fatal(resp.Err)
		}
		return resp.StmtID
	}

	for _, cache := range []bool{true, false} {
		name := "cache=on"
		if !cache {
			name = "cache=off"
		}
		t.Run(name, func(t *testing.T) {
			db, srv := startBatchServer(t, wire.ProfileFast)
			if !cache {
				db.SetResultCacheSize(0)
			}
			one := rawClient(t, srv.Addr())
			stmt := prepare(one)
			for i, req := range requests(stmt) {
				got := exchange(t, one, req)
				fresh := rawClient(t, srv.Addr())
				freshReq := requests(prepare(fresh))[i]
				want := exchange(t, fresh, freshReq)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("request %d on the long-lived connection:\n got %+v\nwant %+v", i, got, want)
				}
				switch i {
				case 1:
					for j, item := range got.Items[:2] {
						if item.Err == "" {
							t.Fatalf("binding %d of batch B was answered %v: a parameter of batch A leaked into it", j, item.Rows)
						}
					}
					if got.Items[2].Err != "" {
						t.Fatalf("the complete binding of batch B failed: %s", got.Items[2].Err)
					}
				case 2:
					if got.Err != "" || got.Items[0].Err != "" {
						t.Fatalf("the complete single binding failed: %s%s", got.Err, got.Items[0].Err)
					}
				case 3, 4:
					if got.Items[0].Err == "" {
						t.Fatalf("the single binding of request %d was answered %v: a parameter of an earlier request leaked into it", i, got.Items[0].Rows)
					}
				case 6:
					if got.Err == "" {
						t.Fatalf("request %d was answered %v: a parameter of an earlier request leaked into it", i, got.Rows)
					}
				}
			}
		})
	}
}

// TestRequestDecoderLeavesNothingBehind: the codec-level half. A request
// decoded by a codec that has decoded a larger, different one equals what was
// sent, and a parameter set that was sent empty is nil — the server tells
// "no parameters" by that.
func TestRequestDecoderLeavesNothingBehind(t *testing.T) {
	big := &wire.Request{
		Kind: wire.ReqExecBatch, StmtID: 1,
		Pos:   []sqldb.Value{sqldb.NewInt(1), sqldb.NewInt(2)},
		Named: map[string]sqldb.Value{"x": sqldb.NewInt(1), "y": sqldb.NewInt(2)},
	}
	for i := range 8 {
		big.Batch = append(big.Batch, wire.BatchBinding{
			Pos:   []sqldb.Value{sqldb.NewInt(int64(i)), sqldb.NewText("p")},
			Named: map[string]sqldb.Value{"x": sqldb.NewInt(int64(i)), "y": sqldb.NewText("q"), "z": sqldb.Null},
		})
	}
	small := &wire.Request{
		Kind: wire.ReqExecBatch, StmtID: 2,
		Named: map[string]sqldb.Value{"y": sqldb.NewBool(true)},
		Batch: []wire.BatchBinding{{Named: map[string]sqldb.Value{"z": sqldb.NewInt(7)}}, {}, {Pos: []sqldb.Value{sqldb.Null}}},
	}
	codec := wire.NewCodec(new(bytes.Buffer))
	for _, sent := range []*wire.Request{big, small, {Kind: wire.ReqPing}, big} {
		if err := codec.WriteRequest(sent); err != nil {
			t.Fatal(err)
		}
		got, err := codec.ReadRequest()
		if err != nil {
			t.Fatal(err)
		}
		if want, got := bitwiseRequest(sent), bitwiseRequest(got); !reflect.DeepEqual(want, got) {
			t.Fatalf("after an earlier request:\nsent %+v\ngot  %+v", want, got)
		}
		if sent.Pos == nil && got.Pos != nil || sent.Named == nil && got.Named != nil {
			t.Fatalf("empty top-level parameters decoded as %v %v, want nil", got.Pos, got.Named)
		}
		for i, b := range sent.Batch {
			if b.Pos == nil && got.Batch[i].Pos != nil || b.Named == nil && got.Batch[i].Named != nil {
				t.Fatalf("binding %d sent empty decoded as %v %v, want nil", i, got.Batch[i].Pos, got.Batch[i].Named)
			}
		}
	}
}
