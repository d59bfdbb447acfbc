package wire_test

// The message marshal, tested from outside through the codec: what goes in
// comes out (round-trip property over generated messages), what cannot be a
// message is an error that costs nothing (hostile counts), and a batch reply
// ships its column header once.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/netsrv"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

// bitwise rewrites values so that reflect.DeepEqual compares them the way the
// wire must preserve them: a REAL becomes a TEXT of its bit pattern (NaN
// payloads and -0 count, and NaN equals itself), and an empty slice is nil.
func bitwise(vals []sqldb.Value) []sqldb.Value {
	if len(vals) == 0 {
		return nil
	}
	out := make([]sqldb.Value, len(vals))
	for i, v := range vals {
		out[i] = v
		if v.IsNumeric() && !v.IsInt() {
			out[i] = sqldb.NewText(fmt.Sprintf("REAL:%016x", math.Float64bits(v.Float())))
		}
	}
	return out
}

func bitwiseNamed(named map[string]sqldb.Value) map[string]sqldb.Value {
	if len(named) == 0 {
		return nil
	}
	out := make(map[string]sqldb.Value, len(named))
	for k, v := range named {
		out[k] = bitwise([]sqldb.Value{v})[0]
	}
	return out
}

func bitwiseRows(rows [][]sqldb.Value) [][]sqldb.Value {
	if len(rows) == 0 {
		return nil
	}
	out := make([][]sqldb.Value, len(rows))
	for i, r := range rows {
		out[i] = bitwise(r)
	}
	return out
}

func bitwiseRequest(m *wire.Request) *wire.Request {
	out := *m
	out.Pos, out.Named, out.Batch = bitwise(m.Pos), bitwiseNamed(m.Named), nil
	for _, b := range m.Batch {
		out.Batch = append(out.Batch, wire.BatchBinding{Pos: bitwise(b.Pos), Named: bitwiseNamed(b.Named)})
	}
	return &out
}

func bitwiseResponse(m *wire.Response) *wire.Response {
	out := *m
	out.Columns, out.Rows, out.Items = emptyIsNil(m.Columns), bitwiseRows(m.Rows), nil
	for _, it := range m.Items {
		it.Columns, it.Rows = emptyIsNil(it.Columns), bitwiseRows(it.Rows)
		out.Items = append(out.Items, it)
	}
	return &out
}

func emptyIsNil(ss []string) []string {
	if len(ss) == 0 {
		return nil
	}
	return ss
}

// The values a generated message draws from: every kind, and the edges of
// each.
var (
	edgeInts   = []int64{0, 1, -1, 63, 64, -64, -65, math.MaxInt64, math.MinInt64}
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), // NaN with a payload
		math.Float64frombits(0xfff0000000000001), // negative signalling NaN
		math.SmallestNonzeroFloat64, math.MaxFloat64,
	}
	edgeStrings = []string{"", "x", "nul\x00inside", "\x00", "héllo wörld ✓", "\xff\xfe not utf-8", strings.Repeat("long ", 300)}
)

type generator struct{ *rand.Rand }

func pick[T any](g generator, from []T) T { return from[g.Intn(len(from))] }

func (g generator) i64() int64 {
	if g.Intn(2) == 0 {
		return pick(g, edgeInts)
	}
	return int64(g.Uint64())
}

func (g generator) value() sqldb.Value {
	switch g.Intn(5) {
	case 0:
		return sqldb.Null
	case 1:
		return sqldb.NewInt(g.i64())
	case 2:
		if g.Intn(2) == 0 {
			return sqldb.NewFloat(pick(g, edgeFloats))
		}
		return sqldb.NewFloat(math.Float64frombits(g.Uint64()))
	case 3:
		return sqldb.NewText(pick(g, edgeStrings))
	default:
		return sqldb.NewBool(g.Intn(2) == 0)
	}
}

// values returns nil, an empty slice, or up to four values.
func (g generator) values() []sqldb.Value {
	n := g.Intn(6) - 1
	if n < 0 {
		return nil
	}
	vals := make([]sqldb.Value, n)
	for i := range vals {
		vals[i] = g.value()
	}
	return vals
}

func (g generator) named() map[string]sqldb.Value {
	n := g.Intn(5) - 1
	if n < 0 {
		return nil
	}
	named := make(map[string]sqldb.Value, n)
	for i := range n {
		named[fmt.Sprintf("%s%d", pick(g, edgeStrings[:5]), i)] = g.value()
	}
	return named
}

func (g generator) names() []string {
	n := g.Intn(5) - 1
	if n < 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = pick(g, edgeStrings)
	}
	return ss
}

func (g generator) rows() [][]sqldb.Value {
	n := g.Intn(5) - 1
	if n < 0 {
		return nil
	}
	rows := make([][]sqldb.Value, n)
	for i := range rows {
		rows[i] = g.values()
	}
	return rows
}

func (g generator) request() *wire.Request {
	m := &wire.Request{
		// Every dispatched kind, the one past the last, and a negative one.
		Kind:     wire.RequestKind(g.Intn(int(wire.ReqServerStats)+3) - 1),
		SQL:      pick(g, edgeStrings),
		Pos:      g.values(),
		Named:    g.named(),
		CursorID: g.i64(),
		FetchN:   int(g.i64()),
		StmtID:   g.i64(),
	}
	for range g.Intn(4) {
		m.Batch = append(m.Batch, wire.BatchBinding{Pos: g.values(), Named: g.named()})
	}
	return m
}

func (g generator) response() *wire.Response {
	m := &wire.Response{
		Err:       pick(g, edgeStrings),
		Columns:   g.names(),
		Rows:      g.rows(),
		Affected:  int(g.i64()),
		CursorID:  g.i64(),
		StmtID:    g.i64(),
		Done:      g.Intn(2) == 0,
		CacheHits: int(g.i64()),
	}
	columns := g.names()
	for range g.Intn(5) {
		if g.Intn(3) == 0 {
			columns = g.names() // else: the previous item's, as in a real batch
		}
		m.Items = append(m.Items, wire.BatchItem{
			Err: pick(g, edgeStrings), Columns: columns, Rows: g.rows(),
			Affected: int(g.i64()), Cached: g.Intn(2) == 0,
		})
	}
	if g.Intn(2) == 0 {
		m.Server = new(wire.ServerStats)
		testutil.FillCounters(m.Server, g.i64)
	}
	return m
}

// TestMessagesRoundTrip: generated requests and responses — every request
// kind, every value kind and its edge cases, optional sections nil and set —
// come out of one long-lived codec equal to what went in, bit for bit, modulo
// nil versus empty.
func TestMessagesRoundTrip(t *testing.T) {
	g := generator{rand.New(rand.NewSource(15))}
	codec := wire.NewCodec(new(bytes.Buffer))
	for i := range 2000 {
		req := g.request()
		if err := codec.WriteRequest(req); err != nil {
			t.Fatal(err)
		}
		gotReq, err := codec.ReadRequest()
		if err != nil {
			t.Fatalf("request %d: %v\n%+v", i, err, req)
		}
		if want, got := bitwiseRequest(req), bitwiseRequest(gotReq); !reflect.DeepEqual(want, got) {
			t.Fatalf("request %d:\nsent %+v\ngot  %+v", i, want, got)
		}
		resp := g.response()
		if err := codec.WriteResponse(resp); err != nil {
			t.Fatal(err)
		}
		gotResp, err := codec.ReadResponse()
		if err != nil {
			t.Fatalf("response %d: %v\n%+v", i, err, resp)
		}
		if want, got := bitwiseResponse(resp), bitwiseResponse(gotResp); !reflect.DeepEqual(want, got) {
			t.Fatalf("response %d:\nsent %+v\ngot  %+v", i, want, got)
		}
	}
}

// frame puts a length prefix in front of a payload.
func frame(payload []byte) []byte {
	return append(netsrv.AppendCount(nil, len(payload)), payload...)
}

// TestHostileCountsCostNothing: a well-framed payload in which a length or an
// element count claims 2^32 of something fails with an error, having
// allocated next to nothing — the count is checked against the bytes left in
// the frame before anything is made for the elements. (The frame-level twin,
// a length prefix that lies, is netsrv's TestHostilePrefix.)
func TestHostileCountsCostNothing(t *testing.T) {
	const huge = 1 << 32
	lie := func(before ...byte) []byte {
		return append(netsrv.AppendCount(before, huge), 1, 2, 3, 4)
	}
	zeros := func(n int) []byte { return make([]byte, n) }
	requests := map[string][]byte{
		"SQL length":    lie(zeros(1)...),
		"Pos count":     lie(zeros(2)...),
		"Named count":   lie(zeros(3)...),
		"Batch count":   lie(zeros(7)...),
		"text length":   lie(0, 0, 1, 3), // one positional value, a TEXT
		"binding's Pos": lie(append(zeros(7), 1)...),
	}
	responses := map[string][]byte{
		"Err length":     lie(),
		"Columns count":  lie(zeros(1)...),
		"Rows count":     lie(zeros(2)...),
		"row's values":   lie(0, 0, 1),
		"Items count":    lie(zeros(7)...),
		"item's columns": lie(append(zeros(7), 1, 0, 0)...),
		"item's rows":    lie(append(zeros(7), 1, 0, 0, 0)...),
	}
	check := func(name string, payload []byte, read func(*wire.Codec) error) {
		t.Run(name, func(t *testing.T) {
			codec := wire.NewCodec(bytes.NewBuffer(frame(payload)))
			var err error
			got := testutil.AllocatedBy(func() { err = read(codec) })
			if err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("err = %v, want the count refused", err)
			}
			if got > 1<<20 {
				t.Fatalf("refusing the frame allocated %d bytes", got)
			}
		})
	}
	for name, payload := range requests {
		check("request/"+name, payload, func(c *wire.Codec) error { _, err := c.ReadRequest(); return err })
	}
	for name, payload := range responses {
		check("response/"+name, payload, func(c *wire.Codec) error { _, err := c.ReadResponse(); return err })
	}
}

// TestMalformedPayloads: an unknown value kind, a truncated field, a bad
// boolean or columns marker, and bytes behind the last field are all decode
// errors.
func TestMalformedPayloads(t *testing.T) {
	var buf bytes.Buffer
	codec := wire.NewCodec(&buf)
	if err := codec.WriteRequest(&wire.Request{Kind: wire.ReqExec, SQL: "SELECT 1", Pos: []sqldb.Value{sqldb.NewInt(7)}}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()[1:] // the frame is short: one prefix byte
	cases := map[string][]byte{
		"unknown value kind": bytes.Replace(good, []byte{1, 1, 14}, []byte{1, 6, 14}, 1),
		"truncated":          good[:len(good)-1],
		"trailing byte":      append(bytes.Clone(good), 0),
		"empty payload":      {},
	}
	for name, payload := range cases {
		if _, err := wire.NewCodec(bytes.NewBuffer(frame(payload))).ReadRequest(); err == nil {
			t.Errorf("%s: request decoded", name)
		}
	}
	if _, err := wire.NewCodec(bytes.NewBuffer(frame(good))).ReadRequest(); err != nil {
		t.Fatalf("the unmodified payload: %v", err)
	}

	buf.Reset()
	if err := codec.WriteResponse(&wire.Response{Done: true, Items: []wire.BatchItem{{Cached: true}}}); err != nil {
		t.Fatal(err)
	}
	good = buf.Bytes()[1:]
	// Fields in order: Err, Columns, Rows, Affected, CursorID, StmtID, Done,
	// Items count, then the item's Err and its columns marker.
	cases = map[string][]byte{
		"bad boolean":                  append(append(bytes.Clone(good[:6]), 2), good[7:]...),
		"bad columns marker":           append(append(bytes.Clone(good[:9]), 2), good[10:]...),
		"first item says same columns": append(append(bytes.Clone(good[:9]), 1), good[10:]...),
	}
	for name, payload := range cases {
		if _, err := wire.NewCodec(bytes.NewBuffer(frame(payload))).ReadResponse(); err == nil {
			t.Errorf("%s: response decoded", name)
		}
	}
	if _, err := wire.NewCodec(bytes.NewBuffer(frame(good))).ReadResponse(); err != nil {
		t.Fatalf("the unmodified payload: %v", err)
	}
}

// warmWireBatch is the exchange warm_wire sends 64 times per analysis: a
// 32-binding ReqExecBatch with 3 named parameters each, and its 32-item
// cached reply of 1-row x 4-column results.
func warmWireBatch() (*wire.Request, *wire.Response) {
	req := &wire.Request{Kind: wire.ReqExecBatch, StmtID: 7}
	resp := &wire.Response{Done: true, CacheHits: 32}
	columns := []string{"region_id", "severity", "confidence", "basis"}
	for i := range 32 {
		req.Batch = append(req.Batch, wire.BatchBinding{Named: map[string]sqldb.Value{
			"run_id":    sqldb.NewInt(int64(10 + i)),
			"region_id": sqldb.NewInt(int64(1000 + 17*i)),
			"threshold": sqldb.NewFloat(0.25),
		}})
		resp.Items = append(resp.Items, wire.BatchItem{
			Columns: columns, Cached: true,
			Rows: [][]sqldb.Value{{sqldb.NewInt(int64(1000 + 17*i)), sqldb.NewFloat(0.125 * float64(i)), sqldb.NewFloat(1), sqldb.NewText("summed")}},
		})
	}
	return req, resp
}

// TestBatchReplyShipsColumnsOnce: the items of a batch reply share one column
// header on the wire and one []string after decoding, and an item that
// differs from its predecessor — an error in the middle, an empty result set
// with other columns — still reports exactly its own.
func TestBatchReplyShipsColumnsOnce(t *testing.T) {
	var buf bytes.Buffer
	codec := wire.NewCodec(&buf)
	size := func(resp *wire.Response) int {
		buf.Reset()
		if err := codec.WriteResponse(resp); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	_, whole := warmWireBatch()
	var oneByOne int
	for _, item := range whole.Items {
		oneByOne += size(&wire.Response{Done: true, CacheHits: 1, Items: []wire.BatchItem{item}})
	}
	if batched := size(whole); batched >= oneByOne-30*len("region_idseverityconfidencebasis") {
		t.Fatalf("32-item frame is %d bytes, 32 one-item frames %d: the header was not shared", batched, oneByOne)
	}
	got, err := codec.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range got.Items {
		if !reflect.DeepEqual(item.Columns, whole.Items[i].Columns) {
			t.Fatalf("item %d columns = %v", i, item.Columns)
		}
		if &item.Columns[0] != &got.Items[0].Columns[0] {
			t.Fatalf("item %d has a []string of its own", i)
		}
	}

	ab, cd := []string{"a", "b"}, []string{"c", "d"}
	row := [][]sqldb.Value{{sqldb.NewInt(1), sqldb.NewInt(2)}}
	mixed := &wire.Response{Done: true, Items: []wire.BatchItem{
		{Columns: ab, Rows: row},
		{Columns: ab, Rows: row},
		{Err: "binding 2 failed"},
		{Err: "binding 3 failed"},
		{Columns: ab, Rows: row},
		{Columns: cd}, // an empty result set, of another shape
		{Columns: cd, Rows: row},
		{Columns: []string{"c"}, Rows: row},
	}}
	size(mixed)
	got, err = codec.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if want, got := bitwiseResponse(mixed), bitwiseResponse(got); !reflect.DeepEqual(want, got) {
		t.Fatalf("mixed batch:\nsent %+v\ngot  %+v", want, got)
	}
}

// BenchmarkWireCodec: the warm_wire exchange through one long-lived codec over
// an in-memory buffer, as the benchmark harness's codec replay drives it —
// each message encoded, then decoded.
func BenchmarkWireCodec(b *testing.B) {
	req, resp := warmWireBatch()
	var buf bytes.Buffer
	codec := wire.NewCodec(&buf)
	b.Run("request", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := codec.WriteRequest(req); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			if _, err := codec.ReadRequest(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := codec.WriteResponse(resp); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(buf.Len()))
			if _, err := codec.ReadResponse(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
