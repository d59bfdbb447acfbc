package wire_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// multiRowInsert is a rows-row INSERT into typed, every id fresh but the one
// at 0-based row dup, which repeats the loaded id 1.
func multiRowInsert(rows, dup int) *wire.Request {
	var pos []sqldb.Value
	for r := range rows {
		id := int64(10 + r)
		if r == dup {
			id = 1
		}
		pos = append(pos, sqldb.NewInt(id), sqldb.NewInt(1), sqldb.NewFloat(0.5))
	}
	return &wire.Request{
		Kind: wire.ReqExec,
		SQL:  `INSERT INTO typed (id, run_id, time) VALUES (?, ?, ?)` + strings.Repeat(`, (?, ?, ?)`, rows-1),
		Pos:  pos,
	}
}

// TestMultiRowInsertFailureOverWire: over the wire as in the engine, a
// 256-row INSERT whose row k (0-based) repeats a primary key fails naming
// that row, keeps the k rows before it, and makes the next cached SELECT
// over the table re-execute.
func TestMultiRowInsertFailureOverWire(t *testing.T) {
	const rows, k = 256, 37
	_, _, codec := startCacheServer(t) // typed holds ids 1, 2, 3
	count := &wire.Request{Kind: wire.ReqExec, SQL: `SELECT COUNT(*) FROM typed`}
	roundTrip(t, codec, count)
	if hit := roundTrip(t, codec, count); hit.CacheHits != 1 {
		t.Fatalf("repeated SELECT: cache hits = %d", hit.CacheHits)
	}
	resp := roundTrip(t, codec, multiRowInsert(rows, k))
	if want := fmt.Sprintf("row %d of %d: sqldb: table typed: duplicate primary key 1", k+1, rows); !strings.Contains(resp.Err, want) {
		t.Fatalf("insert error = %q, want it to contain %q", resp.Err, want)
	}
	after := roundTrip(t, codec, count)
	if after.Err != "" || after.CacheHits != 0 {
		t.Fatalf("SELECT after the partial INSERT: err=%q cache hits=%d", after.Err, after.CacheHits)
	}
	if got := after.Rows[0][0].Int(); got != 3+k {
		t.Fatalf("typed holds %d rows, want %d", got, 3+k)
	}
}

// TestMultiRowInsertPricedPerRow: a multi-row text INSERT costs what any text
// execution does — one round trip, one compile, one statement — plus a write
// per row, so the simulated vendors keep pricing rows, not statements.
func TestMultiRowInsertPricedPerRow(t *testing.T) {
	const rows = 8
	p := wire.ProfileOracle
	_, _, codec := startProfiledServer(t, p)
	stats := &wire.Request{Kind: wire.ReqServerStats}
	before := roundTrip(t, codec, stats).Server.VendorNanos
	if resp := roundTrip(t, codec, multiRowInsert(rows, -1)); resp.Err != "" || resp.Affected != rows {
		t.Fatalf("insert: err=%q affected=%d", resp.Err, resp.Affected)
	}
	// The second stats request's own round trip is in its count too.
	got := time.Duration(roundTrip(t, codec, stats).Server.VendorNanos - before)
	want := p.RoundTrip + p.PerPrepare + p.PerStatement + rows*p.PerRowWrite + p.RoundTrip
	if got != want {
		t.Fatalf("vendor cost of a %d-row INSERT = %v, want %v", rows, got, want)
	}
}
