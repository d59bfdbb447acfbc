// Package wire implements a client/server protocol for the sqldb engine:
// length-prefixed binary messages over TCP (marshal.go), server-side cursors
// with configurable fetch granularity, and per-vendor performance profiles
// that model the database configurations of the paper's Section 5 (local MS
// Access versus networked Oracle 7, MS SQL Server, and Postgres).
package wire

import (
	"fmt"
	"io"
	"time"

	"repro/internal/netsrv"
	"repro/internal/sqldb"
)

// RequestKind selects the operation of a request.
type RequestKind int

// Request kinds.
const (
	ReqExec          RequestKind = iota // execute statement, inline result
	ReqQueryCursor                      // execute SELECT, open a cursor
	ReqFetch                            // fetch next batch from a cursor
	ReqCloseCursor                      // discard a cursor
	ReqPing                             // round-trip probe
	ReqPrepare                          // parse and plan, return a statement handle
	ReqExecPrepared                     // execute a prepared handle, inline result
	ReqClosePrepared                    // discard a statement handle
	ReqExecBatch                        // execute a prepared handle once per binding, inline results
	ReqServerStats                      // fetch the engine's counters and the server's own
)

// MaxBatch is the largest number of parameter bindings one ReqExecBatch may
// carry. The limit bounds the server-side memory of a single request (every
// binding's result set is materialized before the response is written);
// clients split larger batches transparently (see godbc.Stmt.ExecBatch).
const MaxBatch = 256

// WireValue is a sqldb.Value: messages carry engine values as they are, and
// the codec reads and writes them through Value's own accessors.
type WireValue = sqldb.Value

// ToWire is the identity; it names the point where an engine value enters a
// message.
func ToWire(v sqldb.Value) WireValue { return v }

// Request is a client message.
type Request struct {
	Kind     RequestKind
	SQL      string
	Pos      []WireValue
	Named    map[string]WireValue
	CursorID int64
	FetchN   int
	// StmtID addresses a server-side prepared statement for ReqExecPrepared,
	// ReqClosePrepared, and ReqExecBatch; prepared requests ship no SQL text.
	StmtID int64
	// Batch carries the parameter bindings of a ReqExecBatch: one entry per
	// execution of the prepared handle, at most MaxBatch of them.
	Batch []BatchBinding
}

// BatchBinding is one parameter set of a batched execution.
type BatchBinding struct {
	Pos   []WireValue
	Named map[string]WireValue
}

// BatchItem is the per-binding outcome of a ReqExecBatch: either Err or a
// result. Items are ordered exactly as the request's bindings, so partial
// failures map back to their parameter sets.
type BatchItem struct {
	Err      string
	Columns  []string
	Rows     [][]WireValue
	Affected int
	// Cached marks a binding answered from the server's result cache.
	Cached bool
}

// ServerStats is the snapshot a ReqServerStats returns: the engine's counters,
// whole and as sqldb declares them, plus the two the server itself keeps. For
// a sharded database it is the sum over all shards (godbc.ShardedDB). The
// JSON form is the "backend" section of cosyd's /metrics.
type ServerStats struct {
	sqldb.Stats
	// Requests counts protocol requests this server has served.
	Requests int64 `json:"requests"`
	// VendorNanos is the cumulative simulated vendor delay (round trips,
	// statement and prepare costs, per-row charges) the server has injected,
	// in nanoseconds — the profiled "money spent at the database vendor".
	VendorNanos int64 `json:"vendor_ns"`
}

// counters lists the snapshot's counters in wire order: the engine's own
// field list, then the server's two.
func (s *ServerStats) counters() []*int64 {
	return append(s.Stats.Counters(), &s.Requests, &s.VendorNanos)
}

// Add sums o into s, counter by counter.
func (s *ServerStats) Add(o ServerStats) {
	from := o.counters()
	for i, c := range s.counters() {
		*c += *from[i]
	}
}

// Response is a server message.
type Response struct {
	Err      string
	Columns  []string
	Rows     [][]WireValue
	Affected int
	CursorID int64
	// StmtID is the handle returned by ReqPrepare.
	StmtID int64
	// Done marks cursor exhaustion.
	Done bool
	// Items holds the per-binding outcomes of a ReqExecBatch.
	Items []BatchItem
	// CacheHits counts how many of this reply's results were served from the
	// server's result cache (0 or 1 for single executions, up to the binding
	// count for a batch).
	CacheHits int
	// Server is the counter snapshot answering a ReqServerStats.
	Server *ServerStats
}

// Codec frames requests and responses on a stream.
type Codec = netsrv.Codec[Request, Response]

// NewCodec wraps a bidirectional stream. A request the codec reads is valid
// until it reads the next one: its parameter sets live in memory the codec
// reuses (requestDecoder), which is sound for the one reader there is — the
// server, which serves one request at a time per connection. Responses are
// decoded into memory of their own; they escape to the driver's callers.
func NewCodec(rw io.ReadWriter) *Codec {
	return netsrv.NewCodec(rw,
		netsrv.Format[Request]{Append: appendRequest, Decode: new(requestDecoder).decode},
		netsrv.Format[Response]{Append: appendResponse, Decode: decodeResponse})
}

// Profile models the performance character of a database deployment. The
// engine is identical in all configurations; what differed between the
// paper's four DBMS setups was deployment (local file database versus
// networked server) and per-statement server cost. The delays below are
// injected server side, on top of the real cost of TCP transport and message
// marshalling.
type Profile struct {
	// Name identifies the vendor configuration in reports.
	Name string
	// RoundTrip is network and request-dispatch latency charged once per
	// protocol request (the distributed setups of the paper transferred
	// data over the network to the database server).
	RoundTrip time.Duration
	// PerStatement is fixed statement-processing overhead (dispatch,
	// logging, transaction bookkeeping) charged on every execution, text or
	// prepared.
	PerStatement time.Duration
	// PerPrepare is statement-compilation overhead (lexing, parsing, query
	// planning in the vendor server). A text-protocol execution compiles the
	// statement anew and is charged PerPrepare every time; a prepared
	// statement pays it once, on ReqPrepare, and executions of the handle
	// skip it — the PreparedStatement economics of the paper's JDBC
	// deployments.
	PerPrepare time.Duration
	// PerRowWrite is added per inserted/updated/deleted row; it models
	// per-row commit cost, the dominant term of the paper's insertion
	// comparison.
	PerRowWrite time.Duration
	// PerRowRead is added per row shipped to the client.
	PerRowRead time.Duration
}

// The vendor profiles. The constants are calibrated so that the *ratios*
// reproduce Section 5: Oracle insertion ≈ 20× slower than the local
// embedded engine ("MS Access"), MS SQL Server / Postgres ≈ 2× faster than
// Oracle, and row-at-a-time cursor fetch ≈ 2–4× slower than bulk ("C-based")
// access. Absolute values are scaled down roughly 5–15× from the 1999
// hardware so the benchmark suite stays fast; EXPERIMENTS.md records the
// mapping.
var (
	// ProfileAccess models the local MS Access configuration: in-process,
	// no network, only driver dispatch overhead. Apply it with
	// godbc.Embedded's Profile field.
	ProfileAccess = Profile{Name: "access", PerStatement: 12 * time.Microsecond, PerPrepare: 6 * time.Microsecond}
	// ProfileOracle models the networked Oracle 7 server of the paper. Its
	// statement compiler ("hard parse") is the most expensive of the four
	// vendors, which is exactly what PreparedStatement was amortizing in the
	// measured deployment.
	ProfileOracle = Profile{Name: "oracle7", RoundTrip: 150 * time.Microsecond, PerStatement: 20 * time.Microsecond, PerPrepare: 60 * time.Microsecond, PerRowWrite: 130 * time.Microsecond, PerRowRead: 60 * time.Microsecond}
	// ProfileMSSQL models the MS SQL Server configuration.
	ProfileMSSQL = Profile{Name: "mssql", RoundTrip: 100 * time.Microsecond, PerStatement: 10 * time.Microsecond, PerPrepare: 25 * time.Microsecond, PerRowWrite: 40 * time.Microsecond, PerRowRead: 30 * time.Microsecond}
	// ProfilePostgres models the Postgres configuration.
	ProfilePostgres = Profile{Name: "postgres", RoundTrip: 100 * time.Microsecond, PerStatement: 12 * time.Microsecond, PerPrepare: 25 * time.Microsecond, PerRowWrite: 42 * time.Microsecond, PerRowRead: 30 * time.Microsecond}
	// ProfileOracleRemote models the paper's measured deployment at full
	// scale: the COSY prototype talked to the Oracle server across the
	// department network through JDBC and paid about 1 ms per fetched record,
	// latency the analyzer spends idle on the wire. Unlike the scaled-down
	// LAN profiles above, this round trip is long enough that Delay sleeps
	// instead of spinning, so concurrent requests from a connection pool
	// genuinely overlap — the configuration the parallel evaluation pipeline
	// is built for.
	ProfileOracleRemote = Profile{Name: "oracle-remote", RoundTrip: 2 * time.Millisecond, PerStatement: 20 * time.Microsecond, PerPrepare: 60 * time.Microsecond, PerRowWrite: 130 * time.Microsecond, PerRowRead: 60 * time.Microsecond}
	// ProfileFast is a zero-overhead server profile used to isolate pure
	// protocol cost in tests and benchmarks.
	ProfileFast = Profile{Name: "fast"}
)

// String renders the profile name.
func (p Profile) String() string { return p.Name }

// Validate rejects nonsensical profiles.
func (p Profile) Validate() error {
	if p.RoundTrip < 0 || p.PerStatement < 0 || p.PerPrepare < 0 || p.PerRowWrite < 0 || p.PerRowRead < 0 {
		return fmt.Errorf("wire: profile %s has negative delays", p.Name)
	}
	return nil
}

// ByName returns the named built-in profile.
func ByName(name string) (Profile, bool) {
	for _, p := range []Profile{ProfileAccess, ProfileOracle, ProfileMSSQL, ProfilePostgres, ProfileOracleRemote, ProfileFast} {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
