package godbc

// Client-side sharding across kojakdb instances. A ShardedDB owns one
// connection pool per shard address and routes every statement by the object
// id of the test run it concerns: the COSY workflow accumulates one database
// entry per program version and test run, and partitioning that history
// run-wise across servers is what keeps a single kojakdb from becoming the
// bottleneck of a large sweep.
//
// The shards themselves are ordinary single-node wire servers — the server
// and the engine know nothing about sharding. Routing happens here, in the
// driver: a prepared property query carries the name of its run parameter
// (PrepareRoutedQuery), each execution's bindings name the run they belong
// to, and the statement fans the bindings out to the pools of their owning
// shards, merging the per-shard results back into binding order. Because the
// merge order is the binding order — never arrival order — results are
// deterministic for any shard count.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"repro/internal/asl/sqlgen"
	"repro/internal/sqldb"
)

// HashRouting maps a run's object id to the index of the shard owning it, in
// [0, shards): FNV-1a over the run id's eight bytes, reduced modulo the shard
// count. It is pure — the loader and the analyzer both consult it (through
// ShardedDB.ShardFor), and rows land on the shard the queries will ask. Runs spread uniformly and independently of
// allocation order, so growing a sweep does not pile new runs onto one shard.
func HashRouting(runID int64, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(runID >> (8 * i))
	}
	h.Write(b[:])
	return int(h.Sum64() % uint64(shards))
}

// ShardError tags an error with the address of the shard that produced it,
// so an analysis that dies because one of N servers is unreachable names the
// server. It wraps only transport-level failures (refused dials, dropped
// connections); statement errors pass through untagged, exactly as a
// single-node pool reports them.
type ShardError struct {
	Addr string
	Err  error
}

// Error implements error.
func (e *ShardError) Error() string { return fmt.Sprintf("godbc: shard %s: %v", e.Addr, e.Err) }

// Unwrap exposes the underlying transport error.
func (e *ShardError) Unwrap() error { return e.Err }

// ShardAddr returns the unreachable shard's address. Analysis layers detect
// shard loss through this method (via errors.As on the interface) without
// importing the driver's concrete types.
func (e *ShardError) ShardAddr() string { return e.Addr }

// ShardedDB is a set of connection pools, one per shard of a run-partitioned
// COSY database. It is safe for concurrent use. It implements the Executor,
// sqlgen.QueryPreparer and sqlgen.RoutedPreparer interfaces, so it drops into
// every place a Pool does:
//
//   - routed executions (the analyzer's property queries) go to the shard
//     owning the bound run;
//   - Exec (DDL and un-routed writes) broadcasts to every shard, which is
//     how CreateSchema reaches all of them;
//   - un-routed reads pin to the first shard, which is correct only for
//     replicated tables — a documented restriction, not a checked one.
type ShardedDB struct {
	addrs []string
	pools []*Pool
}

// DialSharded connects one pool of connsPerShard connections to every shard
// address. Every address is validated eagerly — a COSY analysis must not
// start against a partial database — and a dial failure reports the dead
// shard as a ShardError. A single address is a valid one-shard deployment.
func DialSharded(addrs []string, connsPerShard int) (*ShardedDB, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("godbc: no shard addresses")
	}
	s := &ShardedDB{addrs: append([]string(nil), addrs...)}
	for _, addr := range s.addrs {
		if strings.TrimSpace(addr) == "" {
			return nil, fmt.Errorf("godbc: empty shard address in %q", strings.Join(addrs, ","))
		}
	}
	for _, addr := range s.addrs {
		p, err := NewPool(addr, connsPerShard)
		if err != nil {
			s.Close()
			return nil, &ShardError{Addr: addr, Err: err}
		}
		s.pools = append(s.pools, p)
	}
	return s, nil
}

// Shards returns the shard count.
func (s *ShardedDB) Shards() int { return len(s.pools) }

// ShardFor returns the index of the shard owning a run. Loaders pass this to
// sqlgen.LoadSharded so data and queries route identically.
func (s *ShardedDB) ShardFor(runID int64) int { return HashRouting(runID, len(s.pools)) }

// Pool returns the connection pool of one shard, for per-shard bulk work
// such as loading.
func (s *ShardedDB) Pool(i int) *Pool { return s.pools[i] }

// SplitAddrs parses a comma-separated shard list ("host1,host2,..."),
// trimming whitespace and rejecting blank entries — the one parser behind
// every CLI's -db flag, so the address rules cannot drift between the tools
// that write shards and the tools that read them.
func SplitAddrs(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	parts := strings.Split(list, ",")
	addrs := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("godbc: shard list %q contains an empty address", list)
		}
		addrs = append(addrs, p)
	}
	return addrs, nil
}

// Loader adapts any godbc executor — a Pool, an Embedded, a whole ShardedDB —
// to the (affected, error) shape sqlgen.CreateSchema and sqlgen.Load write
// through.
func Loader(e Executor) sqlgen.Executor {
	return sqlgen.ExecutorFunc(func(query string, params *sqldb.Params) (int, error) {
		res, err := e.Exec(query, params)
		return res.Affected, err
	})
}

// ShardExecutors returns one loader-compatible executor per shard, in shard
// order — the shards argument of sqlgen.LoadSharded.
func (s *ShardedDB) ShardExecutors() []sqlgen.Executor {
	execs := make([]sqlgen.Executor, len(s.pools))
	for i, p := range s.pools {
		execs[i] = Loader(p)
	}
	return execs
}

// BroadcastExecutor returns a loader-compatible executor that runs every
// statement on all shards — the executor to hand sqlgen.CreateSchema so the
// schema exists everywhere.
func (s *ShardedDB) BroadcastExecutor() sqlgen.Executor { return Loader(s) }

// Close closes every shard pool, returning the first error.
func (s *ShardedDB) Close() error {
	var first error
	for _, p := range s.pools {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tag promotes transport-level failures from shard i to ShardError; other
// errors (and nil) pass through unchanged.
func (s *ShardedDB) tag(i int, err error) error {
	if err == nil || !isTransportError(err) {
		return err
	}
	var se *ShardError
	if errors.As(err, &se) {
		return err // already tagged (eager dial in DialSharded)
	}
	return &ShardError{Addr: s.addrs[i], Err: err}
}

// Exec broadcasts a statement to every shard — the path DDL takes, so the
// schema exists everywhere. All shards must succeed; the result of the first
// shard is returned (replicated writes affect the same rows everywhere).
func (s *ShardedDB) Exec(query string, params *sqldb.Params) (Result, error) {
	var first Result
	for i, p := range s.pools {
		res, err := p.Exec(query, params)
		if err != nil {
			return Result{}, s.tag(i, err)
		}
		if i == 0 {
			first = res
		}
	}
	return first, nil
}

// ExecQuery serves an un-routed SELECT from the first shard. Valid only for
// replicated tables; rows of partitioned tables held by other shards are
// invisible to it.
func (s *ShardedDB) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return s.ExecQueryContext(context.Background(), query, params)
}

// ExecQueryContext is ExecQuery observing a context.
func (s *ShardedDB) ExecQueryContext(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	set, err := s.pools[0].ExecQueryContext(ctx, query, params)
	return set, s.tag(0, err)
}

// route extracts the owning run id from a parameter set and returns its
// shard index.
func (s *ShardedDB) route(runParam string, params *sqldb.Params) (int, error) {
	if runParam == "" {
		return 0, nil
	}
	if params == nil {
		return 0, fmt.Errorf("godbc: routed execution without parameters (run parameter %s)", runParam)
	}
	v, ok := params.Named[runParam]
	if !ok || !v.IsInt() {
		return 0, fmt.Errorf("godbc: routed execution does not bind run parameter %s to a run id", runParam)
	}
	return s.ShardFor(v.Int()), nil
}

// ConcurrentQuery marks the sharded database as safe for concurrent
// querying: every in-flight statement holds its own pooled connection.
func (s *ShardedDB) ConcurrentQuery() bool { return true }

// PrepareQuery implements sqlgen.QueryPreparer for un-routed prepared
// queries: with no run parameter to route on, every execution pins to the
// first shard. Analysis code should prefer PrepareRoutedQuery.
func (s *ShardedDB) PrepareQuery(query string) (sqlgen.PreparedQuery, error) {
	return s.PrepareRoutedQuery(query, "")
}

// PrepareRoutedQuery implements sqlgen.RoutedPreparer: the returned
// statement routes each execution (and each binding of a batch) to the shard
// owning the run bound under runParam. Preparation is lazy per underlying
// connection, so shards that never serve an execution never plan the query.
func (s *ShardedDB) PrepareRoutedQuery(query, runParam string) (sqlgen.PreparedQuery, error) {
	st := &ShardedStmt{db: s, runParam: runParam, stmts: make([]*PooledStmt, len(s.pools))}
	for i, p := range s.pools {
		pq, err := p.PrepareQuery(query)
		if err != nil {
			return nil, s.tag(i, err) // cannot happen today: pooled prepare is lazy
		}
		st.stmts[i] = pq.(*PooledStmt)
	}
	return st, nil
}

// ShardedStmt is a prepared statement over a sharded database: one pooled
// statement per shard, selected per execution by the run id bound under the
// statement's run parameter. It is safe for concurrent use.
type ShardedStmt struct {
	db       *ShardedDB
	runParam string
	stmts    []*PooledStmt
}

// ExecQuery executes one parameter set on the shard owning its run.
func (st *ShardedStmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	return execOne(context.Background(), st, params)
}

// ExecQueryContext is ExecQuery observing a context.
func (st *ShardedStmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return execOne(ctx, st, params)
}

// ExecQueryBatch implements sqlgen.BatchPreparedQuery across shards: the
// bindings are grouped by owning shard, the groups execute concurrently (one
// batched request pipeline per shard), and the per-shard results are merged
// back into binding order. The merge is deterministic — result i always
// belongs to binding i — so reports built from sharded batches are identical
// to single-node ones. A shard-level failure fails the whole call, tagged
// with the shard's address; the lowest-indexed failing shard wins, so the
// reported error does not depend on goroutine scheduling.
func (st *ShardedStmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return st.ExecQueryBatchContext(context.Background(), bindings)
}

// ExecQueryBatchContext is ExecQueryBatch with ctx threaded to every
// per-shard batch.
func (st *ShardedStmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	// Group binding indexes by shard, preserving order within each group.
	groups := make(map[int][]int)
	order := make([]int, 0, len(st.stmts))
	for bi, params := range bindings {
		i, err := st.db.route(st.runParam, params)
		if err != nil {
			return nil, err
		}
		if _, seen := groups[i]; !seen {
			order = append(order, i)
		}
		groups[i] = append(groups[i], bi)
	}
	out := make([]sqlgen.BatchQueryResult, len(bindings))
	if len(order) == 1 {
		// The common case: every binding of a property batch names the same
		// run, so the whole batch is one shard's request — no fan-out cost.
		i := order[0]
		results, err := st.stmts[i].ExecQueryBatchContext(ctx, bindings)
		if err == nil && len(results) != len(bindings) {
			err = fmt.Errorf("godbc: shard batch returned %d results for %d bindings", len(results), len(bindings))
		}
		if err != nil {
			return nil, st.db.tag(i, err)
		}
		copy(out, results)
		return out, nil
	}
	errs := make([]error, len(st.stmts))
	var wg sync.WaitGroup
	for _, i := range order {
		wg.Add(1)
		go func(i int, idxs []int) {
			defer wg.Done()
			sub := make([]*sqldb.Params, len(idxs))
			for j, bi := range idxs {
				sub[j] = bindings[bi]
			}
			results, err := st.stmts[i].ExecQueryBatchContext(ctx, sub)
			if err == nil && len(results) != len(idxs) {
				err = fmt.Errorf("godbc: shard batch returned %d results for %d bindings", len(results), len(idxs))
			}
			if err != nil {
				errs[i] = st.db.tag(i, err)
				return
			}
			for j, bi := range idxs {
				out[bi] = results[j]
			}
		}(i, groups[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Close closes the per-shard statements.
func (st *ShardedStmt) Close() error {
	var first error
	for _, ps := range st.stmts {
		if err := ps.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ Executor = (*ShardedDB)(nil)
var _ sqlgen.QueryPreparer = (*ShardedDB)(nil)
var _ sqlgen.RoutedPreparer = (*ShardedDB)(nil)
var _ sqlgen.ContextQueryExecutor = (*ShardedDB)(nil)
var _ sqlgen.BatchPreparedQuery = (*ShardedStmt)(nil)
var _ sqlgen.ContextPreparedQuery = (*ShardedStmt)(nil)
var _ sqlgen.ContextBatchPreparedQuery = (*ShardedStmt)(nil)
