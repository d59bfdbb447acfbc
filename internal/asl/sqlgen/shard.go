package sqlgen

// Client-side sharding support: the interfaces the analyzer uses to route
// property executions to the database shard that owns a test run, and the
// load-plan variant that routes each INSERT of a store to its owning shard.
//
// Sharding is entirely a client concern. Every shard is an ordinary
// single-node server speaking the ordinary wire protocol; what partitions the
// COSY database is (a) where the loader sends each row and (b) where the
// analyzer sends each query. Both decisions key on the same value, the object
// id of the owning TestRun, so they can never disagree.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/asl/object"
	"repro/internal/asl/sem"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// RoutedPreparer is implemented by executors that can route a prepared query
// per execution: each parameter set names its owning test run under runParam,
// and the executor sends the execution to the shard that owns that run.
// Analysis code probes for it and falls back to plain QueryPreparer when
// absent.
type RoutedPreparer interface {
	PrepareRoutedQuery(query, runParam string) (PreparedQuery, error)
}

// RoutedExecutor is the text-protocol analogue of RoutedPreparer: one-shot
// query execution routed by the run id bound under runParam. It takes the
// context outright — there is no uncancellable twin to probe past.
type RoutedExecutor interface {
	ExecQueryRouted(ctx context.Context, query, runParam string, params *sqldb.Params) (*sqldb.ResultSet, error)
}

// RoutedStatement is one statement of a sharded load plan: the statement
// itself plus the object id of the test run that owns it. RunID 0 marks a
// statement with no owning run — structural data that must be replicated to
// every shard.
type RoutedStatement struct {
	Statement
	RunID int64
}

// Broadcast reports whether the statement must run on every shard.
func (s RoutedStatement) Broadcast() bool { return s.RunID == 0 }

// runOf returns the object id of the run owning obj, if obj's class is in the
// partitioned set and carries a class-valued Run attribute.
func runOf(obj *object.Object, partitioned map[string]bool) int64 {
	if obj == nil || !partitioned[obj.Class.Name] {
		return 0
	}
	if run, ok := obj.Get("Run").(*object.Object); ok {
		return run.ID
	}
	return 0
}

// RoutedLoadPlan is the load-plan emission walk: one INSERT per object plus
// one per set membership, in store allocation order, each tagged with the
// object id of its owning run. An object whose class is in the partitioned
// set (and every junction row whose element is such an object) routes to its
// run; everything else is tagged for broadcast. A nil partitioned set tags
// everything broadcast — that is LoadPlan. Which classes are safely
// partitionable is a property of the ASL specification, not of the store —
// for the canonical COSY spec it is model.RunPartitioned.
func RoutedLoadPlan(store *object.Store, partitioned map[string]bool) ([]RoutedStatement, error) {
	var stmts []RoutedStatement
	for _, obj := range store.All() {
		cls := obj.Class
		colNames := []string{"id"}
		vals := []sqldb.Value{sqldb.NewInt(obj.ID)}
		var junctions []RoutedStatement
		for _, attr := range cls.AllAttrs() {
			if _, isSet := attr.Type.(*sem.Set); isSet {
				setVal, ok := obj.Get(attr.Name).(*object.Set)
				if !ok {
					continue
				}
				j := JunctionFor(cls, attr.Name)
				for _, elem := range setVal.Elems {
					eo, ok := elem.(*object.Object)
					if !ok {
						return nil, fmt.Errorf("sqlgen: %s.%s holds a non-object element", cls.Name, attr.Name)
					}
					sql, err := insertSQL(j, []string{"owner_id", "elem_id"})
					if err != nil {
						return nil, err
					}
					junctions = append(junctions, RoutedStatement{
						Statement: Statement{
							SQL: sql,
							Params: &sqldb.Params{Positional: []sqldb.Value{
								sqldb.NewInt(obj.ID), sqldb.NewInt(eo.ID),
							}},
						},
						RunID: runOf(eo, partitioned),
					})
				}
				continue
			}
			sv, err := toSQLValue(obj.Get(attr.Name))
			if err != nil {
				return nil, fmt.Errorf("sqlgen: %s.%s: %w", cls.Name, attr.Name, err)
			}
			colNames = append(colNames, ColumnFor(attr))
			vals = append(vals, sv)
		}
		sql, err := insertSQL(cls.Name, colNames)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, RoutedStatement{
			Statement: Statement{
				SQL:    sql,
				Params: &sqldb.Params{Positional: vals},
			},
			RunID: runOf(obj, partitioned),
		})
		stmts = append(stmts, junctions...)
	}
	return stmts, nil
}

// insertSQL builds a positional-parameter INSERT for the table and columns
// in the canonical dialect, validating every identifier on the way.
func insertSQL(table string, cols []string) (string, error) {
	values := make([]build.Expr, len(cols))
	for i := range cols {
		values[i] = &build.Ordinal{N: i}
	}
	r, err := build.Kojakdb.Render(&build.Insert{Table: table, Cols: cols, Values: values})
	if err != nil {
		return "", fmt.Errorf("sqlgen: %w", err)
	}
	return r.SQL, nil
}

// LoadSharded executes a store's load plan across shards: broadcast
// statements run on every shard, run-owned statements only on the shard
// shardFor assigns to their run. Each shard receives its statement stream in
// plan order, and the streams execute concurrently — on remote profiles a
// replicated load therefore costs one shard's round trips, not the sum of
// all of them. It returns the number of statements executed per shard.
// shardFor must be the same routing policy the analyzer queries with
// (godbc.ShardedDB.ShardFor), or queries will miss their data.
func LoadSharded(store *object.Store, partitioned map[string]bool, shardFor func(runID int64) int, shards ...Executor) ([]int, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("sqlgen: no shards to load")
	}
	plan, err := RoutedLoadPlan(store, partitioned)
	if err != nil {
		return nil, err
	}
	streams := make([][]RoutedStatement, len(shards))
	for _, stmt := range plan {
		if stmt.Broadcast() {
			for i := range streams {
				streams[i] = append(streams[i], stmt)
			}
			continue
		}
		i := shardFor(stmt.RunID)
		if i < 0 || i >= len(shards) {
			return nil, fmt.Errorf("sqlgen: routing run %d to shard %d of %d", stmt.RunID, i, len(shards))
		}
		streams[i] = append(streams[i], stmt)
	}
	counts := make([]int, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, stmt := range streams[i] {
				if _, err := shards[i].Exec(stmt.SQL, stmt.Params); err != nil {
					errs[i] = fmt.Errorf("sqlgen: shard %d: %s: %w", i, stmt.SQL, err)
					return
				}
				counts[i]++
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return counts, err
		}
	}
	return counts, nil
}
