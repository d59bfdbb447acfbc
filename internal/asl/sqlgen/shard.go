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

// RoutedStatement is one statement of a sharded load plan: the statement
// itself, the table it inserts into, and the object id of the test run that
// owns its rows. RunID 0 marks a statement with no owning run — structural
// data that must be replicated to every shard.
type RoutedStatement struct {
	Statement
	Table string
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

// maxInsertRows is the most rows one load-plan INSERT carries. It is the
// wire protocol's batch limit (wire.MaxBatch; a test holds the two equal):
// one request carries at most that many rows, whether as the bindings of a
// prepared batch or as the rows of one VALUES list.
const maxInsertRows = 256

// RoutedLoadPlan is the load-plan emission walk. It walks the store in
// allocation order and gives each object one row in its class's table and
// each set membership one row in the attribute's junction table. Every row is
// tagged with the object id of its owning run: an object whose class is in
// the partitioned set (and every junction row whose element is such an
// object) belongs to its run, and every other row has run 0, for broadcast.
// A nil partitioned set tags everything broadcast; that is LoadPlan. Which
// classes are safely partitionable is a property of the ASL specification,
// not of the store; for the canonical COSY spec it is model.RunPartitioned.
//
// The rows of one (table, run) group become multi-row INSERTs of at most
// maxInsertRows rows each, in allocation order, and the groups come out in
// the order of their first rows. So every statement holds one table and one
// run, and a table's rows of one run keep their walk order; with a nil set
// that is each table's whole walk order.
func RoutedLoadPlan(store *object.Store, partitioned map[string]bool) ([]RoutedStatement, error) {
	type groupKey struct {
		table string
		run   int64
	}
	// A group's rows are flattened into vals, len(cols) values per row.
	type group struct {
		groupKey
		cols []string
		vals []sqldb.Value
	}
	groups := make(map[groupKey]*group)
	var order []*group
	groupFor := func(table string, run int64, cols []string) *group {
		k := groupKey{table, run}
		g := groups[k]
		if g == nil {
			g = &group{groupKey: k, cols: cols}
			groups[k] = g
			order = append(order, g)
		}
		return g
	}
	classCols := make(map[*sem.Class][]string)
	junctionCols := []string{"owner_id", "elem_id"}
	for _, obj := range store.All() {
		cls := obj.Class
		attrs := cls.AllAttrs()
		cols, ok := classCols[cls]
		if !ok {
			cols = []string{"id"}
			for _, attr := range attrs {
				if _, isSet := attr.Type.(*sem.Set); !isSet {
					cols = append(cols, ColumnFor(attr))
				}
			}
			classCols[cls] = cols
		}
		g := groupFor(cls.Name, runOf(obj, partitioned), cols)
		g.vals = append(g.vals, sqldb.NewInt(obj.ID))
		for _, attr := range attrs {
			if _, isSet := attr.Type.(*sem.Set); !isSet {
				sv, err := toSQLValue(obj.Get(attr.Name))
				if err != nil {
					return nil, fmt.Errorf("sqlgen: %s.%s: %w", cls.Name, attr.Name, err)
				}
				g.vals = append(g.vals, sv)
				continue
			}
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
				jg := groupFor(j, runOf(eo, partitioned), junctionCols)
				jg.vals = append(jg.vals, sqldb.NewInt(obj.ID), sqldb.NewInt(eo.ID))
			}
		}
	}
	// Full statements of a table share one text.
	type shape struct {
		table string
		rows  int
	}
	texts := make(map[shape]string)
	var stmts []RoutedStatement
	for _, g := range order {
		chunk := maxInsertRows * len(g.cols)
		for lo := 0; lo < len(g.vals); lo += chunk {
			hi := min(lo+chunk, len(g.vals))
			sh := shape{g.table, (hi - lo) / len(g.cols)}
			sql, ok := texts[sh]
			if !ok {
				var err error
				if sql, err = insertSQL(g.table, g.cols, sh.rows); err != nil {
					return nil, err
				}
				texts[sh] = sql
			}
			stmts = append(stmts, RoutedStatement{
				Statement: Statement{
					SQL:    sql,
					Params: &sqldb.Params{Positional: g.vals[lo:hi:hi]},
				},
				Table: g.table,
				RunID: g.run,
			})
		}
	}
	return stmts, nil
}

// insertSQL builds a positional-parameter INSERT of rows rows for the table
// and columns in the canonical dialect, validating every identifier on the
// way.
func insertSQL(table string, cols []string, rows int) (string, error) {
	values := make([][]sqldb.Expr, rows)
	for r := range values {
		values[r] = make([]sqldb.Expr, len(cols))
		for i := range cols {
			values[r][i] = &sqldb.EParam{Ordinal: r*len(cols) + i}
		}
	}
	rendered, err := build.Kojakdb.Render(&sqldb.InsertStmt{Table: table, Cols: cols, Rows: values})
	if err != nil {
		return "", fmt.Errorf("sqlgen: %w", err)
	}
	return rendered.SQL, nil
}

// LoadSharded executes a store's load plan across shards: broadcast
// statements run on every shard, run-owned statements only on the shard
// shardFor assigns to their run. Each shard receives its statement stream in
// plan order, so a shard's table holds its rows grouped by run, each run's in
// walk order (RoutedLoadPlan). The streams execute concurrently — on remote
// profiles a replicated load therefore costs one shard's round trips, not the
// sum of all of them. It returns the number of statements executed per shard.
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
					errs[i] = fmt.Errorf("sqlgen: shard %d: loading %s: %w", i, stmt.Table, err)
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
