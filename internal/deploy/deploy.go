// Package deploy is the bring-up the cosy command line and the cosyd service
// share: obtain the dataset, and put a loaded COSY database behind the
// executor analyses query — in process, behind one kojakdb server's
// connection pool, or run-partitioned across several servers.
package deploy

import (
	"fmt"
	"os"

	"repro/internal/apprentice"
	"repro/internal/asl/sqlgen"
	"repro/internal/core"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// Dataset reads the Apprentice summary file in, or, when in is empty,
// simulates the named library workload on the standard partition sweep.
func Dataset(in, workload string) (*model.Dataset, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return apprentice.ReadSummary(f)
	}
	w, ok := apprentice.Library()[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return apprentice.Simulate(w, apprentice.PartitionSweep(2, 4, 8, 16, 32), 42)
}

// Conns is the number of pooled connections (per server) that lets the given
// number of concurrent analyses run unthrottled: every evaluation worker of
// every one of them may hold a connection at once. workers is the count as
// core.WithWorkers takes it, so 0 — GOMAXPROCS workers per analysis — sizes
// for GOMAXPROCS, not for one.
func Conns(analyses, workers int) int {
	return analyses * core.Workers(workers)
}

// Open brings up the database behind an analysis of g and returns its
// executor, safe for concurrent use, and the function that releases it. No
// address is an in-process engine (a godbc.Embedded); one is a pool of conns
// connections to that kojakdb server (a *godbc.Pool); several are the shards
// of a run-partitioned database, conns connections each (a
// *godbc.ShardedDB). Unless preloaded says the servers already hold it, the
// schema is created and g's dataset loaded — run-wise across shards, so every
// run's timing rows land where its property queries will be routed.
func Open(g *model.Graph, addrs []string, conns int, preloaded bool) (core.QueryExec, func(), error) {
	var q core.QueryExec
	var closeDB func()
	var err error
	switch len(addrs) {
	case 0:
		e := godbc.Embedded{DB: sqldb.NewDB()}
		q, closeDB = e, func() {}
		err = load(g, godbc.Loader(e))
	case 1:
		var pool *godbc.Pool
		if pool, err = godbc.NewPool(addrs[0], conns); err != nil {
			return nil, nil, err
		}
		q, closeDB = pool, func() { pool.Close() }
		if !preloaded {
			err = load(g, godbc.Loader(pool))
		}
	default:
		var sdb *godbc.ShardedDB
		if sdb, err = godbc.DialSharded(addrs, conns); err != nil {
			return nil, nil, err
		}
		q, closeDB = sdb, func() { sdb.Close() }
		if !preloaded {
			err = loadSharded(g, sdb)
		}
	}
	if err != nil {
		closeDB()
		return nil, nil, err
	}
	return q, closeDB, nil
}

// load creates the schema and loads the whole dataset on one executor.
func load(g *model.Graph, exec sqlgen.Executor) error {
	if err := sqlgen.CreateSchema(g.World, exec); err != nil {
		return err
	}
	_, err := sqlgen.Load(g.Store, exec)
	return err
}

// loadSharded creates the schema on every shard and loads the dataset
// run-wise: structural data replicates, run-owned timing rows land on the
// shard the analyzer will query for them.
func loadSharded(g *model.Graph, sdb *godbc.ShardedDB) error {
	if err := sqlgen.CreateSchema(g.World, sdb.BroadcastExecutor()); err != nil {
		return err
	}
	_, err := sqlgen.LoadSharded(g.Store, model.RunPartitioned(), sdb.ShardFor, sdb.ShardExecutors()...)
	return err
}
