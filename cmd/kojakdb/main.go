// Command kojakdb runs a standalone COSY database server speaking the wire
// protocol, with a selectable vendor performance profile. It optionally
// pre-creates the COSY schema so clients can start inserting immediately.
//
// A kojakdb instance can serve as one shard of a run-partitioned COSY
// database: sharding is entirely client-side (cosy/apprentice route by run
// id), so a shard is an ordinary server that merely knows its place in the
// topology. -shard-id/-shards record that identity in the banner so
// operators can tell N otherwise-identical servers apart; -max-concurrent
// bounds how many statements the instance executes simultaneously, the
// saturation model the sharding benchmarks are measured against.
//
// Usage:
//
//	kojakdb -addr 127.0.0.1:7070 -profile oracle7 -schema
//	kojakdb -addr 127.0.0.1:7071 -shard-id 1 -shards 4 -schema
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/asl/sqlgen"
	"repro/internal/model"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	profileName := flag.String("profile", "fast", "vendor profile: fast, access, oracle7, mssql, postgres, oracle-remote")
	schema := flag.Bool("schema", false, "pre-create the COSY schema")
	verbose := flag.Bool("v", false, "log connection errors")
	drain := flag.Duration("drain", 5*time.Second, "how long a SIGINT/SIGTERM shutdown waits for connected clients to drain before force-closing them")
	shardID := flag.Int("shard-id", 0, "this instance's shard index in a sharded deployment (0-based)")
	shards := flag.Int("shards", 1, "total shard count of the deployment this instance belongs to")
	maxConcurrent := flag.Int("max-concurrent", 0, "statements executed simultaneously; 0 means unbounded")
	cacheSize := flag.Int("cache-size", sqldb.DefaultResultCacheSize, "result-cache capacity in cached SELECT results; 0 disables the cache")
	flag.Parse()

	switch {
	case flag.NArg() > 0:
		usageError("unexpected arguments: %v", flag.Args())
	case *addr == "":
		usageError("-addr must not be empty")
	case *shards < 1:
		usageError("-shards must be at least 1, got %d", *shards)
	case *shardID < 0 || *shardID >= *shards:
		usageError("-shard-id %d outside the shard range [0,%d)", *shardID, *shards)
	case *maxConcurrent < 0:
		usageError("-max-concurrent must not be negative, got %d", *maxConcurrent)
	case *cacheSize < 0:
		usageError("-cache-size must not be negative, got %d (0 disables the cache)", *cacheSize)
	case *drain < 0:
		usageError("-drain must not be negative, got %v", *drain)
	}

	profile, ok := wire.ByName(*profileName)
	if !ok {
		usageError("unknown profile %q", *profileName)
	}

	db := sqldb.NewDB()
	db.SetResultCacheSize(*cacheSize)
	if *schema {
		world := model.MustCompileSpec()
		exec := sqlgen.ExecutorFunc(func(q string, p *sqldb.Params) (int, error) {
			res, err := db.Exec(q, p)
			if err != nil {
				return 0, err
			}
			return res.Affected, nil
		})
		if err := sqlgen.CreateSchema(world, exec); err != nil {
			log.Fatal(err)
		}
	}

	var logger *log.Logger
	if *verbose {
		logger = log.New(os.Stderr, "kojakdb: ", log.LstdFlags)
	}
	srv, err := wire.NewServer(db, profile, logger)
	if err != nil {
		log.Fatal(err)
	}
	srv.SetMaxConcurrent(*maxConcurrent)
	if err := srv.Listen(*addr); err != nil {
		log.Fatal(err)
	}
	identity := ""
	if *shards > 1 {
		identity = fmt.Sprintf(", shard %d/%d", *shardID, *shards)
	}
	fmt.Printf("kojakdb: serving on %s (profile %s, schema=%v%s)\n", srv.Addr(), profile, *schema, identity)

	// Graceful shutdown on SIGINT and SIGTERM: stop accepting, give the
	// connected clients up to -drain to finish their in-flight requests and
	// disconnect, then force-close whatever lingers and report the session's
	// statement statistics. A second signal skips the drain.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("kojakdb: %v received, draining connections (up to %v; signal again to force)\n", got, *drain)
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(*drain) }()
	select {
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
	case got = <-sig:
		fmt.Printf("kojakdb: %v received again, closing now\n", got)
		if err := srv.Close(); err != nil {
			log.Fatal(err)
		}
		<-done
	}
	st := db.Stats()
	fmt.Printf("kojakdb: plan cache: %d hits, %d misses, %d evictions (%d cached plans)\n",
		st.PlanCacheHits, st.PlanCacheMisses, st.PlanCacheEvictions, st.PlanCacheEntries)
	fmt.Printf("kojakdb: prepared statements: %d live handles, %d replans after DDL\n",
		st.PreparedLive, st.Replans)
	fmt.Printf("kojakdb: batched execution: %d batches carrying %d bindings\n",
		st.BatchExecs, st.BatchBindings)
	fmt.Printf("kojakdb: result cache: %d hits, %d misses, %d invalidations, %d evictions (%d cached results)\n",
		st.ResultCacheHits, st.ResultCacheMisses, st.ResultCacheInvalidations, st.ResultCacheEvictions, st.ResultCacheEntries)
	fmt.Printf("kojakdb: select execution: %d vectorized selects, %d row-interpreter fallbacks, %d build rows, %d shared builds\n",
		st.VecSelects, st.VecFallbacks, st.BuildRows, st.SharedBuilds)
	if st.VecFallbacks > 0 {
		r := st.VecFallbackReasons
		fmt.Printf("kojakdb: fallback reasons: %d star, %d order-by-expr, %d subquery, %d other\n",
			r.Star, r.OrderExpr, r.Subquery, r.Other)
	}
}

// usageError reports a bad flag value and exits with the conventional usage
// status.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "kojakdb: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run kojakdb -h for usage")
	os.Exit(2)
}
