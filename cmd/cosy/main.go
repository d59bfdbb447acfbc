// Command cosy is the KOJAK Cost Analyzer: it ingests an Apprentice summary
// file (or simulates a library workload directly), evaluates the ASL
// performance properties for a selected test run, and prints the severity
// ranking, the performance problems, and the bottleneck.
//
// The SQL engines run against the in-process database by default; -db
// points them at one or more running kojakdb wire servers instead. A single
// address is reached through a connection pool sized to the worker count; a
// comma-separated list is treated as the shards of a run-partitioned COSY
// database — the dataset is loaded run-wise across the shards and every
// property query routes to the shard owning the analyzed run. Property
// queries are prepared once and executed in their set form — one execution
// answering for every context of the run, so one round trip per property;
// where that does not apply (a set statement that failed, -guided) the
// per-context queries run as array-bound batches of -batchsize contexts.
//
// Usage:
//
//	cosy -in particles.apr -nope 32
//	cosy -workload particles -nope 32 -engine sql
//	cosy -workload particles -nope 32 -engine sql -db 127.0.0.1:7070
//	cosy -workload particles -nope 32 -engine sql -db 127.0.0.1:7070,127.0.0.1:7071
//	cosy -workload particles -nope 32 -baseline      (Paradyn-style fixed set)
//	cosy -workload particles -nope 32 -workers 4     (parallel evaluation)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/paradyn"
	"repro/internal/sqlast/build"
)

func main() {
	in := flag.String("in", "", "Apprentice summary file (overrides -workload)")
	workload := flag.String("workload", "stencil2d", "library workload to simulate when no -in file is given")
	nope := flag.Int("nope", 0, "test run to analyze, by processor count (default: largest)")
	engine := flag.String("engine", "object", "evaluation engine: object, sql, or client")
	threshold := flag.Float64("threshold", core.DefaultThreshold, "performance-problem severity threshold")
	imbalance := flag.Float64("imbalance-threshold", 0, "override ImbalanceThreshold (0 keeps the spec value)")
	baseline := flag.Bool("baseline", false, "run the Paradyn-style fixed bottleneck baseline instead")
	guided := flag.Bool("guided", false, "use the refinement-driven search instead of exhaustive evaluation")
	workers := flag.Int("workers", 0, "property-evaluation workers; 1 is fully serial, omit for GOMAXPROCS")
	dbAddr := flag.String("db", "", "kojakdb address(es) for the sql/client engines, comma-separated for a sharded database; empty runs in process")
	preloaded := flag.Bool("preloaded", false, "assume the -db servers already hold the dataset (e.g. ingested by apprentice with the same workload, sizes, and seed); skip schema creation and loading")
	fetchSize := flag.Int("fetchsize", 0, "rows per cursor fetch on pooled connections (the JDBC row-at-a-time default is 1); omit to keep the default")
	batchSize := flag.Int("batchsize", 0, "above 1: evaluate each property by one set-form statement, and ship per-context fallbacks in batches of this many; 1 disables batching; omit for the default (32)")
	cache := flag.String("cache", "on", "result cache of the in-process database: on or off (kojakdb servers configure theirs with -cache-size)")
	sqlDialect := flag.String("sql-dialect", build.Kojakdb.Name, "SQL dialect property queries are rendered in: "+strings.Join(build.Names(), ", "))
	flag.Parse()

	validateFlags()
	shardAddrs, err := godbc.SplitAddrs(*dbAddr)
	if err != nil {
		usageError("%v", err)
	}

	ds, err := deploy.Dataset(*in, *workload)
	if err != nil {
		fatal(err)
	}
	version := ds.Versions[0]
	run := ds.Run(*nope)
	if run == nil {
		fatal(fmt.Errorf("cosy: no test run with %d PEs", *nope))
	}

	if *baseline {
		findings, err := paradyn.Analyze(version, run, paradyn.DefaultConfig())
		if err != nil {
			fatal(err)
		}
		fmt.Print(paradyn.Render(findings))
		return
	}

	g, err := model.Build(ds)
	if err != nil {
		fatal(err)
	}
	opts := []core.Option{core.WithThreshold(*threshold), core.WithWorkers(*workers), core.WithBatchSize(*batchSize)}
	if *imbalance > 0 {
		opts = append(opts, core.WithConst("ImbalanceThreshold", *imbalance))
	}
	opts = append(opts, core.WithSQLDialect(*sqlDialect))
	analyzer := core.New(g, opts...)

	switch *engine {
	case "object", "sql", "client":
	default:
		usageError("unknown engine %q", *engine)
	}
	if *guided && *engine == "client" {
		usageError("-guided supports -engine object or sql, not client")
	}
	if len(shardAddrs) > 0 && *engine == "object" {
		usageError("-db requires -engine sql or client (the object engine runs in process)")
	}
	if len(shardAddrs) > 1 && *engine == "client" {
		usageError("-engine client reads whole tables and cannot span shards; give a single -db address")
	}
	if *preloaded && len(shardAddrs) == 0 {
		usageError("-preloaded requires -db (the in-process database starts empty)")
	}
	if *cache == "off" && len(shardAddrs) > 0 {
		usageError("-cache=off only reaches the in-process database; configure the servers with kojakdb -cache-size 0")
	}
	// The dialect only changes how property queries are rendered, which only
	// the sql engine does. It composes with -db (kojakdb servers parse every
	// registered dialect); schema DDL and the dataset load always ship in the
	// canonical dialect.
	if *sqlDialect != build.Kojakdb.Name && *engine != "sql" {
		usageError("-sql-dialect only affects -engine sql (the %s engine does not render property SQL)", *engine)
	}

	// The SQL engines need a loaded database: in process by default, a
	// pooled kojakdb server, or a set of kojakdb shards loaded run-wise.
	var q core.QueryExec
	if *engine == "sql" || *engine == "client" {
		var closeDB func()
		q, closeDB, err = deploy.Open(g, shardAddrs, deploy.Conns(1, *workers), *preloaded)
		if err != nil {
			fatal(err)
		}
		defer closeDB()
		if fs, ok := q.(interface{ SetFetchSize(int) }); ok && *fetchSize > 0 {
			fs.SetFetchSize(*fetchSize)
		}
		// Only the in-process engine is cosy's to configure; -cache=off with
		// -db was refused above.
		if e, ok := q.(godbc.Embedded); ok && *cache == "off" {
			e.DB.SetResultCacheSize(0)
		}
	}

	if *guided {
		var report *core.Report
		var stats *core.SearchStats
		if *engine == "sql" {
			report, stats, err = analyzer.AnalyzeGuidedSQL(run, core.DefaultHierarchy(), q)
		} else {
			report, stats, err = analyzer.AnalyzeGuided(run, core.DefaultHierarchy())
		}
		if err != nil {
			fatal(err)
		}
		fmt.Print(report.Render())
		fmt.Printf("refinement search: evaluated %d of %d instances (%.0f%% saved)\n",
			stats.Evaluated, stats.Exhaustive, stats.Savings()*100)
		return
	}

	var report *core.Report
	switch *engine {
	case "object":
		report, err = analyzer.AnalyzeObject(run)
	case "sql":
		report, err = analyzer.AnalyzeSQL(run, q)
	case "client":
		report, err = analyzer.AnalyzeClientSide(run, q)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Print(report.Render())
}

// validateFlags rejects explicitly-set flag values that would misbehave at
// runtime (a zero worker pool, a zero batch, an empty server address) with a
// usage error. Omitted flags keep their documented defaults.
func validateFlags() {
	if flag.NArg() > 0 {
		usageError("unexpected arguments: %v", flag.Args())
	}
	set := make(map[string]flag.Value)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = f.Value })
	check := func(name string, ok func(string) bool, why string) {
		if v, explicit := set[name]; explicit && !ok(v.String()) {
			usageError("-%s %s: %s", name, v, why)
		}
	}
	atLeast1 := func(s string) bool { var n int; _, err := fmt.Sscanf(s, "%d", &n); return err == nil && n >= 1 }
	check("workers", atLeast1, "must be at least 1 (omit the flag for GOMAXPROCS)")
	check("batchsize", atLeast1, "must be at least 1 (1 disables batching; omit the flag for the default)")
	check("fetchsize", atLeast1, "must be at least 1 (omit the flag for the default)")
	check("db", func(s string) bool { return strings.TrimSpace(s) != "" }, "must name at least one kojakdb address")
	check("cache", func(s string) bool { return s == "on" || s == "off" }, "must be on or off")
	check("sql-dialect", func(s string) bool { _, ok := build.Lookup(s); return ok }, "must be one of "+strings.Join(build.Names(), ", "))
	check("nope", atLeast1, "must be at least 1 (omit the flag for the largest run)")
	nonNegative := func(s string) bool { var f float64; _, err := fmt.Sscanf(s, "%g", &f); return err == nil && f >= 0 }
	check("threshold", nonNegative, "must not be negative")
	check("imbalance-threshold", func(s string) bool { var f float64; _, err := fmt.Sscanf(s, "%g", &f); return err == nil && f > 0 }, "must be positive (omit the flag to keep the spec value)")
}

func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cosy: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run cosy -h for usage")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
