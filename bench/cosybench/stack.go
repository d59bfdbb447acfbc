package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/apprentice"
	"repro/internal/asl/sqlgen"
	"repro/internal/core"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// batchSize is the cosy/cosyd default, used on every workload.
const batchSize = 32

// warmupOps is how many ops each client runs before the measured window, so
// caches are filled, plans prepared and connections dialed. It is even: the
// tuning cycle's second op undoes its first.
const warmupOps = 2

// loaded is the dataset a child read back from its summary file.
type loaded struct {
	graph *model.Graph
	runs  []*model.TestRun

	readSummaryMS, buildMS float64
}

func loadData(path string) (*loaded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t0 := time.Now()
	ds, err := apprentice.ReadSummary(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	t1 := time.Now()
	g, err := model.Build(ds)
	if err != nil {
		return nil, err
	}
	d := &loaded{graph: g, readSummaryMS: ms(t1.Sub(t0)), buildMS: ms(time.Since(t1))}
	for _, v := range ds.Versions {
		d.runs = append(d.runs, v.Runs...)
	}
	if len(d.runs) == 0 {
		return nil, fmt.Errorf("dataset %s has no test run", path)
	}
	return d, nil
}

// newAnalyzer configures core as every workload runs it: serial evaluation,
// the default batch size.
func newAnalyzer(d *loaded) *core.Analyzer {
	return core.New(d.graph, core.WithWorkers(1), core.WithBatchSize(batchSize))
}

func (d *loaded) lastRun() *model.TestRun { return d.runs[len(d.runs)-1] }

// coldRuns are the runs cold_embedded cycles through: the last four.
func (d *loaded) coldRuns() []*model.TestRun { return d.runs[max(0, len(d.runs)-4):] }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func embeddedLoader(db *sqldb.DB) sqlgen.ExecutorFunc {
	return func(q string, p *sqldb.Params) (int, error) {
		res, err := db.Exec(q, p)
		if err != nil {
			return 0, err
		}
		return res.Affected, nil
	}
}

// newLoadedDB creates the COSY schema in a fresh engine and loads the
// dataset through the embedded INSERT path, one statement per record.
func newLoadedDB(g *model.Graph, cacheOn bool) (db *sqldb.DB, stmts int, err error) {
	db = sqldb.NewDB()
	if !cacheOn {
		db.SetResultCacheSize(0)
	}
	if err := sqlgen.CreateSchema(g.World, embeddedLoader(db)); err != nil {
		return nil, 0, err
	}
	stmts, err = sqlgen.Load(g.Store, embeddedLoader(db))
	return db, stmts, err
}

// outcome is what one op returned, handed to the workload's check after the
// op's clock has stopped.
type outcome struct {
	rep  *core.Report
	text string
	run  *model.TestRun
	// doubled marks a tuning-cycle report taken while the run's typed
	// timings are scaled by 2.
	doubled bool
}

// stack is one loaded database and whatever the workload puts in front of
// it, plus the workload's op and check.
type stack struct {
	spec workloadSpec
	data *loaded
	tr   *tracer

	db        *sqldb.DB
	loadMS    float64
	loadStmts int
	wsrv      *wire.Server
	pool      *godbc.Pool
	svc       *service.Service
	ssrv      *service.Server
	clients   []*service.Client
	// q is the executor core (or the service) runs its queries on: the
	// embedded engine or the pool, behind timedExec on a traced pass.
	q        core.QueryExec
	analyzer *core.Analyzer

	// statsFetches counts serverStats calls.
	statsFetches int64

	// inserts are the tuning cycle's re-ingested CallTiming rows; seq counts
	// its ops so the UPDATE factor alternates.
	inserts []sqlgen.Statement
	seq     atomic.Int64

	// refs are the ASL interpreter's reports per run — the reference every
	// SQL report is checked against; refText is the service workload's.
	refs       map[*model.TestRun]*core.Report
	refText    string
	doubledRef *core.Report
}

// newStack builds the workload's deployment over the dataset and runs the
// warm-up ops. tr is nil on an untraced pass.
func newStack(spec workloadSpec, data *loaded, tr *tracer) (s *stack, err error) {
	s = &stack{spec: spec, data: data, tr: tr}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	t0 := time.Now()
	if s.db, s.loadStmts, err = newLoadedDB(data.graph, spec.CacheOn); err != nil {
		return s, err
	}
	s.loadMS = ms(time.Since(t0))
	s.q = godbc.Embedded{DB: s.db}
	if spec.Wire {
		profile := wire.ProfileFast
		if spec.Remote {
			profile = wire.ProfileOracleRemote
		}
		if s.wsrv, err = wire.NewServer(s.db, profile, nil); err != nil {
			return s, err
		}
		if err = s.wsrv.Listen("127.0.0.1:0"); err != nil {
			return s, err
		}
		if s.pool, err = godbc.NewPool(s.wsrv.Addr(), spec.Clients); err != nil {
			return s, err
		}
		s.q = s.pool
	}
	if tr != nil {
		if s.q, err = newTimedExec(tr, s.q); err != nil {
			return s, err
		}
	}
	s.analyzer = newAnalyzer(data)
	if spec.Service {
		s.svc = service.New(data.graph, s.q, service.Config{Capacity: spec.Clients, Workers: 1, BatchSize: batchSize})
		s.ssrv = service.NewServer(s.svc, nil)
		if err = s.ssrv.Listen("127.0.0.1:0"); err != nil {
			return s, err
		}
		for range spec.Clients {
			c, err := service.Dial(s.ssrv.Addr())
			if err != nil {
				return s, err
			}
			s.clients = append(s.clients, c)
		}
	}
	if spec.Name == "tuning_cycle_dml" {
		if err = s.planInserts(); err != nil {
			return s, err
		}
	}
	for i := 0; i < warmupOps; i++ {
		if err = s.eachClient(func(c int) error {
			_, err := s.op(c, i)
			return err
		}); err != nil {
			return s, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// eachClient runs fn once per client, concurrently as the clients will run.
func (s *stack) eachClient(fn func(client int) error) error {
	errs := make(chan error, s.spec.Clients)
	for c := 0; c < s.spec.Clients; c++ {
		go func() { errs <- fn(c) }()
	}
	var first error
	for c := 0; c < s.spec.Clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.ssrv != nil {
		s.ssrv.Close()
	}
	if s.pool != nil {
		s.pool.Close()
	}
	if s.wsrv != nil {
		s.wsrv.Close()
	}
}

// planInserts picks, out of the routed load plan, the INSERTs of the last
// run's CallTiming rows — the statements the tuning cycle re-ingests after
// deleting them, exactly as the loader emits them.
func (s *stack) planInserts() error {
	plan, err := sqlgen.RoutedLoadPlan(s.data.graph.Store, model.RunPartitioned())
	if err != nil {
		return err
	}
	runID := s.data.graph.Runs[s.data.lastRun()].ID
	for _, st := range plan {
		if st.RunID == runID && strings.HasPrefix(st.SQL, "INSERT INTO CallTiming ") {
			s.inserts = append(s.inserts, st.Statement)
		}
	}
	if len(s.inserts) == 0 {
		return fmt.Errorf("load plan has no CallTiming rows for run %d", runID)
	}
	return nil
}

const (
	scaleTypedTiming = `UPDATE TypedTiming SET Time = Time * $f WHERE Run_id = $r`
	dropCallTiming   = `DELETE FROM CallTiming WHERE Run_id = $r`
)

// op runs the i-th op of a client: the call whose latency the benchmark
// reports. Its clock is the caller's; nothing here checks the result.
func (s *stack) op(client, i int) (outcome, error) {
	switch s.spec.Name {
	case "cold_embedded":
		runs := s.data.coldRuns()
		return s.analyze(runs[i%len(runs)])
	case "warm_wire":
		return s.analyze(s.data.lastRun())
	case "tuning_cycle_dml":
		return s.tuningCycle()
	case "service_remote":
		text, err := s.clients[client].Analyze(context.Background(), fmt.Sprintf("tenant-%d", client), 0)
		return outcome{text: text}, err
	}
	return outcome{}, fmt.Errorf("no op for workload %s", s.spec.Name)
}

func (s *stack) analyze(run *model.TestRun) (outcome, error) {
	s.tr.push(spanAnalyze)
	rep, err := s.analyzer.AnalyzeSQL(run, s.q)
	s.tr.pop()
	return outcome{rep: rep, run: run}, err
}

// tuningCycle is one turn of the analyst's loop: correct the typed timings
// of the last run (factors alternate 2 and 0.5, exact in floating point, so
// every second op restores the data), drop and re-ingest its call timings,
// then analyze it.
func (s *stack) tuningCycle() (outcome, error) {
	run := s.data.lastRun()
	runID := sqldb.NewInt(s.data.graph.Runs[run].ID)
	n := s.seq.Add(1)
	factor := 2.0
	if n%2 == 0 {
		factor = 0.5
	}
	upd := &sqldb.Params{Named: map[string]sqldb.Value{"f": sqldb.NewFloat(factor), "r": runID}}
	if err := s.exec(spanUpdate, scaleTypedTiming, upd); err != nil {
		return outcome{}, err
	}
	del := &sqldb.Params{Named: map[string]sqldb.Value{"r": runID}}
	if err := s.exec(spanDelete, dropCallTiming, del); err != nil {
		return outcome{}, err
	}
	for _, st := range s.inserts {
		if err := s.exec(spanInsert, st.SQL, st.Params); err != nil {
			return outcome{}, err
		}
	}
	out, err := s.analyze(run)
	out.doubled = n%2 == 1
	return out, err
}

// exec issues one DML statement through the pool's text protocol.
func (s *stack) exec(name, sql string, params *sqldb.Params) error {
	if s.tr == nil {
		// Untraced, the op must not pay for the span's bookkeeping.
		_, err := s.pool.Exec(sql, params)
		return err
	}
	t0 := time.Now()
	res, err := s.pool.Exec(sql, params)
	s.tr.leaf(name, t0, time.Now(), sql, []*sqldb.Params{params}, nil, res.Affected)
	return err
}

// prepareChecks computes what reports are checked against: per run, the
// report of core.AnalyzeObject — the ASL interpreter over the in-memory
// graph, which shares nothing with sqlgen, godbc, wire or sqldb.
func (s *stack) prepareChecks() error {
	s.refs = make(map[*model.TestRun]*core.Report)
	runs := []*model.TestRun{s.data.lastRun()}
	if s.spec.Name == "cold_embedded" {
		runs = s.data.coldRuns()
	}
	for _, run := range runs {
		ref, err := s.analyzer.AnalyzeObject(run)
		if err != nil {
			return fmt.Errorf("reference analysis: %w", err)
		}
		s.refs[run] = ref
	}
	if s.spec.Service {
		// The service answers with rendered text, so its reference is the
		// text of a direct SQL analysis that itself matches the interpreter.
		run := s.data.lastRun()
		rep, err := s.analyzer.AnalyzeSQL(run, godbc.Embedded{DB: s.db})
		if err != nil {
			return fmt.Errorf("reference SQL analysis: %w", err)
		}
		if err := sameFindings(s.refs[run], rep); err != nil {
			return fmt.Errorf("reference SQL analysis: %w", err)
		}
		s.refText = rep.Render()
	}
	return nil
}

// check decides whether an op's result was correct. It runs after the op's
// clock has stopped. Clients may check concurrently: only the tuning cycle,
// which has one client, writes state here (doubledRef).
func (s *stack) check(out outcome) error {
	switch {
	case s.spec.Service:
		if out.text != s.refText {
			return fmt.Errorf("service report differs from the direct analysis")
		}
		return nil
	case out.doubled:
		// A stale cache would serve the restored state's report here.
		if sameFindings(s.refs[out.run], out.rep) == nil {
			return fmt.Errorf("report over doubled timings equals the reference: stale result")
		}
		if s.doubledRef == nil {
			s.doubledRef = out.rep
			return nil
		}
		return sameFindings(s.doubledRef, out.rep)
	default:
		return sameFindings(s.refs[out.run], out.rep)
	}
}

// sameFindings requires two reports to agree on which property instances
// hold and how severe each is (to 1e-9), on how many were skipped and on how
// many could not be evaluated. The engine label is ignored.
func sameFindings(want, got *core.Report) error {
	if want == nil || got == nil {
		return fmt.Errorf("missing report")
	}
	if len(want.Instances) != len(got.Instances) || want.Skipped != got.Skipped || len(want.Diagnostics) != len(got.Diagnostics) {
		return fmt.Errorf("report shape differs: %d/%d/%d instances/skipped/diagnostics, want %d/%d/%d",
			len(got.Instances), got.Skipped, len(got.Diagnostics),
			len(want.Instances), want.Skipped, len(want.Diagnostics))
	}
	type key struct{ prop, ctx string }
	sev := make(map[key]float64, len(want.Instances))
	for _, in := range want.Instances {
		sev[key{in.Property, in.Context}] = in.Severity
	}
	for _, in := range got.Instances {
		w, ok := sev[key{in.Property, in.Context}]
		if !ok {
			return fmt.Errorf("%s at %s holds, the reference says it does not", in.Property, in.Context)
		}
		if diff := math.Abs(w - in.Severity); diff > 1e-9*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("%s at %s: severity %.12g, want %.12g", in.Property, in.Context, in.Severity, w)
		}
	}
	return nil
}
