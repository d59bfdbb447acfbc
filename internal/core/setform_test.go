package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/object"
	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// The set form must be invisible in the output and visible in the traffic:
// one execution per property where the per-context path pays one per context,
// the same report bytes either way — diagnostics included — and the
// per-context path under WithBatchSize(1) as its oracle.

// trafficExec wraps the embedded engine and counts every way a statement can
// reach it: batches and the bindings in them, single executions of prepared
// handles, text executions.
type trafficExec struct {
	godbc.Embedded

	mu                         sync.Mutex
	batches, bindings, perExec int
	text                       int
	onBatch                    func() // called before a batch executes
}

func (e *trafficExec) ExecQuery(sql string, p *sqldb.Params) (*sqldb.ResultSet, error) {
	return e.ExecQueryContext(context.Background(), sql, p)
}

func (e *trafficExec) ExecQueryContext(ctx context.Context, sql string, p *sqldb.Params) (*sqldb.ResultSet, error) {
	e.mu.Lock()
	e.text++
	e.mu.Unlock()
	return e.Embedded.ExecQueryContext(ctx, sql, p)
}

func (e *trafficExec) PrepareQuery(sql string) (sqlgen.PreparedQuery, error) {
	pq, err := e.Embedded.PrepareQuery(sql)
	if err != nil {
		return nil, err
	}
	return &trafficStmt{exec: e, inner: pq.(trafficInner)}, nil
}

type trafficInner interface {
	sqlgen.BatchPreparedQuery
	sqlgen.ContextPreparedQuery
	sqlgen.ContextBatchPreparedQuery
}

type trafficStmt struct {
	exec  *trafficExec
	inner trafficInner
}

func (s *trafficStmt) Close() error { return s.inner.Close() }

func (s *trafficStmt) ExecQuery(p *sqldb.Params) (*sqldb.ResultSet, error) {
	return s.ExecQueryContext(context.Background(), p)
}

func (s *trafficStmt) ExecQueryContext(ctx context.Context, p *sqldb.Params) (*sqldb.ResultSet, error) {
	s.exec.mu.Lock()
	s.exec.perExec++
	s.exec.mu.Unlock()
	return s.inner.ExecQueryContext(ctx, p)
}

func (s *trafficStmt) ExecQueryBatch(b []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return s.ExecQueryBatchContext(context.Background(), b)
}

func (s *trafficStmt) ExecQueryBatchContext(ctx context.Context, b []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	s.exec.mu.Lock()
	s.exec.batches++
	s.exec.bindings += len(b)
	hook := s.exec.onBatch
	s.exec.mu.Unlock()
	if hook != nil {
		hook()
	}
	return s.inner.ExecQueryBatchContext(ctx, b)
}

func (e *trafficExec) counts() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fmt.Sprintf("%d batches of %d bindings, %d single, %d text", e.batches, e.bindings, e.perExec, e.text)
}

// TestSetFormOneExecutionPerProperty: at the default batch size an analysis
// is one batch of one binding per property and nothing else; at batch size 1
// it is one batch of one binding per instance and nothing else; the reports
// are the same bytes — in every dialect, the positional one included.
func TestSetFormOneExecutionPerProperty(t *testing.T) {
	g := buildGraph(t, apprentice.ScaledStencil(3, 3))
	db := loadDB(t, g)
	db.SetResultCacheSize(0)
	run := lastRun(g)
	var want string
	for _, dialect := range build.Names() {
		t.Run(dialect, func(t *testing.T) {
			per := &trafficExec{Embedded: godbc.Embedded{DB: db}}
			a1 := New(g, WithSQLDialect(dialect), WithBatchSize(1), WithWorkers(1))
			rep, err := a1.AnalyzeSQL(run, per)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Diagnostics) != 0 {
				t.Fatalf("diagnostics on clean data: %+v", rep.Diagnostics)
			}
			instances := len(rep.Instances) + rep.Skipped
			if got, exp := per.counts(), fmt.Sprintf("%d batches of %d bindings, 0 single, 0 text", instances, instances); got != exp {
				t.Errorf("batch size 1: %s, want %s", got, exp)
			}
			if want == "" {
				want = rep.Render()
			}
			if rep.Render() != want {
				t.Errorf("batch size 1 report differs from the first dialect's:\n%s\nvs\n%s", rep.Render(), want)
			}

			set := &trafficExec{Embedded: godbc.Embedded{DB: db}}
			a32 := New(g, WithSQLDialect(dialect), WithBatchSize(DefaultBatchSize), WithWorkers(1))
			before := db.Stats()
			rep, err = a32.AnalyzeSQL(run, set)
			if err != nil {
				t.Fatal(err)
			}
			n := len(a32.props)
			if got, exp := set.counts(), fmt.Sprintf("%d batches of %d bindings, 0 single, 0 text", n, n); got != exp {
				t.Errorf("batch size %d: %s, want %s", DefaultBatchSize, got, exp)
			}
			if rep.Render() != want {
				t.Errorf("set-form report differs from the per-context one:\n%s\nvs\n%s", rep.Render(), want)
			}
			if fb, last := a32.Fallbacks(); fb != 0 {
				t.Errorf("%d fallbacks on clean data (last %s)", fb, last)
			}
			if after := db.Stats(); after.VecFallbacks != before.VecFallbacks {
				t.Errorf("%d SELECTs of the set forms fell back to the row interpreter: %+v",
					after.VecFallbacks-before.VecFallbacks, after.VecFallbackReasons)
			}
			if instances <= 4*n {
				t.Fatalf("%d instances for %d properties: the workload does not tell the paths apart", instances, n)
			}
		})
	}
}

// TestSetFormSelectsIndependentOfContexts: a property's set-form statement
// costs the engine as many SELECT executions over twice the contexts — its
// correlated subqueries are hash builds, one per execution, each probed once
// per context — and none of them falls back to the row interpreter. A build
// that quietly gave way to per-row execution would grow with the regions.
func TestSetFormSelectsIndependentOfContexts(t *testing.T) {
	selects := func(funcs int) (map[string]int64, int) {
		g := buildGraph(t, apprentice.ScaledStencil(funcs, 3))
		db := loadDB(t, g)
		db.SetResultCacheSize(0)
		out := make(map[string]int64)
		for _, p := range model.AllProperties {
			before := db.Stats()
			if _, err := New(g, WithProperties(p)).AnalyzeSQL(lastRun(g), godbc.Embedded{DB: db}); err != nil {
				t.Fatal(err)
			}
			after := db.Stats()
			if n := after.VecFallbacks - before.VecFallbacks; n != 0 {
				t.Errorf("%s over %d functions: %d SELECTs fell back: %+v", p, funcs, n, after.VecFallbackReasons)
			}
			out[p] = after.VecSelects - before.VecSelects
		}
		return out, db.Table("Region").NumRows()
	}
	small, n := selects(4)
	large, n2 := selects(8)
	if n2 < 2*n-1 {
		t.Fatalf("%d regions against %d: the datasets do not double", n2, n)
	}
	for _, p := range model.AllProperties {
		if small[p] != large[p] {
			t.Errorf("%s: %d SELECTs over %d regions, %d over %d", p, small[p], n, large[p], n2)
		}
	}
}

// duplicateSummary gives one region a second TotalTiming row for the run: the
// data fault that makes UNIQUE — Summary(r, t) — raise for that region.
func duplicateSummary(t *testing.T, db *sqldb.DB, region, run *object.Object) {
	t.Helper()
	const id = 1 << 40 // far above any object id the loader assigned
	for _, stmt := range []struct {
		sql  string
		vals []sqldb.Value
	}{
		{`INSERT INTO TotalTiming (id, Run_id, Excl, Incl, Ovhd) VALUES (?, ?, 1.0, 2.0, 0.5)`,
			[]sqldb.Value{sqldb.NewInt(id), sqldb.NewInt(run.ID)}},
		{`INSERT INTO Region_TotTimes (owner_id, elem_id) VALUES (?, ?)`,
			[]sqldb.Value{sqldb.NewInt(region.ID), sqldb.NewInt(id)}},
	} {
		if _, err := db.Exec(stmt.sql, &sqldb.Params{Positional: stmt.vals}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSetFormDiagnosticsMatchPerContext: a region with two summaries for the
// run fails every set statement that reads Summary(r, t). The report must
// still be the per-context one, byte for byte: that region's diagnostics, its
// neighbours' outcomes. Only the affected properties fall back, and the
// fallback counter says which.
func TestSetFormDiagnosticsMatchPerContext(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)
	victim := g.OrderedRegions[len(g.OrderedRegions)-1]
	if k, _ := victim.Get("Kind").(object.Str); string(k) == string(model.KindProgram) {
		t.Fatal("the victim is the ranking basis; every property would be affected")
	}
	name, _ := victim.Get("Name").(object.Str)
	// Summary(r, t) is read by exactly these.
	affected := []string{"SublinearSpeedup", "MeasuredCost", "UnmeasuredCost"}

	for _, dialect := range build.Names() {
		db := loadDB(t, g)
		duplicateSummary(t, db, victim, g.Runs[run])
		q := &trafficExec{Embedded: godbc.Embedded{DB: db}}

		per := New(g, WithSQLDialect(dialect), WithBatchSize(1), WithWorkers(1))
		want, err := per.AnalyzeSQL(run, godbc.Embedded{DB: db})
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Diagnostics) != len(affected) {
			t.Fatalf("per-context path diagnosed %d instances, want %d:\n%s", len(want.Diagnostics), len(affected), want.Render())
		}
		for i, d := range want.Diagnostics {
			if d.Property != affected[i] || d.Context != "region "+string(name) || !strings.Contains(d.Diagnostic, "returned 2 rows") {
				t.Errorf("diagnostic %d: %+v, want %s at region %s (2 rows)", i, d, affected[i], name)
			}
		}
		if fb, _ := per.Fallbacks(); fb != 0 {
			t.Errorf("batch size 1 counted %d set-form fallbacks", fb)
		}

		for _, workers := range []int{1, 8} {
			set := New(g, WithSQLDialect(dialect), WithBatchSize(DefaultBatchSize), WithWorkers(workers))
			got, err := set.AnalyzeSQL(run, q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Render() != want.Render() {
				t.Errorf("%s workers=%d: set-form report differs from the per-context one:\n--- per context ---\n%s--- set form ---\n%s",
					dialect, workers, want.Render(), got.Render())
			}
			fb, last := set.Fallbacks()
			if fb != int64(len(affected)) {
				t.Errorf("%s workers=%d: %d fallbacks (last %s), want %d", dialect, workers, fb, last, len(affected))
			}
			if workers == 1 && last != affected[len(affected)-1] {
				t.Errorf("%s: last fallback %s, want %s", dialect, last, affected[len(affected)-1])
			}
		}
		// Per analysis: one set execution per property, then the affected
		// properties' contexts again in batches — and never a single.
		if q.perExec != 0 || q.text != 0 {
			t.Errorf("%s: fallback left the batched path: %s", dialect, q.counts())
		}
		regions := len(g.OrderedRegions)
		chunks := (regions + DefaultBatchSize - 1) / DefaultBatchSize
		if wantBatches := 2 * (len(model.AllProperties) + len(affected)*chunks); q.batches != wantBatches {
			t.Errorf("%s: two analyses issued %s, want %d batches", dialect, q.counts(), wantBatches)
		}
	}
}

// TestSetFormIgnoresRowsOutsideThePlan: a set statement answers for every
// context the containment path reaches from the run's version — every call
// site, where the plan holds only the barrier's — and for nothing of another
// application in the same database. Rows outside the plan are skipped, not a
// reason to fall back.
func TestSetFormIgnoresRowsOutsideThePlan(t *testing.T) {
	g := buildGraph(t, apprentice.ScaledStencil(3, 3))
	other, err := apprentice.Simulate(apprentice.Stencil(), apprentice.PartitionSweep(2, 8, 32), 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.BuildInto(g.Store, other); err != nil {
		t.Fatal(err)
	}
	db := loadDB(t, g) // both applications, one database
	run := lastRun(g)
	q := godbc.Embedded{DB: db}

	const filtered = "FrequentFineGrainedCalls"
	callee, _ := g.OrderedCalls[0].Get("Callee").(object.Str)
	opts := []Option{WithCallFilter(filtered, string(callee)), WithWorkers(1)}
	ref := New(g, opts...)
	obj, err := ref.AnalyzeObject(run)
	if err != nil {
		t.Fatal(err)
	}
	per := New(g, append(opts, WithBatchSize(1))...)
	want, err := per.AnalyzeSQL(run, q)
	if err != nil {
		t.Fatal(err)
	}
	set := New(g, opts...)
	got, err := set.AnalyzeSQL(run, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Errorf("set-form report differs from the per-context one:\n--- per context ---\n%s--- set form ---\n%s", want.Render(), got.Render())
	}
	compareReports(t, obj, got)
	if fb, last := set.Fallbacks(); fb != 0 {
		t.Errorf("%d fallbacks (last %s): rows outside the plan were not ignored", fb, last)
	}
	pl, err := set.planFor(run)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pl.props {
		if p.name == filtered && (p.n == 0 || p.n >= len(g.OrderedCalls)) {
			t.Fatalf("the filter keeps %d of %d call sites: the statement returns no row outside the plan", p.n, len(g.OrderedCalls))
		}
	}
}

// TestSetFormCancelMidStatement: a cancellation that arrives while a set
// statement executes ends the analysis with the context's error and no
// report; it is fatal, so nothing is retried per context.
func TestSetFormCancelMidStatement(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q := &trafficExec{Embedded: godbc.Embedded{DB: db}}
	q.onBatch = func() {
		if q.batches == 3 {
			cancel()
		}
	}
	a := New(g, WithWorkers(1))
	rep, err := a.AnalyzeSQLCtx(ctx, lastRun(g), q)
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("report %v, err %v; want no report and context.Canceled", rep, err)
	}
	if got := q.counts(); got != "3 batches of 3 bindings, 0 single, 0 text" {
		t.Errorf("after the cancel in the third statement: %s", got)
	}
	if fb, last := a.Fallbacks(); fb != 0 {
		t.Errorf("a canceled statement was retried per context: %d fallbacks (last %s)", fb, last)
	}
}

// TestSetFormTwoShards: over a run-partitioned database of two shards the
// set statements route by their run parameter like every execution — to the
// shard owning the run, which answers from its own rows and the replicated
// structure — and the report equals the single server's.
func TestSetFormTwoShards(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)
	ref := New(g, WithBatchSize(1))
	want := renderWith(t, ref, 1, func() (*Report, error) { return ref.AnalyzeSQL(run, godbc.Embedded{DB: loadDB(t, g)}) })

	h := startShardHarness(t, g, 2)
	a := New(g)
	for _, workers := range []int{1, 8} {
		got := renderWith(t, a, workers, func() (*Report, error) { return a.AnalyzeSQL(run, h.sdb) })
		if got != want {
			t.Errorf("workers=%d: two-shard set-form report differs from the single server's:\n--- single ---\n%s--- sharded ---\n%s", workers, want, got)
		}
	}
	if fb, last := a.Fallbacks(); fb != 0 {
		t.Errorf("%d fallbacks over two shards (last %s)", fb, last)
	}
	owner := h.sdb.ShardFor(g.Runs[run].ID)
	for i, db := range h.dbs {
		st := db.Stats()
		wantExecs := int64(0)
		if i == owner {
			wantExecs = 2 * int64(len(model.AllProperties))
		}
		if st.BatchExecs != wantExecs || st.BatchBindings != wantExecs {
			t.Errorf("shard %d (owner %d): %d batches of %d bindings, want %d of one each", i, owner, st.BatchExecs, st.BatchBindings, wantExecs)
		}
	}
}
