package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/parser"
	"repro/internal/asl/sem"
	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// The SQL engines ask an executor for one thing, prepared statements, and a
// prepared handle for one call, ExecQueryBatchContext. Option errors are the
// engines' common ground too: what one refuses, all refuse.

// batchOnlyExec is the smallest executor the SQL engines accept: it prepares
// statements on the embedded engine and does nothing else. Its handles answer
// ExecQueryBatchContext and Close; any other execution fails the test.
type batchOnlyExec struct {
	t  *testing.T
	db godbc.Embedded
}

func (e batchOnlyExec) ExecQuery(string, *sqldb.Params) (*sqldb.ResultSet, error) {
	e.t.Fatal("the analyzer shipped query text")
	return nil, nil
}

func (e batchOnlyExec) PrepareQuery(sql string) (sqlgen.PreparedQuery, error) {
	pq, err := e.db.PrepareQuery(sql)
	if err != nil {
		return nil, err
	}
	return batchOnlyStmt{t: e.t, inner: pq.(trafficInner)}, nil
}

type batchOnlyStmt struct {
	t     *testing.T
	inner trafficInner
}

func (s batchOnlyStmt) ExecQuery(*sqldb.Params) (*sqldb.ResultSet, error) {
	s.t.Fatal("the analyzer executed a handle once")
	return nil, nil
}

func (s batchOnlyStmt) ExecQueryBatch([]*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	s.t.Fatal("the analyzer executed a batch without its context")
	return nil, nil
}

func (s batchOnlyStmt) ExecQueryBatchContext(ctx context.Context, b []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return s.inner.ExecQueryBatchContext(ctx, b)
}

func (s batchOnlyStmt) Close() error { return s.inner.Close() }

// textOnlyExec executes query text and cannot prepare.
type textOnlyExec struct{ q QueryExec }

func (e textOnlyExec) ExecQuery(sql string, p *sqldb.Params) (*sqldb.ResultSet, error) {
	return e.q.ExecQuery(sql, p)
}

// TestAnalyzerUsesOnlyTheBatchContract: through the batch call alone, the SQL
// engines render what they render over godbc.Embedded — per instance and by
// the set form, in a positional and a named dialect, on the set form's
// per-context fallback and in guided search — and an executor that cannot
// prepare is refused by name.
func TestAnalyzerUsesOnlyTheBatchContract(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)
	same := func(what string, want, got *Report, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got.Render() != want.Render() {
			t.Errorf("%s: report through the batch contract differs from godbc.Embedded's:\n--- embedded ---\n%s--- batch only ---\n%s",
				what, want.Render(), got.Render())
		}
	}

	emb := godbc.Embedded{DB: loadDB(t, g)}
	only := batchOnlyExec{t: t, db: emb}
	for _, dialect := range []string{"ansi", "oracle7"} {
		for _, batch := range []int{1, DefaultBatchSize} {
			a := New(g, WithSQLDialect(dialect), WithBatchSize(batch), WithWorkers(1))
			want, err := a.AnalyzeSQL(run, emb)
			if err != nil {
				t.Fatal(err)
			}
			got, err := a.AnalyzeSQL(run, only)
			same(fmt.Sprintf("%s batch %d", dialect, batch), want, got, err)
		}
	}

	dup := godbc.Embedded{DB: loadDB(t, g)}
	duplicateSummary(t, dup.DB, g.OrderedRegions[len(g.OrderedRegions)-1], g.Runs[run])
	a := New(g, WithWorkers(1))
	want, err := a.AnalyzeSQL(run, dup)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.AnalyzeSQL(run, batchOnlyExec{t: t, db: dup})
	same("set-form fallback", want, got, err)
	if n, _ := a.Fallbacks(); n == 0 {
		t.Error("the duplicated summary caused no set-form fallback")
	}

	want, _, err = a.AnalyzeGuidedSQL(run, DefaultHierarchy(), emb)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = a.AnalyzeGuidedSQL(run, DefaultHierarchy(), only)
	same("guided", want, got, err)

	text := textOnlyExec{q: emb}
	for name, analyze := range map[string]func() error{
		"sql":        func() error { _, err := a.AnalyzeSQL(run, text); return err },
		"sql ctx":    func() error { _, err := a.AnalyzeSQLCtx(context.Background(), run, text); return err },
		"guided-sql": func() error { _, _, err := a.AnalyzeGuidedSQL(run, DefaultHierarchy(), text); return err },
	} {
		if err := analyze(); err == nil || err.Error() != "core: executor core.textOnlyExec cannot prepare statements" {
			t.Errorf("%s over an executor that cannot prepare: %v", name, err)
		}
	}
}

// TestUnknownConstIsAnErrorOnEveryEngine: an override of a constant the
// specification does not declare is refused by every engine, in the same
// words, before any evaluation.
func TestUnknownConstIsAnErrorOnEveryEngine(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	run := lastRun(g)
	q := godbc.Embedded{DB: loadDB(t, g)}
	a := New(g, WithConst("NoSuchConst", 1))
	for _, e := range []struct {
		name    string
		analyze func() (*Report, error)
	}{
		{"object", func() (*Report, error) { return a.AnalyzeObject(run) }},
		{"sql", func() (*Report, error) { return a.AnalyzeSQL(run, q) }},
		{"client", func() (*Report, error) { return a.AnalyzeClientSide(run, q) }},
		{"guided", func() (*Report, error) { rep, _, err := a.AnalyzeGuided(run, DefaultHierarchy()); return rep, err }},
		{"guided-sql", func() (*Report, error) {
			rep, _, err := a.AnalyzeGuidedSQL(run, DefaultHierarchy(), q)
			return rep, err
		}},
	} {
		rep, err := e.analyze()
		if rep != nil || err == nil || err.Error() != "core: unknown constant NoSuchConst" {
			t.Errorf("%s: report %v, err %v; want no report and the unknown constant named", e.name, rep != nil, err)
		}
	}
}

// TestMisshapenSignatureIsAnErrorOnEveryEngine: every engine binds a
// property's parameters by position — context, run, ranking basis — so a user
// property declaring another shape is refused by each of them, in the same
// words naming it, before any evaluation: not analyzed into diagnostics that
// differ by engine.
func TestMisshapenSignatureIsAnErrorOnEveryEngine(t *testing.T) {
	for _, c := range []struct{ decl, params string }{
		{"Swapped(Region r, Region Basis, TestRun t)", "(Region r, Region Basis, TestRun t)"},
		{"Unbased(Region r, TestRun t)", "(Region r, TestRun t)"},
	} {
		spec, err := parser.Parse(model.SpecSource + "\nproperty " + c.decl + ` {
  CONDITION: Duration(r, t) > 0;
  CONFIDENCE: 1;
  SEVERITY: Duration(r, t);
}
`)
		if err != nil {
			t.Fatal(err)
		}
		world, err := sem.Check(spec)
		if err != nil {
			t.Fatal(err)
		}
		g := buildGraph(t, apprentice.Particles())
		g.World = world
		run := lastRun(g)
		q := godbc.Embedded{DB: loadDB(t, g)}
		name, _, _ := strings.Cut(c.decl, "(")
		a := New(g, WithProperties(append(slices.Clone(model.AllProperties), name)...))
		want := "core: property " + name + ": parameters " + c.params + ", want (Region or FunctionCall context, TestRun run, Region basis)"
		for _, e := range []struct {
			engine  string
			analyze func() (*Report, error)
		}{
			{"object", func() (*Report, error) { return a.AnalyzeObject(run) }},
			{"client", func() (*Report, error) { return a.AnalyzeClientSide(run, q) }},
			{"sql", func() (*Report, error) { return a.AnalyzeSQL(run, q) }},
			{"guided", func() (*Report, error) { rep, _, err := a.AnalyzeGuided(run, DefaultHierarchy()); return rep, err }},
			{"guided-sql", func() (*Report, error) {
				rep, _, err := a.AnalyzeGuidedSQL(run, DefaultHierarchy(), q)
				return rep, err
			}},
		} {
			rep, err := e.analyze()
			if rep != nil || err == nil || err.Error() != want {
				t.Errorf("%s, %s: report %v, err %v; want no report and %q", name, e.engine, rep != nil, err, want)
			}
		}
	}
}

// TestSetFormCompileErrorFailsAnalysis: a set form that does not compile is
// its property's error, as the per-context form's is — not a per-context
// evaluation that neither the report nor Analyzer.Fallbacks shows. Here the
// Region contexts' containment path names a step the model lacks.
func TestSetFormCompileErrorFailsAnalysis(t *testing.T) {
	saved := contextPaths["Region"]
	contextPaths["Region"] = sqlgen.ContextPath{Root: saved.Root, Runs: saved.Runs, Steps: []string{"NoSuchStep"}}
	defer func() { contextPaths["Region"] = saved }()
	g := buildGraph(t, apprentice.Particles())
	a := New(g, WithProperties("MeasuredCost"))
	rep, err := a.AnalyzeSQL(lastRun(g), godbc.Embedded{DB: loadDB(t, g)})
	if rep != nil || err == nil || !strings.Contains(err.Error(), "core: compiling the set form of MeasuredCost") {
		t.Fatalf("report %v, err %v; want no report and the set form's compile error", rep != nil, err)
	}
	if n, _ := a.Fallbacks(); n != 0 {
		t.Errorf("%d set fallbacks, want 0", n)
	}
}

// TestDroppedTableDiagnosesOnlyItsProperty: a statement the engine will not
// prepare — here, over a dropped table — diagnoses its property's contexts and
// nothing else, on every executor; per instance and by the set form the
// report is the same bytes.
func TestDroppedTableDiagnosesOnlyItsProperty(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	run := lastRun(g)
	// CallTiming is read by LoadImbalance and FrequentFineGrainedCalls only:
	// without the latter, it is one property's table.
	const victim, table = "LoadImbalance", "CallTiming"
	props := slices.DeleteFunc(slices.Clone(model.AllProperties), func(p string) bool { return p == "FrequentFineGrainedCalls" })
	drop := func(db *sqldb.DB) {
		if _, err := db.Exec("DROP TABLE "+table, nil); err != nil {
			t.Fatal(err)
		}
	}

	db := loadDB(t, g)
	drop(db)
	srv, err := wire.NewServer(db, wire.ProfileFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool, err := godbc.NewPool(srv.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	h := startShardHarness(t, g, 2)
	for _, sdb := range h.dbs {
		drop(sdb)
	}

	for _, e := range []struct {
		name string
		q    QueryExec
	}{{"embedded", godbc.Embedded{DB: db}}, {"pool", pool}, {"two shards", h.sdb}} {
		var want string
		for _, batch := range []int{1, DefaultBatchSize} {
			a := New(g, WithProperties(props...), WithBatchSize(batch))
			rep, err := a.AnalyzeSQL(run, e.q)
			if err != nil {
				t.Fatalf("%s batch %d: %v", e.name, batch, err)
			}
			pl, err := a.planFor(run)
			if err != nil {
				t.Fatal(err)
			}
			n := pl.props[slices.Index(props, victim)].n
			if n == 0 || len(rep.Diagnostics) != n {
				t.Errorf("%s batch %d: %d diagnostics for %d %s contexts:\n%s", e.name, batch, len(rep.Diagnostics), n, victim, rep.Render())
			}
			for _, d := range rep.Diagnostics {
				if d.Property != victim || !strings.Contains(d.Diagnostic, table) {
					t.Errorf("%s batch %d: diagnostic %+v, want %s naming %s", e.name, batch, d, victim, table)
				}
			}
			if want == "" {
				want = rep.Render()
			} else if rep.Render() != want {
				t.Errorf("%s: set-form report differs from the per-instance one:\n--- batch 1 ---\n%s--- batch %d ---\n%s", e.name, want, batch, rep.Render())
			}
		}
	}
}
