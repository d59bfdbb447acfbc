package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/godbc"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// The evaluation plan (plan.go) is built once per run and shared by every
// later analysis of it, concurrent ones included. These tests hold it to
// that: the reports of a long-lived analyzer are those of a fresh one, the
// shared set bindings are never written after the plan is published (the race
// detector watches the positional fill, which fills copies), a second analysis
// allocates per request and not per instance, and the client-side engine
// reads the same plan as every other engine.

func TestPlanReusedAcrossAnalyses(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	q := godbc.Embedded{DB: db}
	runs := g.Dataset.Versions[0].Runs
	two := []*model.TestRun{runs[0], runs[len(runs)-1]}

	for _, dialect := range []string{"kojakdb", "oracle7", "ansi"} {
		t.Run(dialect, func(t *testing.T) {
			want := make(map[*model.TestRun]string)
			for _, run := range two {
				rep, err := New(g, WithSQLDialect(dialect)).AnalyzeSQL(run, q)
				if err != nil {
					t.Fatal(err)
				}
				want[run] = rep.Render()
			}

			shared := New(g, WithSQLDialect(dialect), WithWorkers(4))
			const rounds = 6
			var wg sync.WaitGroup
			for i := range rounds * len(two) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					run := two[i%len(two)]
					rep, err := shared.AnalyzeSQL(run, q)
					if err != nil {
						t.Errorf("analysis %d: %v", i, err)
						return
					}
					if got := rep.Render(); got != want[run] {
						t.Errorf("analysis %d of the %d-PE run differs from a fresh analyzer's:\n--- fresh ---\n%s--- shared ---\n%s",
							i, run.NoPe, want[run], got)
					}
				}()
			}
			wg.Wait()
			if n := len(shared.plans); n != len(two) {
				t.Fatalf("%d plans kept for %d analyzed runs", n, len(two))
			}

			// The other engines read the same plan: the guided SQL search
			// its set-form bindings and region ranges, the object engine the
			// shared argument lists.
			for _, run := range two {
				if _, _, err := shared.AnalyzeGuidedSQL(run, DefaultHierarchy(), q); err != nil {
					t.Fatal(err)
				}
				if _, err := shared.AnalyzeObject(run); err != nil {
					t.Fatal(err)
				}
				rep, err := shared.AnalyzeSQL(run, q)
				if err != nil {
					t.Fatal(err)
				}
				if got := rep.Render(); got != want[run] {
					t.Errorf("report of the %d-PE run changed after the other engines used its plan", run.NoPe)
				}
			}
			if n := len(shared.plans); n != len(two) {
				t.Fatalf("%d plans kept for %d analyzed runs", n, len(two))
			}
		})
	}
}

// TestObjectEngineCompilesNothing: the compiled statements belong to the
// analyzer, not to a plan, and only the SQL engines make them. A plan the
// object engine built serves the run's SQL analyses as it is — for ansi too,
// whose positional bindings are filled per execution — while object analyses
// keep reading it.
func TestObjectEngineCompilesNothing(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	q := godbc.Embedded{DB: db}
	run := lastRun(g)
	fresh, err := New(g, WithSQLDialect("ansi")).AnalyzeSQL(run, q)
	if err != nil {
		t.Fatal(err)
	}

	a := New(g, WithSQLDialect("ansi"))
	if _, err := a.AnalyzeObject(run); err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.AnalyzeGuided(run, DefaultHierarchy()); err != nil {
		t.Fatal(err)
	}
	if a.compiled != nil {
		t.Fatal("the object engine compiled the properties' SQL")
	}
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				if _, err := a.AnalyzeObject(run); err != nil {
					t.Error(err)
				}
				return
			}
			rep, err := a.AnalyzeSQL(run, q)
			if err != nil {
				t.Error(err)
			} else if rep.Render() != fresh.Render() {
				t.Errorf("analysis %d differs from a fresh analyzer's", i)
			}
		}()
	}
	wg.Wait()
	if len(a.compiled) != len(a.props) || len(a.plans) != 1 {
		t.Fatalf("%d compiled properties, %d plans; want %d and 1", len(a.compiled), len(a.plans), len(a.props))
	}
}

// TestWarmAnalysisAllocatesPerRequest: with the plan built and the result
// cache warm, what an analysis against the embedded engine still allocates is
// per property, not per instance: eight handles over the engine's cached
// set-form plans (godbc.Embedded prepares per analysis, and Prepare takes its
// plan from the plan cache), one batch of one Result each, the []Instance and
// the report — 59 measured for 2 016 instances, where re-planning the eight
// statements per analysis cost 6 120 and per-context batches 6 900.
func TestWarmAnalysisAllocatesPerRequest(t *testing.T) {
	g := buildGraph(t, apprentice.ScaledStencil(15, 16), 2, 4)
	db := loadDB(t, g)
	q := godbc.Embedded{DB: db}
	run := lastRun(g)
	a := New(g, WithWorkers(1))
	first, err := a.AnalyzeSQL(run, q)
	if err != nil {
		t.Fatal(err)
	}
	instances := len(first.Instances) + first.Skipped + len(first.Diagnostics)

	allocs := testing.AllocsPerRun(5, func() {
		if _, err := a.AnalyzeSQL(run, q); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 200 // nothing in it grows with the instance count
	if allocs > ceiling {
		t.Fatalf("a warm analysis of %d instances allocates %.0f times, ceiling %d", instances, allocs, ceiling)
	}
	t.Logf("%d instances, %.0f allocations per warm analysis", instances, allocs)
}

// TestClientSideReadsTheDatabase: the client-side engine evaluates the run's
// plan over objects fetched from the database, so after DML it answers what
// the SQL engine answers, not what the graph says, and its analyses share the
// one plan of the run.
func TestClientSideReadsTheDatabase(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	q := godbc.Embedded{DB: db}
	run := lastRun(g)
	update := &sqldb.Params{Named: map[string]sqldb.Value{"r": sqldb.NewInt(g.Runs[run].ID)}}
	if _, err := db.Exec(`UPDATE TotalTiming SET Incl = Incl * 3 WHERE Run_id = $r`, update); err != nil {
		t.Fatal(err)
	}

	a := New(g)
	obj, err := a.AnalyzeObject(run)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := a.AnalyzeSQL(run, q)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(obj.Instances, sql.Instances) {
		t.Fatal("the UPDATE left the SQL engine's report as the graph's: the test shows nothing")
	}
	client, err := a.AnalyzeClientSide(run, q)
	if err != nil {
		t.Fatal(err)
	}
	compareReports(t, sql, client)

	b := New(g)
	for range 2 {
		if _, err := b.AnalyzeClientSide(run, q); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(b.plans); n != 1 {
		t.Fatalf("two client-side analyses of one run left %d plans, want 1", n)
	}
}

// TestClientSideMissingObjectIsAnError: a planned context whose object the
// database no longer holds fails the client-side analysis, naming the object.
func TestClientSideMissingObjectIsAnError(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	call := g.OrderedCalls[0]
	id := &sqldb.Params{Named: map[string]sqldb.Value{"id": sqldb.NewInt(call.ID)}}
	for _, stmt := range []string{
		`DELETE FROM FunctionCall_Sums WHERE owner_id = $id`,
		`DELETE FROM Function_Calls WHERE elem_id = $id`,
		`DELETE FROM FunctionCall WHERE id = $id`,
	} {
		if _, err := db.Exec(stmt, id); err != nil {
			t.Fatal(err)
		}
	}
	_, err := New(g).AnalyzeClientSide(lastRun(g), godbc.Embedded{DB: db})
	if want := fmt.Sprintf("core: FunctionCall %d not in database", call.ID); err == nil || err.Error() != want {
		t.Fatalf("err %v, want %q", err, want)
	}
}
