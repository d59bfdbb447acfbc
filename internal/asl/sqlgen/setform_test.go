package sqlgen_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/object"
	"repro/internal/asl/sem"
	"repro/internal/asl/sqlgen"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// compileSet compiles a canonical property's set form over the containment
// path core declares for its context class — the statement AnalyzeSQL runs.
func compileSet(t *testing.T, w *sem.World, name string) *sqlgen.CompiledProperty {
	t.Helper()
	ctx := w.Props[name].Params[0]
	path, ok := core.ContextPath(ctx.Type.(*sem.Class).Name)
	if !ok {
		t.Fatalf("%s: no containment path for context class %s", name, ctx.Type)
	}
	cp, err := sqlgen.CompilePropertySet(w, name, path)
	if err != nil {
		t.Fatalf("CompilePropertySet(%s): %v", name, err)
	}
	return cp
}

// TestGoldenSetFormSQL pins the set form of every shipped property, in every
// dialect, to testdata/golden/<property>.set.<dialect>.sql, byte for byte
// (docs/SQL.md "The set form"; the files change only as a deliberate diff):
// the kojakdb text is the key of the plan and result caches, and the other
// two are what a retargeted deployment prepares.
func TestGoldenSetFormSQL(t *testing.T) {
	w := model.MustCompileSpec()
	for _, name := range model.AllProperties {
		cp := compileSet(t, w, name)
		sig := w.Props[name].Params
		if cp.Context != sig[0].Name || len(cp.Params) != len(sig)-1 {
			t.Errorf("%s: context %q and %d parameters, want %q and %d", name, cp.Context, len(cp.Params), sig[0].Name, len(sig)-1)
		}
		if strings.Contains(cp.SQL, "$"+cp.Context+" ") || strings.HasSuffix(cp.SQL, "$"+cp.Context) {
			t.Errorf("%s: the set form still binds the context parameter $%s", name, cp.Context)
		}
		for _, dialect := range build.Names() {
			r, err := cp.Render(dialect)
			if err != nil {
				t.Fatalf("Render(%s) %s: %v", dialect, name, err)
			}
			file := filepath.Join("testdata", "golden", name+".set."+dialect+".sql")
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("golden file: %v", err)
			}
			if r.SQL != strings.TrimSuffix(string(want), "\n") {
				t.Errorf("%s: set form drifted from %s\n got: %s\nwant: %s", name, file, r.SQL, want)
			}
			if dialect == build.Kojakdb.Name && r.SQL != cp.SQL {
				t.Errorf("%s: Render(kojakdb) != SQL", name)
			}
			// Positional dialects bind the run and the basis by marker order,
			// and nothing else: the context is a column.
			for _, p := range r.ParamOrder {
				if p == cp.Context {
					t.Errorf("%s: %s rendering binds the context parameter positionally", name, dialect)
				}
			}
		}
	}
}

// TestCompilePropertySetRejectsBadPaths: a path that does not lead from a set
// of the run parameter's class to the context parameter's class is an error,
// not a statement over the wrong relation.
func TestCompilePropertySetRejectsBadPaths(t *testing.T) {
	w := model.MustCompileSpec()
	region, _ := core.ContextPath("Region")
	call, _ := core.ContextPath("FunctionCall")
	for what, tc := range map[string]struct {
		prop string
		path sqlgen.ContextPath
	}{
		"wrong context class":  {"MeasuredCost", call},
		"unknown root":         {"MeasuredCost", sqlgen.ContextPath{Root: "Nowhere", Runs: region.Runs, Steps: region.Steps}},
		"runs not a set":       {"MeasuredCost", sqlgen.ContextPath{Root: region.Root, Runs: "Compilation", Steps: region.Steps}},
		"no run of that class": {"MeasuredCost", sqlgen.ContextPath{Root: "Program", Runs: "Versions", Steps: []string{"Versions"}}},
		"unknown step":         {"MeasuredCost", sqlgen.ContextPath{Root: region.Root, Runs: region.Runs, Steps: []string{"Functions", "Loops"}}},
		"no steps":             {"LoadImbalance", sqlgen.ContextPath{Root: call.Root, Runs: call.Runs}},
	} {
		if cp, err := sqlgen.CompilePropertySet(w, tc.prop, tc.path); err == nil {
			t.Errorf("%s: compiled to %s", what, cp.SQL)
		} else if !strings.Contains(err.Error(), "context path") {
			t.Errorf("%s: error does not name the context path: %v", what, err)
		}
	}
}

// TestRestrictAddsOneConjunct: the restricted statement is the set form's
// text plus exactly one conjunct — the context column equal to the context
// parameter — in every dialect, and a positional dialect binds the set form's
// markers and then the context's.
func TestRestrictAddsOneConjunct(t *testing.T) {
	w := model.MustCompileSpec()
	for _, name := range model.AllProperties {
		cp := compileSet(t, w, name)
		rcp, err := cp.Restrict()
		if err != nil {
			t.Fatalf("Restrict(%s): %v", name, err)
		}
		if rcp.Context != cp.Context || !reflect.DeepEqual(rcp.Params, cp.Params) {
			t.Errorf("%s: restricted context %q and parameters %v, want the set form's %q and %v", name, rcp.Context, rcp.Params, cp.Context, cp.Params)
		}
		// Every canonical path is three junctions long; the last holds the
		// context.
		conjunct := map[string]string{
			build.Kojakdb.Name: " AND x3.elem_id = $" + cp.Context,
			"ansi":             ` AND "x3"."elem_id" = ?`,
			"oracle7":          " AND X3.ELEM_ID = :" + cp.Context,
		}
		for _, dialect := range build.Names() {
			set, err := cp.Render(dialect)
			if err != nil {
				t.Fatal(err)
			}
			r, err := rcp.Render(dialect)
			if err != nil {
				t.Fatal(err)
			}
			if want := set.SQL + conjunct[dialect]; r.SQL != want {
				t.Errorf("%s, %s: restricted text\n got: %s\nwant: %s", name, dialect, r.SQL, want)
			}
			if dialect == build.Kojakdb.Name && r.SQL != rcp.SQL {
				t.Errorf("%s: Render(kojakdb) != SQL for the restricted form", name)
			}
			var want []string
			if set.ParamOrder != nil {
				want = append(slices.Clone(set.ParamOrder), cp.Context)
			}
			if !reflect.DeepEqual(r.ParamOrder, want) {
				t.Errorf("%s, %s: restricted marker order %v, want %v", name, dialect, r.ParamOrder, want)
			}
		}
		if _, err := sqldb.ParseSQL(rcp.SQL); err != nil {
			t.Errorf("%s: the restricted form does not parse: %v", name, err)
		}
		per, err := sqlgen.CompileProperty(w, name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := per.Restrict(); err == nil {
			t.Errorf("%s: the per-context form restricted to a context", name)
		}
	}
}

// TestRestrictedMatchesPerContext holds the two statements a context can be
// evaluated by against each other: for every context of the Particles
// dataset, every run and every property, on both engines, the restricted set
// form answers with one row, the context's, whose other columns are the
// per-context form's row — or both fail with the same error. One region has a
// second summary for the last run, so UNIQUE raises for it: the three
// properties reading Summary(r, t) must fail there, identically.
func TestRestrictedMatchesPerContext(t *testing.T) {
	ds, err := apprentice.Simulate(apprentice.Particles(), apprentice.PartitionSweep(2, 8, 32), 42)
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.SetResultCacheSize(0)
	exec := sqlgen.ExecutorFunc(func(q string, p *sqldb.Params) (int, error) {
		res, err := db.Exec(q, p)
		if err != nil {
			return 0, err
		}
		return res.Affected, nil
	})
	if err := sqlgen.CreateSchema(g.World, exec); err != nil {
		t.Fatal(err)
	}
	if _, err := sqlgen.Load(g.Store, exec); err != nil {
		t.Fatal(err)
	}
	runs := ds.Versions[0].Runs
	victim, last := g.OrderedRegions[len(g.OrderedRegions)-1], g.Runs[runs[len(runs)-1]]
	const dup = 1 << 40 // far above any object id the loader assigned
	for _, stmt := range []string{
		`INSERT INTO TotalTiming (id, Run_id, Excl, Incl, Ovhd) VALUES (?, ?, 1.0, 2.0, 0.5)`,
		`INSERT INTO Region_TotTimes (owner_id, elem_id) VALUES (?, ?)`,
	} {
		vals := []sqldb.Value{sqldb.NewInt(dup), sqldb.NewInt(last.ID)}
		if strings.Contains(stmt, "Region_TotTimes") {
			vals = []sqldb.Value{sqldb.NewInt(victim.ID), sqldb.NewInt(dup)}
		}
		if _, err := db.Exec(stmt, &sqldb.Params{Positional: vals}); err != nil {
			t.Fatal(err)
		}
	}
	var basis *object.Object
	for _, r := range g.OrderedRegions {
		if k, _ := r.Get("Kind").(object.Str); string(k) == string(model.KindProgram) {
			basis = r
		}
	}

	for _, engine := range []string{sqldb.EngineVector, sqldb.EngineRow} {
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		var failed []string
		for _, name := range model.AllProperties {
			rcp, err := compileSet(t, g.World, name).Restrict()
			if err != nil {
				t.Fatal(err)
			}
			per, err := sqlgen.CompileProperty(g.World, name)
			if err != nil {
				t.Fatal(err)
			}
			ctxs := g.OrderedRegions
			if per.Params[0].Type.(*sem.Class).Name == "FunctionCall" {
				ctxs = g.OrderedCalls
			}
			for _, run := range runs {
				for _, c := range ctxs {
					// The per-context form binds every parameter by name, and
					// the restricted form the same three.
					params := &sqldb.Params{Named: map[string]sqldb.Value{
						per.Params[0].Name: sqldb.NewInt(c.ID),
						per.Params[1].Name: sqldb.NewInt(g.Runs[run].ID),
						per.Params[2].Name: sqldb.NewInt(basis.ID),
					}}
					want, wantErr := db.Exec(per.SQL, params)
					got, gotErr := db.Exec(rcp.SQL, params)
					at := func() string { return fmt.Sprintf("%s on the %s engine, %s, %d-PE run", name, engine, c, run.NoPe) }
					if wantErr != nil || gotErr != nil {
						if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
							t.Fatalf("%s: per-context error %v, restricted %v", at(), wantErr, gotErr)
						}
						failed = append(failed, name)
						if c != victim || g.Runs[run] != last {
							t.Errorf("%s: failed away from the duplicate: %v", at(), gotErr)
						}
						continue
					}
					if len(want.Set.Rows) != 1 || len(got.Set.Rows) != 1 {
						t.Fatalf("%s: %d per-context rows, %d restricted", at(), len(want.Set.Rows), len(got.Set.Rows))
					}
					row := got.Set.Rows[0]
					if !row[0].IsInt() || row[0].Int() != c.ID || !reflect.DeepEqual(row[1:], want.Set.Rows[0]) {
						t.Errorf("%s: restricted row %v, per-context %v", at(), row, want.Set.Rows[0])
					}
				}
			}
		}
		if want := []string{"SublinearSpeedup", "MeasuredCost", "UnmeasuredCost"}; !reflect.DeepEqual(failed, want) {
			t.Errorf("%s: failed for %v, want %v once each", engine, failed, want)
		}
	}
}
