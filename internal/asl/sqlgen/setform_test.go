package sqlgen_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asl/sem"
	"repro/internal/asl/sqlgen"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sqlast/build"
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
