package sqlgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// TestGoldenPropertySQL pins the canonical kojakdb rendering of every
// shipped ASL property to testdata/golden, the current contract (docs/SQL.md
// describes it; the files change only as a deliberate diff). Plan-cache and
// result-cache keys are built from this text, so a byte of drift silently
// invalidates every cached plan and result across a version upgrade.
func TestGoldenPropertySQL(t *testing.T) {
	w := model.MustCompileSpec()
	for _, name := range model.AllProperties {
		cp, err := CompileProperty(w, name)
		if err != nil {
			t.Fatalf("CompileProperty(%s): %v", name, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".sql"))
		if err != nil {
			t.Fatalf("golden file for %s: %v", name, err)
		}
		if cp.SQL != strings.TrimSuffix(string(want), "\n") {
			t.Errorf("property %s: canonical SQL drifted from the golden contract\n got: %s\nwant: %s",
				name, cp.SQL, strings.TrimSuffix(string(want), "\n"))
		}
		// The kojakdb rendering of the AST is the same text.
		r, err := cp.Render(build.Kojakdb.Name)
		if err != nil {
			t.Fatalf("Render(kojakdb) %s: %v", name, err)
		}
		if r.SQL != cp.SQL {
			t.Errorf("property %s: Render(kojakdb) != SQL\n got: %s\nwant: %s", name, r.SQL, cp.SQL)
		}
		if r.ParamOrder != nil {
			t.Errorf("property %s: kojakdb rendering reported a ParamOrder; named-marker dialects must not", name)
		}
	}
}

// TestGoldenSchemaDDL pins the canonical schema DDL the same way.
func TestGoldenSchemaDDL(t *testing.T) {
	w := model.MustCompileSpec()
	ddl, err := Schema(w)
	if err != nil {
		t.Fatalf("Schema: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "schema.ddl"))
	if err != nil {
		t.Fatalf("golden schema: %v", err)
	}
	got := strings.Join(ddl, "\n") + "\n"
	if got != string(want) {
		t.Errorf("schema DDL drifted from the golden contract\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestGoldenSQLParses replays the golden corpus through the engine parser:
// the canonical dialect must stay inside the subset the engine accepts.
func TestGoldenSQLParses(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.sql"))
	if err != nil || len(files) == 0 {
		t.Fatalf("golden corpus missing: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sqldb.ParseSQL(strings.TrimSuffix(string(b), "\n")); err != nil {
			t.Errorf("%s: golden SQL no longer parses: %v", filepath.Base(f), err)
		}
	}
}

// TestFillPositional checks the named→positional conversion used by
// positional-marker dialects, including duplicated markers.
func TestFillPositional(t *testing.T) {
	p := &sqldb.Params{Named: map[string]sqldb.Value{
		"r": sqldb.NewInt(10),
		"t": sqldb.NewInt(20),
	}}
	if err := FillPositional(p, []string{"t", "r", "t"}); err != nil {
		t.Fatal(err)
	}
	got := []int64{p.Positional[0].Int(), p.Positional[1].Int(), p.Positional[2].Int()}
	if got[0] != 20 || got[1] != 10 || got[2] != 20 {
		t.Errorf("positional fill = %v, want [20 10 20]", got)
	}
	if p.Named == nil {
		t.Error("Named map dropped; sharded routing reads the run id from it")
	}
	if err := FillPositional(p, []string{"missing"}); err == nil {
		t.Error("unbound name accepted")
	}
}
