// Render→reparse round-trip fuzzing of the dialect renderer: any SELECT the
// engine parser accepts is rendered straight from its parsed tree in every
// dialect and fed back through the parser. Grouping survives because the
// parser records the parentheses the source wrote (the Paren field of
// sqldb's operator nodes) and the renderer prints exactly those. Each
// rendering must stay inside the engine's subset and re-render to the
// identical bytes (it is a fixed point); the kojakdb and ansi renderings
// (quoted identifiers, ? markers, FETCH FIRST are all engine syntax) must
// evaluate to the same rows as the original text. The oracle7 rendering is
// not executed for comparison, since its 1/0 boolean literals legitimately
// change result values.
package sqlgen

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/model"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// roundtripState is the shared database fuzz executions query: the canonical
// COSY schema with a small simulated history plus an auxiliary table holding
// NULLs in every column type.
var roundtripState struct {
	sync.Once
	db  *sqldb.DB
	err error
}

func roundtripDB(tb testing.TB) *sqldb.DB {
	tb.Helper()
	s := &roundtripState
	s.Do(func() {
		db := sqldb.NewDB()
		db.SetResultCacheSize(0)
		exec := ExecutorFunc(func(q string, p *sqldb.Params) (int, error) {
			res, err := db.Exec(q, p)
			if err != nil {
				return 0, err
			}
			return res.Affected, nil
		})
		ds, err := apprentice.Simulate(apprentice.Stencil(), apprentice.PartitionSweep(2, 4), 42)
		if err != nil {
			s.err = err
			return
		}
		g, err := model.Build(ds)
		if err != nil {
			s.err = err
			return
		}
		if err := CreateSchema(g.World, exec); err != nil {
			s.err = err
			return
		}
		if _, err := Load(g.Store, exec); err != nil {
			s.err = err
			return
		}
		for _, q := range []string{
			`CREATE TABLE fuzz_aux (id INTEGER PRIMARY KEY, v INTEGER, w REAL, s TEXT, b BOOLEAN)`,
			`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (1, 10, 1.5, 'alpha', TRUE)`,
			`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (2, NULL, 2.5, 'beta', FALSE)`,
			`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (3, 30, NULL, NULL, TRUE)`,
			`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (4, 10, 4.0, 'alpha', NULL)`,
		} {
			if _, err := db.Exec(q, nil); err != nil {
				s.err = err
				return
			}
		}
		s.db = db
	})
	if s.err != nil {
		tb.Fatal(s.err)
	}
	return s.db
}

// roundtripParams binds one integer value under every named marker the
// statement references and three positional slots, so parameterized mutants
// execute instead of erroring on an unbound name.
func roundtripParams(sel *sqldb.SelectStmt) *sqldb.Params {
	p := &sqldb.Params{Positional: []sqldb.Value{
		sqldb.NewInt(1), sqldb.NewInt(1), sqldb.NewInt(1),
	}}
	for _, m := range sqldb.SelectMarkers(sel) {
		if m.Name == "" {
			continue
		}
		if p.Named == nil {
			p.Named = make(map[string]sqldb.Value)
		}
		p.Named[m.Name] = sqldb.NewInt(1)
	}
	return p
}

// execRows runs a SELECT and returns its rows; the column labels are
// deliberately not compared, because the rendered text spells derived labels
// differently (e.g. "(v + 1)" for "v+1") without changing any value.
func execRows(db *sqldb.DB, sql string, p *sqldb.Params) ([]sqldb.Row, error) {
	res, err := db.Exec(sql, p)
	if err != nil {
		return nil, err
	}
	return res.Set.Rows, nil
}

func FuzzRenderRoundTrip(f *testing.F) {
	w := model.MustCompileSpec()
	compiled, errs := CompileAll(w)
	if len(errs) > 0 {
		f.Fatalf("canonical properties failed to compile: %v", errs)
	}
	names := make([]string, 0, len(compiled))
	for name := range compiled {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(compiled[name].SQL)
	}
	// The set forms, from their goldens: a context relation in FROM, and every
	// subquery correlated with it through an outer reference.
	sets, err := filepath.Glob(filepath.Join("testdata", "golden", "*.set.kojakdb.sql"))
	if err != nil || len(sets) != len(names) {
		f.Fatalf("set-form goldens: %d files for %d properties (%v)", len(sets), len(names), err)
	}
	for _, file := range sets {
		b, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(strings.TrimSuffix(string(b), "\n"))
	}

	f.Fuzz(func(t *testing.T, sql string) { checkRoundTrip(t, sql) })
}

// checkRoundTrip parses sql and, for a SELECT every dialect can spell,
// checks the round trip in each: the rendering reparses, rendering the
// reparsed tree again reproduces the identical bytes, and the kojakdb and
// ansi renderings evaluate to the rows of the original text. It returns the
// kojakdb rendering, or "" when sql is no SELECT or holds identifiers the
// renderer rejects (quoted input).
func checkRoundTrip(t *testing.T, sql string) string {
	t.Helper()
	stmt, err := sqldb.ParseSQL(sql)
	if err != nil {
		return ""
	}
	parsed, ok := stmt.(*sqldb.SelectStmt)
	if !ok {
		return ""
	}
	kojak, err := build.Kojakdb.Render(parsed)
	if err != nil {
		return "" // identifiers outside the renderer's subset (quoted input)
	}
	db := roundtripDB(t)
	origRows, origErr := execRows(db, sql, roundtripParams(parsed))
	for _, name := range build.Names() {
		d, _ := build.Lookup(name)
		r1, err := d.Render(parsed)
		if err != nil {
			continue // oracle7 has no LIMIT spelling
		}
		// Every rendering stays inside the engine's subset and is a fixed
		// point: reparse and re-render reproduce the identical bytes.
		stmt2, err := sqldb.ParseSQL(r1.SQL)
		if err != nil {
			t.Fatalf("%s rendering does not reparse: %v\ninput:    %s\nrendered: %s", name, err, sql, r1.SQL)
		}
		r2, err := d.Render(stmt2)
		if err != nil {
			t.Fatalf("%s rendering does not re-render: %v\nrendered: %s", name, err, r1.SQL)
		}
		if r2.SQL != r1.SQL {
			t.Fatalf("%s rendering is not a fixed point:\ninput:  %s\nfirst:  %s\nsecond: %s", name, sql, r1.SQL, r2.SQL)
		}

		// The kojakdb and ansi renderings evaluate exactly like the
		// original, the ansi one with its positional slots filled in
		// rendered marker order. The oracle7 rendering's 1/0 boolean
		// spelling legitimately changes result values, so its rows are not
		// compared.
		if d == build.Oracle7 {
			continue
		}
		params := roundtripParams(parsed)
		if len(r1.ParamOrder) > 0 && FillPositional(params, r1.ParamOrder) != nil {
			continue
		}
		rows, err := execRows(db, r1.SQL, params)
		if (origErr == nil) != (err == nil) {
			t.Fatalf("%s execution divergence:\ninput:    %s (err=%v)\nrendered: %s (err=%v)", name, sql, origErr, r1.SQL, err)
		}
		if origErr == nil && !reflect.DeepEqual(origRows, rows) {
			t.Fatalf("%s row divergence:\ninput:    %s\nrendered: %s\norig: %+v\nrend: %+v", name, sql, r1.SQL, origRows, rows)
		}
	}
	return kojak.SQL
}

// TestRenderKeepsGrouping: parentheses the source writes survive the round
// trip in every dialect, and the renderings evaluate like the source. Each
// case's grouping changes its value or its parse when dropped, except where
// precedence already agrees (NOT binds looser than =) or the grouped node
// carries its own parentheses (a scalar subquery).
func TestRenderKeepsGrouping(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"SELECT id FROM fuzz_aux WHERE (v = 10 OR b) AND id > 1", ""},
		{"SELECT id, v - (id - 3) FROM fuzz_aux", ""},
		{"SELECT id FROM fuzz_aux WHERE NOT (v = 10)", ""},
		{"SELECT id, -(v + id) FROM fuzz_aux", ""},
		{"SELECT id FROM fuzz_aux WHERE (id IN (1, 2)) = TRUE", ""},
		{"SELECT id FROM fuzz_aux WHERE (v IS NULL) OR b", ""},
		{"SELECT id FROM fuzz_aux WHERE (NOT b) = (id > 2)", ""},
		{"SELECT ((SELECT COUNT(*) FROM fuzz_aux)) + id FROM fuzz_aux",
			"SELECT (SELECT COUNT(*) FROM fuzz_aux) + id FROM fuzz_aux"},
	} {
		want := tc.want
		if want == "" {
			want = tc.src
		}
		if got := checkRoundTrip(t, tc.src); got != want {
			t.Errorf("kojakdb rendering of %s:\n got: %s\nwant: %s", tc.src, got, want)
		}
	}
}
