// Render→reparse round-trip fuzzing of the typed query builder: any SELECT
// the engine parser accepts is lifted into a build AST, rendered in the
// canonical kojakdb dialect, and fed back through the parser. The rendered
// text must stay inside the engine's subset, re-render to the identical bytes
// (the canonical rendering is a fixed point), and evaluate to the same rows
// as the original text. The ansi rendering is additionally reparsed and
// executed (quoted identifiers, ? markers, FETCH FIRST are all engine
// syntax); the oracle7 rendering is reparsed only, since its 1/0 boolean
// literals legitimately change result values.
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
func roundtripParams(sel *build.Select) *sqldb.Params {
	p := &sqldb.Params{Positional: []sqldb.Value{
		sqldb.NewInt(1), sqldb.NewInt(1), sqldb.NewInt(1),
	}}
	refs, err := build.NamedParams(sel)
	if err != nil {
		return p
	}
	for _, r := range refs {
		if p.Named == nil {
			p.Named = make(map[string]sqldb.Value)
		}
		p.Named[r.Name] = sqldb.NewInt(1)
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

	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqldb.ParseSQL(sql)
		if err != nil {
			return
		}
		parsed, ok := stmt.(*sqldb.SelectStmt)
		if !ok {
			return
		}
		ast, err := build.FromParsedSelect(parsed)
		if err != nil {
			return // construct outside the builder's subset
		}
		r1, err := build.Kojakdb.Render(ast)
		if err != nil {
			return // identifiers outside the builder's subset (quoted input)
		}

		// The canonical rendering must stay inside the engine's subset and be
		// a fixed point: reparse and re-render reproduce the identical bytes.
		stmt2, err := sqldb.ParseSQL(r1.SQL)
		if err != nil {
			t.Fatalf("rendered SQL does not reparse: %v\ninput:    %s\nrendered: %s", err, sql, r1.SQL)
		}
		ast2, err := build.FromParsedSelect(stmt2.(*sqldb.SelectStmt))
		if err != nil {
			t.Fatalf("rendered SQL does not re-lift: %v\nrendered: %s", err, r1.SQL)
		}
		r2, err := build.Kojakdb.Render(ast2)
		if err != nil {
			t.Fatalf("re-lifted AST does not re-render: %v\nrendered: %s", err, r1.SQL)
		}
		if r2.SQL != r1.SQL {
			t.Fatalf("rendering is not a fixed point:\ninput:  %s\nfirst:  %s\nsecond: %s", sql, r1.SQL, r2.SQL)
		}

		// The rendered text must evaluate exactly like the original.
		db := roundtripDB(t)
		params := roundtripParams(ast)
		origRows, origErr := execRows(db, sql, params)
		renRows, renErr := execRows(db, r1.SQL, params)
		if (origErr == nil) != (renErr == nil) {
			t.Fatalf("execution divergence:\ninput:    %s (err=%v)\nrendered: %s (err=%v)", sql, origErr, r1.SQL, renErr)
		}
		if origErr == nil && !reflect.DeepEqual(origRows, renRows) {
			t.Fatalf("row divergence:\ninput:    %s\nrendered: %s\norig: %+v\nrend: %+v", sql, r1.SQL, origRows, renRows)
		}

		// The ansi rendering is executable engine syntax too: reparse it and
		// compare rows, filling the positional slots in rendered marker order.
		if ra, err := build.ANSI.Render(ast); err == nil {
			if _, err := sqldb.ParseSQL(ra.SQL); err != nil {
				t.Fatalf("ansi rendering does not reparse: %v\nrendered: %s", err, ra.SQL)
			}
			ansiParams := roundtripParams(ast)
			fillErr := error(nil)
			if len(ra.ParamOrder) > 0 {
				fillErr = FillPositional(ansiParams, ra.ParamOrder)
			}
			if fillErr == nil {
				ansiRows, ansiErr := execRows(db, ra.SQL, ansiParams)
				if (origErr == nil) != (ansiErr == nil) {
					t.Fatalf("ansi execution divergence:\ninput: %s (err=%v)\nansi:  %s (err=%v)", sql, origErr, ra.SQL, ansiErr)
				}
				if origErr == nil && !reflect.DeepEqual(origRows, ansiRows) {
					t.Fatalf("ansi row divergence:\ninput: %s\nansi:  %s\norig: %+v\nansi: %+v", sql, ra.SQL, origRows, ansiRows)
				}
			}
		}

		// The oracle7 rendering must at least stay parseable; its 1/0 boolean
		// spelling legitimately changes result values, so rows are not compared.
		if ro, err := build.Oracle7.Render(ast); err == nil {
			if _, err := sqldb.ParseSQL(ro.SQL); err != nil {
				t.Fatalf("oracle7 rendering does not reparse: %v\nrendered: %s", err, ro.SQL)
			}
		}
	})
}
