package core

import (
	"strings"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/godbc"
	"repro/internal/sqlast/build"
)

// The dialect is a rendering concern only: for every registered dialect the
// engine can execute, an analysis over the same dataset must produce a report
// byte-identical to the canonical kojakdb one — per instance and by the set
// form alike. Only the SQL text on the wire may differ.

func TestDialectDeterminism(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	run := lastRun(g)
	q := godbc.Embedded{DB: db}

	canonical := New(g, WithWorkers(1))
	want := renderWith(t, func() (*Report, error) { return canonical.AnalyzeSQL(run, q) })

	for _, name := range build.Names() {
		t.Run(name, func(t *testing.T) {
			for _, batch := range []int{1, DefaultBatchSize} {
				a := New(g, WithWorkers(4), WithSQLDialect(name), WithBatchSize(batch))
				got := renderWith(t, func() (*Report, error) { return a.AnalyzeSQL(run, q) })
				if got != want {
					t.Errorf("batch=%d report differs from kojakdb:\n--- kojakdb ---\n%s--- %s ---\n%s",
						batch, want, name, got)
				}
			}
		})
	}
}

// TestDialectConstOverride checks that constant overrides compose with
// non-canonical renderings: number spellings are dialect-invariant, so the
// textual substitution must hit in every dialect and shift the same reports.
func TestDialectConstOverride(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	run := lastRun(g)
	q := godbc.Embedded{DB: db}

	for _, name := range build.Names() {
		base := New(g, WithWorkers(1), WithSQLDialect(name))
		want := renderWith(t, func() (*Report, error) { return base.AnalyzeSQL(run, q) })
		// An absurd threshold suppresses the imbalance finding; the report
		// must actually change, proving the override reached the rendered SQL.
		a := New(g, WithWorkers(1), WithSQLDialect(name), WithConst("ImbalanceThreshold", 1e9))
		got := renderWith(t, func() (*Report, error) { return a.AnalyzeSQL(run, q) })
		if got == want {
			t.Errorf("dialect %s: constant override had no effect on the report", name)
		}
	}
}

func TestUnknownDialectFailsAnalysis(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	run := lastRun(g)

	a := New(g, WithSQLDialect("sybase"))
	_, err := a.AnalyzeSQL(run, godbc.Embedded{DB: db})
	if err == nil {
		t.Fatal("unknown dialect accepted")
	}
	if !strings.Contains(err.Error(), "sybase") {
		t.Errorf("error does not name the dialect: %v", err)
	}
}
