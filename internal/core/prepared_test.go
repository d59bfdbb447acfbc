package core

import (
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/sqldb"
)

// TestPreparedHandlesReleasedEmbedded: an analysis must close every handle
// it prepared.
func TestPreparedHandlesReleasedEmbedded(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	db := loadDB(t, g)
	a := New(g)
	if _, err := a.AnalyzeSQL(lastRun(g), godbc.Embedded{DB: db}); err != nil {
		t.Fatal(err)
	}
	if live := db.Stats().PreparedLive; live != 0 {
		t.Fatalf("%d prepared handles leaked", live)
	}
}

// TestGuidedSQLMatchesGuidedObject: the SQL-engine refinement search must
// visit the same instances with the same outcomes as the object-engine one.
func TestGuidedSQLMatchesGuidedObject(t *testing.T) {
	for name, w := range apprentice.Library() {
		t.Run(name, func(t *testing.T) {
			g := buildGraph(t, w)
			db := loadDB(t, g)
			run := lastRun(g)
			a := New(g)
			obj, objStats, err := a.AnalyzeGuided(run, DefaultHierarchy())
			if err != nil {
				t.Fatal(err)
			}
			sql, sqlStats, err := a.AnalyzeGuidedSQL(run, DefaultHierarchy(), godbc.Embedded{DB: db})
			if err != nil {
				t.Fatal(err)
			}
			if objStats.Evaluated != sqlStats.Evaluated || objStats.Exhaustive != sqlStats.Exhaustive {
				t.Fatalf("search stats differ: object %+v, sql %+v", objStats, sqlStats)
			}
			compareReports(t, obj, sql)
		})
	}
}

// countingPreparer wraps an executor and counts prepare and text-execution
// traffic.
type countingPreparer struct {
	godbc.Embedded
	prepares  int
	textExecs int
}

func (c *countingPreparer) PrepareQuery(sql string) (sqlgen.PreparedQuery, error) {
	c.prepares++
	return c.Embedded.PrepareQuery(sql)
}

func (c *countingPreparer) ExecQuery(sql string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	c.textExecs++
	return c.Embedded.ExecQuery(sql, params)
}

// TestGuidedSQLPreparesOncePerProperty: the refinement search prepares each
// property's query at most once regardless of how many contexts it
// evaluates, and ships no query text per instance.
func TestGuidedSQLPreparesOncePerProperty(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	a := New(g)
	q := &countingPreparer{Embedded: godbc.Embedded{DB: db}}
	rep, stats, err := a.AnalyzeGuidedSQL(lastRun(g), DefaultHierarchy(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bottleneck() == nil {
		t.Fatal("no bottleneck")
	}
	if stats.Evaluated == 0 {
		t.Fatal("search evaluated nothing")
	}
	if q.prepares == 0 || q.prepares > len(a.props) {
		t.Fatalf("prepared %d times for %d properties", q.prepares, len(a.props))
	}
	if q.textExecs != 0 {
		t.Fatalf("%d text executions on the prepared path", q.textExecs)
	}
	if live := db.Stats().PreparedLive; live != 0 {
		t.Fatalf("%d prepared handles leaked", live)
	}
}

// TestAnalyzeSQLPreparesOncePerProperty: the exhaustive analysis prepares
// exactly one handle per property and executes it per context.
func TestAnalyzeSQLPreparesOncePerProperty(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	db := loadDB(t, g)
	a := New(g)
	q := &countingPreparer{Embedded: godbc.Embedded{DB: db}}
	if _, err := a.AnalyzeSQL(lastRun(g), q); err != nil {
		t.Fatal(err)
	}
	if q.prepares != len(a.props) {
		t.Fatalf("prepared %d times for %d properties", q.prepares, len(a.props))
	}
	if q.textExecs != 0 {
		t.Fatalf("%d text executions on the prepared path", q.textExecs)
	}
}
