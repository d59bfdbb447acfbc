package sqldb

import (
	"testing"
)

// cacheDB builds a small two-table database for subquery tests.
func cacheDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE runs (id INTEGER PRIMARY KEY, nope INTEGER)`, nil)
	db.MustExec(`CREATE TABLE times (id INTEGER PRIMARY KEY, run_id INTEGER, v REAL)`, nil)
	db.MustExec(`INSERT INTO runs (id, nope) VALUES (1, 2), (2, 8), (3, 32)`, nil)
	db.MustExec(`INSERT INTO times (id, run_id, v) VALUES
		(10, 1, 1.0), (11, 2, 2.0), (12, 3, 4.0)`, nil)
	return db
}

func TestInvariantSubqueryCachingCorrectness(t *testing.T) {
	db := cacheDB(t)
	// The same textual subquery appears twice (as the ASL compiler emits
	// it); the cached value must match the uncached semantics.
	q := `SELECT
		(SELECT MIN(nope) FROM runs) + (SELECT MIN(nope) FROM runs) AS s,
		(SELECT v FROM times WHERE run_id = (SELECT MIN(id) FROM runs)) AS first`
	res, err := db.Exec(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Rows[0][0].Int() != 4 {
		t.Fatalf("sum: %v", res.Set.Rows[0][0])
	}
	if res.Set.Rows[0][1].Float() != 1.0 {
		t.Fatalf("first: %v", res.Set.Rows[0][1])
	}
}

func TestCorrelatedSubqueryNotCached(t *testing.T) {
	db := cacheDB(t)
	// The subquery is correlated with the outer row; each row must get its
	// own value, so the invariant cache must not fire.
	res, err := db.Exec(`
		SELECT r.nope, (SELECT t.v FROM times t WHERE t.run_id = r.id) AS v
		FROM runs r ORDER BY r.nope`, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0, 2.0, 4.0}
	for i, row := range res.Set.Rows {
		if row[1].Float() != want[i] {
			t.Fatalf("row %d: %v, want %g", i, row[1], want[i])
		}
	}
}

func TestShadowedAliasIsNotCorrelated(t *testing.T) {
	db := cacheDB(t)
	// The inner query rebinds alias r; the inner r.id must refer to the
	// inner table even though an outer r exists.
	res, err := db.Exec(`
		SELECT r.nope, (SELECT MAX(r.id) FROM runs r) AS m
		FROM runs r ORDER BY r.nope`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Set.Rows {
		if row[1].Int() != 3 {
			t.Fatalf("shadowed max: %v", row[1])
		}
	}
}

func TestParamsFeedInvariantSubqueries(t *testing.T) {
	db := cacheDB(t)
	res, err := db.Exec(`
		SELECT (SELECT v FROM times WHERE run_id = $r) AS v`,
		&Params{Named: map[string]Value{"r": NewInt(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Rows[0][0].Float() != 2.0 {
		t.Fatalf("param-correlated: %v", res.Set.Rows[0][0])
	}
	// Same statement text, different parameter: a fresh execution context
	// must not reuse the old cache.
	res, err = db.Exec(`
		SELECT (SELECT v FROM times WHERE run_id = $r) AS v`,
		&Params{Named: map[string]Value{"r": NewInt(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Rows[0][0].Float() != 4.0 {
		t.Fatalf("second param: %v", res.Set.Rows[0][0])
	}
}

func TestIndexedLookupThroughSubqueryRHS(t *testing.T) {
	db := cacheDB(t)
	// "id = (subquery)" must use the primary-key index; correctness check
	// (the performance effect is covered by the benchmarks).
	res, err := db.Exec(`SELECT nope FROM runs WHERE id = (SELECT MAX(run_id) FROM times)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Rows) != 1 || res.Set.Rows[0][0].Int() != 32 {
		t.Fatalf("rows: %v", res.Set.Rows)
	}
}

// TestPlanReads: the planner records what an expression reads by the
// bindings of its column references, subqueries included: here, whether an
// item of a SELECT over runs t reads t. A subquery that binds a name itself
// shadows the outer table, and a reference that binds nothing reads nothing.
func TestPlanReads(t *testing.T) {
	db := cacheDB(t)
	cases := []struct {
		src  string
		want bool
	}{
		{"1 + 2", false},
		{"$p", false},
		{"t.nope", true},
		{"u.nope", false}, // u binds nothing
		{"nope", true},
		{"v", false}, // runs has no v
		{"(SELECT a.v FROM times a WHERE a.run_id = t.id)", true},
		{"(SELECT a.v FROM times a WHERE a.run_id = 1)", false},
		{"(SELECT t.v FROM times t)", false},                              // shadowed
		{"(SELECT MAX(v) FROM times WHERE run_id = id)", false},           // times has an id
		{"(SELECT MAX(v) FROM times WHERE run_id = nope)", true},          // times has no nope
		{"(SELECT MAX(t.v) FROM times t WHERE t.run_id = t.nope)", false}, // unknown, not t's
		{"EXISTS (SELECT 1 FROM runs r WHERE r.id = t.id)", true},
		{"nope IN (SELECT t.id FROM runs t)", true},
	}
	for _, c := range cases {
		sql := "SELECT " + c.src + " FROM runs t"
		stmt, err := ParseSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		db.mu.RLock()
		p, err := db.buildPlan(stmt)
		db.mu.RUnlock()
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := p.reads(stmt.(*SelectStmt).Items[0].Expr).at(0); got != c.want {
			t.Errorf("%s reads t: %v, want %v", c.src, got, c.want)
		}
	}
}

func TestDeepNestedSubqueries(t *testing.T) {
	db := cacheDB(t)
	// Triple nesting with correlation at each level.
	res, err := db.Exec(`
		SELECT (SELECT t.v FROM times t WHERE t.run_id =
			(SELECT r.id FROM runs r WHERE r.nope =
				(SELECT MAX(r2.nope) FROM runs r2)))`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Set.Rows[0][0].Float() != 4.0 {
		t.Fatalf("nested: %v", res.Set.Rows[0][0])
	}
}

func TestAggregateInsideSubqueryOfGroupedQuery(t *testing.T) {
	db := cacheDB(t)
	res, err := db.Exec(`
		SELECT r.nope, COUNT(*) FROM runs r JOIN times t ON t.run_id = r.id
		GROUP BY r.nope
		HAVING COUNT(*) >= (SELECT MIN(id) FROM runs)
		ORDER BY r.nope`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Rows) != 3 {
		t.Fatalf("rows: %v", res.Set.Rows)
	}
}
