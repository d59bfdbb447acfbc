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

func TestExprRefsBinding(t *testing.T) {
	parse := func(src string) Expr {
		stmt, err := ParseSQL("SELECT " + src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return stmt.(*SelectStmt).Items[0].Expr
	}
	cases := []struct {
		src     string
		binding string
		want    bool
	}{
		{"1 + 2", "t", false},
		{"$p", "t", false},
		{"t.x", "t", true},
		{"u.x", "t", false},
		{"x", "t", true}, // unqualified: conservative
		{"(SELECT a.v FROM times a WHERE a.run_id = t.id)", "t", true},
		{"(SELECT a.v FROM times a WHERE a.run_id = 1)", "t", false},
		{"(SELECT t.v FROM times t)", "t", false}, // shadowed
		{"EXISTS (SELECT 1 FROM runs r WHERE r.id = t.id)", "t", true},
		{"v IN (SELECT t.id FROM runs t)", "t", true}, // v unqualified
	}
	for _, c := range cases {
		if got := exprRefsBinding(parse(c.src), c.binding); got != c.want {
			t.Errorf("exprRefsBinding(%q, %q) = %v, want %v", c.src, c.binding, got, c.want)
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
