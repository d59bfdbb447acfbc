package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// parityDB builds a dataset with enough shape variety (NULLs, duplicate
// groups, text, floats, an indexed junction) to exercise every vectorized
// operator, sized past one batch so the chunked pipeline is covered.
func parityDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	db.SetResultCacheSize(0)
	stmts := []string{
		`CREATE TABLE item (id INTEGER PRIMARY KEY, grp INTEGER, val REAL, tag TEXT)`,
		`CREATE TABLE grp (id INTEGER PRIMARY KEY, name TEXT, boss INTEGER)`,
		`INSERT INTO grp (id, name, boss) VALUES
			(0, 'zero', 4), (1, 'one', 3), (2, 'two', NULL), (3, 'three', 1)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s, nil); err != nil {
			t.Fatalf("setup %q: %v", s, err)
		}
	}
	ins, err := db.Prepare(`INSERT INTO item (id, grp, val, tag) VALUES (?, ?, ?, ?)`)
	if err != nil {
		t.Fatalf("prepare insert: %v", err)
	}
	defer ins.Close()
	for i := 0; i < 3000; i++ {
		grp := NewInt(int64(i % 4))
		val := NewFloat(float64(i%17) / 4)
		tag := NewText([]string{"red", "green", "blue"}[i%3])
		if i%13 == 0 {
			grp = Null
		}
		if i%11 == 0 {
			val = Null
		}
		if _, err := ins.Execute(&Params{Positional: []Value{NewInt(int64(i)), grp, val, tag}}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	return db
}

// parityQueries is the battery both engines must agree on, byte for byte.
var parityQueries = []struct {
	name   string
	sql    string
	params *Params
}{
	{"scan", `SELECT id, grp, val, tag FROM item`, nil},
	{"filter-cmp", `SELECT id FROM item WHERE val > 2.5`, nil},
	{"filter-and-or", `SELECT id FROM item WHERE (grp = 1 OR grp = 3) AND val <= 3`, nil},
	{"filter-null-3vl", `SELECT id FROM item WHERE NOT (val > 1)`, nil},
	{"is-null", `SELECT id FROM item WHERE grp IS NULL`, nil},
	{"is-not-null", `SELECT COUNT(*) FROM item WHERE val IS NOT NULL`, nil},
	{"arith", `SELECT id, val * 2 + 1, -val FROM item WHERE id < 50`, nil},
	{"text-fn", `SELECT id, UPPER(tag), LENGTH(tag) FROM item WHERE id < 40`, nil},
	{"coalesce", `SELECT id, COALESCE(val, -1) FROM item WHERE id < 100`, nil},
	{"nullif", `SELECT id, NULLIF(tag, 'red') FROM item WHERE id < 30`, nil},
	{"in-list", `SELECT id FROM item WHERE grp IN (1, 3)`, nil},
	{"not-in-list", `SELECT id FROM item WHERE tag NOT IN ('red', 'blue') AND id < 200`, nil},
	{"in-sub", `SELECT id FROM item WHERE grp IN (SELECT id FROM grp WHERE boss IS NOT NULL)`, nil},
	{"exists", `SELECT COUNT(*) FROM item WHERE EXISTS (SELECT 1 FROM grp WHERE grp.id = 2)`, nil},
	{"scalar-sub", `SELECT id, (SELECT MAX(boss) FROM grp) FROM item WHERE id < 20`, nil},
	{"pk-seek", `SELECT id, val FROM item WHERE id = 1234`, nil},
	{"pk-seek-param", `SELECT id, val FROM item WHERE id = ?`, &Params{Positional: []Value{NewInt(77)}}},
	{"named-param", `SELECT COUNT(*) FROM item WHERE grp = $g`, &Params{Named: map[string]Value{"g": NewInt(2)}}},
	{"join", `SELECT i.id, g.name FROM item i JOIN grp g ON i.grp = g.id WHERE i.id < 300`, nil},
	{"join-residual", `SELECT i.id, g.name FROM item i JOIN grp g ON i.grp = g.id AND g.boss > 1`, nil},
	{"join-chain", `SELECT i.id, b.name FROM item i JOIN grp g ON i.grp = g.id JOIN grp b ON g.boss = b.id WHERE i.id < 500`, nil},
	{"agg-scalar", `SELECT COUNT(*), COUNT(val), SUM(val), AVG(val), MIN(val), MAX(val) FROM item`, nil},
	{"agg-empty", `SELECT COUNT(*), SUM(val), MIN(tag) FROM item WHERE id < 0`, nil},
	{"group-by", `SELECT grp, COUNT(*), SUM(val) FROM item GROUP BY grp`, nil},
	{"group-order-alias", `SELECT grp, COUNT(*) AS n FROM item GROUP BY grp ORDER BY n DESC, grp`, nil},
	{"group-order-ordinal", `SELECT tag, AVG(val) FROM item GROUP BY tag ORDER BY 2, 1`, nil},
	{"having", `SELECT grp, COUNT(*) FROM item GROUP BY grp HAVING COUNT(*) > 700`, nil},
	{"having-sum", `SELECT tag, SUM(val) FROM item GROUP BY tag HAVING SUM(val) > 900 ORDER BY 1`, nil},
	{"group-expr-key", `SELECT grp + 0, MIN(id) FROM item GROUP BY grp + 0 ORDER BY 2`, nil},
	{"order-expr", `SELECT id, val FROM item WHERE id < 100 ORDER BY val DESC, id`, nil},
	{"order-nulls-last", `SELECT id, val FROM item WHERE id < 60 ORDER BY val`, nil},
	{"limit", `SELECT id FROM item ORDER BY id DESC LIMIT 7`, nil},
	{"limit-zero", `SELECT id FROM item LIMIT 0`, nil},
	{"star", `SELECT * FROM grp`, nil},
	{"star-join", `SELECT * FROM item i JOIN grp g ON i.grp = g.id WHERE i.id < 25`, nil},
	{"star-order-ordinal", `SELECT * FROM grp ORDER BY 3, 1`, nil},
	{"star-grouped", `SELECT * FROM grp GROUP BY id`, nil}, // row-path shape: grouped star
	{"tableless", `SELECT 1 + 2, 'x'`, nil},
	{"tableless-star", `SELECT *`, nil},
	{"tableless-sub", `SELECT (SELECT COUNT(*) FROM grp), 'x'`, nil},
	{"correlated", `SELECT g.id, (SELECT COUNT(*) FROM item i WHERE i.grp = g.id) FROM grp g`, nil},
	{"correlated-unqual", `SELECT g.id, (SELECT COUNT(*) FROM item i WHERE i.grp = boss) FROM grp g`, nil},
	{"grouped-order-expr", `SELECT grp, COUNT(*) FROM item GROUP BY grp ORDER BY grp + 0`, nil},
	{"grouped-order-agg", `SELECT grp, COUNT(*) FROM item GROUP BY grp ORDER BY COUNT(*) DESC, grp + 1`, nil},
	// A bare column beside an aggregate reads the group's first row until an
	// aggregate over its rows is evaluated, and the last row after it; HAVING,
	// the projection and the ORDER BY keys each start again from the first.
	{"bare-col-before-agg", `SELECT id, MIN(0) FROM item`, nil},
	{"bare-col-after-agg", `SELECT MIN(0), id, COUNT(*) FROM item`, nil},
	{"bare-col-after-count-star", `SELECT COUNT(*), id FROM item`, nil},
	{"bare-col-agg-guarded", `SELECT id > 0 OR MAX(val) > 0, id FROM item`, nil},
	{"bare-col-empty", `SELECT MAX(val), id FROM item WHERE id < 0`, nil},
	{"bare-col-having", `SELECT id, COUNT(*) FROM item HAVING SUM(val) > id + 5000`, nil},
	{"bare-col-grouped", `SELECT grp, id, SUM(val), id, tag FROM item GROUP BY grp ORDER BY id + 0, MAX(id) - id`, nil},
	// Outer references: a column no table of the compiling SELECT satisfies is
	// a per-execution constant — as fused comparand, inside an OR chain, as
	// access-path key (item.id is the primary key), NULL (grp 2 has no boss),
	// and two SELECTs deep, where the innermost depends on no table of the
	// middle one at all.
	{"outer-ref-cmp", `SELECT g.id, (SELECT COUNT(*) FROM item i WHERE i.grp = g.id AND i.val > 2) FROM grp g`, nil},
	{"outer-ref-or", `SELECT g.id, (SELECT COUNT(*) FROM item i WHERE i.id < 50 AND (i.grp = g.id OR i.grp = g.boss OR i.val > g.boss)) FROM grp g`, nil},
	{"outer-ref-seek", `SELECT g.id, (SELECT i.tag FROM item i WHERE i.id = g.boss) FROM grp g`, nil},
	{"outer-ref-join-key", `SELECT g.id, (SELECT COUNT(*) FROM grp b JOIN item i ON i.grp = g.boss WHERE b.id = g.id) FROM grp g`, nil},
	{"outer-ref-depth2", `SELECT g.id, (SELECT MAX(i.val) FROM item i WHERE i.grp = (SELECT MIN(b.boss) FROM grp b WHERE b.id >= g.id)) FROM grp g`, nil},
	{"outer-ref-depth2-or", `SELECT g.id, (SELECT COUNT(*) FROM item i WHERE i.id < 40 AND i.grp IN (SELECT b.id FROM grp b WHERE b.boss = g.boss OR b.id = g.id)) FROM grp g`, nil},
	{"outer-ref-nowhere-unreached", `SELECT g.id, (SELECT COUNT(*) FROM item i WHERE i.id < 0 AND i.grp = nosuch.id) FROM grp g`, nil},
	{"join-nonequi", `SELECT i.id, g.id FROM item i JOIN grp g ON i.val > g.id AND g.boss IS NOT NULL WHERE i.id < 80`, nil},
	{"join-nonequi-chain", `SELECT i.id, b.name FROM item i JOIN grp g ON i.grp = g.id JOIN grp b ON b.id > g.boss WHERE i.id < 40`, nil},
	// An aggregate in a subquery's WHERE belongs to the enclosing group: the
	// row engine folds MAX(item.id) over the outer group's rows.
	{"outer-agg-in-sub", `SELECT grp, (SELECT COUNT(*) FROM grp g WHERE g.id < MAX(item.id) - 2990) FROM item GROUP BY grp`, nil},
}

// runEngine executes one query on the given engine against db.
func runEngine(t testing.TB, db *DB, engine, sql string, params *Params) (*ResultSet, error) {
	t.Helper()
	if err := db.SetEngine(engine); err != nil {
		t.Fatalf("SetEngine(%s): %v", engine, err)
	}
	res, err := db.Exec(sql, params)
	if err != nil {
		return nil, err
	}
	return res.Set, nil
}

func TestVecEngineParity(t *testing.T) {
	db := parityDB(t)
	for _, q := range parityQueries {
		t.Run(q.name, func(t *testing.T) {
			vecSet, vecErr := runEngine(t, db, EngineVector, q.sql, q.params)
			rowSet, rowErr := runEngine(t, db, EngineRow, q.sql, q.params)
			if (vecErr == nil) != (rowErr == nil) {
				t.Fatalf("error divergence: vector=%v row=%v", vecErr, rowErr)
			}
			if vecErr != nil {
				return
			}
			if !reflect.DeepEqual(vecSet, rowSet) {
				t.Fatalf("result divergence:\nvector: %+v\nrow:    %+v", vecSet, rowSet)
			}
		})
	}
}

// TestVecPooledBatchesShareNoPositions: a pooled context's two position
// batches trade places as the pipeline narrows, so an execution may find them
// in either order; they must never hold the same array, or a cross join —
// which writes several rows of the one per row it reads of the other —
// scrambles its own input. The nested-loop join is executed after each of a
// few other queries has had the pooled context.
func TestVecPooledBatchesShareNoPositions(t *testing.T) {
	db := parityDB(t)
	const cross = `SELECT i.id, g.id FROM item i JOIN grp g ON i.val > g.id AND g.boss IS NOT NULL WHERE i.id < 80`
	want, err := runEngine(t, db, EngineRow, cross, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range parityQueries[:6] {
		if _, err := runEngine(t, db, EngineVector, q.sql, q.params); err != nil {
			t.Fatal(err)
		}
		got, err := runEngine(t, db, EngineVector, cross, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: %d rows, want %d", q.name, len(got.Rows), len(want.Rows))
		}
	}
}

// TestVecEngineParityErrors pins down queries that must fail identically on
// both engines (same error presence; the row engine's message).
func TestVecEngineParityErrors(t *testing.T) {
	db := parityDB(t)
	cases := []string{
		`SELECT id FROM item WHERE val`,                               // non-boolean predicate
		`SELECT id FROM item WHERE nosuch = 1`,                        // unknown column
		`SELECT val + tag FROM item`,                                  // type error in projection
		`SELECT id FROM item WHERE tag > 5`,                           // incomparable types
		`SELECT SUM(tag) FROM item`,                                   // SUM over text
		`SELECT id FROM item LIMIT 'x'`,                               // non-numeric LIMIT
		`SELECT (SELECT id FROM grp) FROM item`,                       // scalar subquery, many rows
		`SELECT id FROM item WHERE grp IN (SELECT id, name FROM grp)`, // IN arity
		// An outer reference that resolves nowhere, or ambiguously in the
		// enclosing scope (both grp bindings have boss, item has not), raises
		// the row engine's resolution error once a row demands it.
		`SELECT g.id, (SELECT COUNT(*) FROM item i WHERE i.grp = nosuch.id) FROM grp g`,
		`SELECT g.id, (SELECT COUNT(*) FROM item i WHERE i.id = 7 AND i.grp = nosuch) FROM grp g`,
		`SELECT a.id, (SELECT COUNT(*) FROM item i WHERE i.grp = boss) FROM grp a JOIN grp b ON a.id = b.id`,
	}
	for _, sql := range cases {
		_, vecErr := runEngine(t, db, EngineVector, sql, nil)
		_, rowErr := runEngine(t, db, EngineRow, sql, nil)
		if vecErr == nil || rowErr == nil {
			t.Errorf("%q: expected both engines to fail, vector=%v row=%v", sql, vecErr, rowErr)
		}
	}
}

// TestVecEngineSelection checks the engine API and that the vectorized path
// actually executes covered shapes (and falls back on uncovered ones).
func TestVecEngineSelection(t *testing.T) {
	db := parityDB(t)
	if err := db.SetEngine("turbo"); err == nil {
		t.Fatal("SetEngine(turbo) succeeded")
	}
	if err := db.SetEngine(EngineVector); err != nil {
		t.Fatal(err)
	}
	if !db.vecOn.Load() {
		t.Fatalf("SetEngine(%s) left the row interpreter selected", EngineVector)
	}

	before := db.Stats()
	if _, err := db.Exec(`SELECT grp, SUM(val) FROM item WHERE id < 100 GROUP BY grp`, nil); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.VecSelects <= before.VecSelects {
		t.Fatalf("covered query did not run vectorized: %+v -> %+v", before.VecSelects, after.VecSelects)
	}

	before = after
	if _, err := db.Exec(`SELECT * FROM grp`, nil); err != nil {
		t.Fatal(err)
	}
	after = db.Stats()
	if after.VecFallbacks != before.VecFallbacks {
		t.Fatalf("non-grouped star query fell back: %+v -> %+v", before.VecFallbacks, after.VecFallbacks)
	}

	before = after
	if _, err := db.Exec(`SELECT * FROM grp GROUP BY id`, nil); err != nil {
		t.Fatal(err)
	}
	after = db.Stats()
	if after.VecFallbacks <= before.VecFallbacks {
		t.Fatalf("grouped star query did not fall back: %+v -> %+v", before.VecFallbacks, after.VecFallbacks)
	}
	if after.VecFallbackReasons.Star <= before.VecFallbackReasons.Star {
		t.Fatalf("fallback not attributed to star: %+v -> %+v", before.VecFallbackReasons, after.VecFallbackReasons)
	}

	if err := db.SetEngine(EngineRow); err != nil {
		t.Fatal(err)
	}
	before = db.Stats()
	if _, err := db.Exec(`SELECT COUNT(*) FROM item`, nil); err != nil {
		t.Fatal(err)
	}
	after = db.Stats()
	if after.VecSelects != before.VecSelects {
		t.Fatal("row engine incremented VecSelects")
	}
}

// TestVecPropertyShapeVectorizes pins the tentpole target: the closed
// COALESCE-wrapped dereference subqueries the ASL property compiler emits
// must run on the vectorized path, not fall back.
func TestVecPropertyShapeVectorizes(t *testing.T) {
	db := parityDB(t)
	if err := db.SetEngine(EngineVector); err != nil {
		t.Fatal(err)
	}
	before := db.Stats()
	sql := `SELECT COALESCE((SELECT SUM(i.val) FROM item i WHERE i.grp = 1), 0.0),
	               COALESCE((SELECT COUNT(*) FROM item i WHERE i.grp = 2), 0)`
	vecSet, err := db.Exec(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	// The table-less top level and both closed dereference subqueries must
	// all vectorize — the property shape runs with zero fallbacks.
	if after.VecSelects < before.VecSelects+3 {
		t.Fatalf("property shape did not fully vectorize: VecSelects %d -> %d", before.VecSelects, after.VecSelects)
	}
	if after.VecFallbacks != before.VecFallbacks {
		t.Fatalf("property shape fell back: VecFallbacks %d -> %d", before.VecFallbacks, after.VecFallbacks)
	}
	if err := db.SetEngine(EngineRow); err != nil {
		t.Fatal(err)
	}
	rowSet, err := db.Exec(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vecSet.Set, rowSet.Set) {
		t.Fatalf("property shape diverged:\nvector: %+v\nrow:    %+v", vecSet.Set, rowSet.Set)
	}
}

// TestCorrelatedDuplicatesExecuteOnce: build sides are keyed by shape id, so
// the two occurrences of one value — a LET-bound subquery the property
// compiler renders once per use, in c0 and again in s0 — cost one build, not
// two: the outer execution plus one build, however many outer rows probe it.
// The row engine gives the same rows.
func TestCorrelatedDuplicatesExecuteOnce(t *testing.T) {
	db := parityDB(t)
	const sub = `(SELECT SUM(i.val) FROM item i WHERE i.grp = g.id AND i.id < 500)`
	run := func(engine, sql string) (*ResultSet, int64) {
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		before := db.Stats()
		res, err := db.Exec(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := db.Stats()
		if after.VecFallbacks != before.VecFallbacks {
			t.Fatalf("%s fell back: %+v", sql, after.VecFallbackReasons)
		}
		return res.Set, after.VecSelects - before.VecSelects
	}
	defer db.SetEngine(EngineVector)
	for _, sql := range []string{
		`SELECT g.id, ` + sub + ` > 100 AS c0 FROM grp g`,
		`SELECT g.id, ` + sub + ` > 100 AS c0, ` + sub + ` / 2 AS s0 FROM grp g`,
	} {
		vec, selects := run(EngineVector, sql)
		if selects != 1+1 {
			t.Errorf("%s: %d SELECTs, want 2: the outer one and one build", sql, selects)
		}
		if row, _ := run(EngineRow, sql); !reflect.DeepEqual(vec, row) {
			t.Errorf("%s diverges:\nvector: %+v\nrow:    %+v", sql, vec, row)
		}
	}
}

// TestClosedInSubqueryRunsOnce: an IN subquery that reads no table of the
// enclosing SELECT has one candidate list per execution however its columns
// are spelled — an unqualified column resolves in the subquery's own scope
// first — so neither spelling falls back, each costs two SELECTs (the outer
// one and the subquery, not one subquery per row), and the row engine gives
// the same rows.
func TestClosedInSubqueryRunsOnce(t *testing.T) {
	db := parityDB(t)
	defer db.SetEngine(EngineVector)
	run := func(engine, sql string) (*ResultSet, int64) {
		t.Helper()
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		before := db.Stats()
		res, err := db.Exec(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		after := db.Stats()
		if after.VecFallbacks != before.VecFallbacks {
			t.Fatalf("%s fell back: %+v", sql, after.VecFallbackReasons)
		}
		return res.Set, after.VecSelects - before.VecSelects
	}
	for _, sql := range []string{
		`SELECT id FROM item WHERE grp IN (SELECT id FROM grp WHERE boss IS NOT NULL)`,
		`SELECT i.id FROM item i WHERE i.grp IN (SELECT g.id FROM grp g WHERE g.boss IS NOT NULL)`,
		`SELECT id FROM item WHERE grp NOT IN (SELECT boss FROM grp WHERE name <> 'two')`,
	} {
		vec, selects := run(EngineVector, sql)
		if selects != 2 {
			t.Errorf("%s: %d SELECTs, want 2: the outer one and the subquery once", sql, selects)
		}
		if row, _ := run(EngineRow, sql); !reflect.DeepEqual(vec, row) {
			t.Errorf("%s diverges:\nvector: %+v\nrow:    %+v", sql, vec, row)
		}
	}
}

// TestSubqueryMemosPerExecution: a closed scalar subquery, an EXISTS and an
// IN list have one value per execution, not per prepared statement: two
// executions of one statement, an UPDATE between them, each see the data
// current at their own execution, on both engines.
func TestSubqueryMemosPerExecution(t *testing.T) {
	const sql = `SELECT id, (SELECT MAX(boss) FROM grp) AS top,
		EXISTS (SELECT id FROM grp WHERE boss = 4) AS four
		FROM grp WHERE id IN (SELECT boss FROM grp WHERE boss IS NOT NULL) ORDER BY id`
	row := func(id, top int64, four bool) Row { return Row{NewInt(id), NewInt(top), NewBool(four)} }
	before := []Row{row(1, 4, true), row(3, 4, true)}
	after := []Row{row(0, 3, false), row(1, 3, false), row(3, 3, false)}
	for _, engine := range []string{EngineVector, EngineRow} {
		db := parityDB(t)
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		ps, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		exec := func(want []Row) {
			t.Helper()
			res, err := ps.Execute(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Set.Rows, want) {
				t.Errorf("%s: %v, want %v", engine, res.Set.Rows, want)
			}
		}
		// Each side runs twice: pooled contexts rotate between the outer
		// SELECT and its subqueries, so the second run may reuse the
		// context an earlier one left.
		exec(before)
		exec(before)
		if _, err := db.Exec(`UPDATE grp SET boss = 0 WHERE id = 0`, nil); err != nil {
			t.Fatal(err)
		}
		exec(after)
		exec(after)
		if fb := db.Stats().VecFallbacks; fb != 0 {
			t.Errorf("%s: %d fallbacks", engine, fb)
		}
		ps.Close()
	}
}

// decorrDB builds the two tables the decorrelation cases join: an outer
// relation o and a subquery table s whose key k has one row (1, 2), two rows
// (3, one per run), no row (4) and a NULL, with a zero divisor w on a key (9)
// no outer row carries. kf is k as a REAL.
func decorrDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB()
	db.SetResultCacheSize(0)
	for _, s := range []string{
		`CREATE TABLE o (id INTEGER PRIMARY KEY, k INTEGER)`,
		`CREATE TABLE s (id INTEGER PRIMARY KEY, k INTEGER, kf REAL, run INTEGER, v REAL, w INTEGER)`,
		`INSERT INTO o (id, k) VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, NULL), (6, 1)`,
		`INSERT INTO s (id, k, kf, run, v, w) VALUES
			(10, 1, 1.0, 1, 0.5, 1), (11, 2, 2.0, 1, 1.5, 2), (12, 3, 3.0, 1, 2.5, 3),
			(13, 3, 3.0, 2, 3.5, 4), (14, NULL, NULL, 1, 4.5, 5), (15, 9, 9.0, 1, 5.5, 0)`,
	} {
		if _, err := db.Exec(s, nil); err != nil {
			t.Fatalf("setup %q: %v", s, err)
		}
	}
	return db
}

// TestDecorrelatedSubqueriesAgree: a correlated subquery answered from a
// build side gives what the row engine gives, errors included, for the shapes
// where hashing could part from per-row execution. selects is the VecSelects
// delta of the vectorized execution: the outer SELECT plus one per build —
// or, where the outer SELECT runs on the row interpreter (fallback: refused
// at compile time, or replayed after its build failed), one per outer row
// that evaluates the subquery, plus the failed build.
func TestDecorrelatedSubqueriesAgree(t *testing.T) {
	db := decorrDB(t)
	defer db.SetEngine(EngineVector)
	cases := []struct {
		name     string
		sql      string
		selects  int64
		fallback bool
		wantErr  bool
	}{
		// Key 3 has two rows: an error for the row that probes it.
		{"duplicate-probed", `SELECT o.id, (SELECT s.v FROM s WHERE s.k = o.k AND s.run > 0) FROM o ORDER BY o.id`, 2, false, true},
		{"duplicate-unprobed", `SELECT o.id, (SELECT s.v FROM s WHERE s.k = o.k AND s.run > 0) FROM o WHERE o.k <> 3 ORDER BY o.id`, 2, false, false},
		// The grammar has no CASE; AND's short circuit is the guard. Row 3
		// never evaluates the probe, so nothing raises.
		{"duplicate-guarded", `SELECT o.id, o.id <> 3 AND (SELECT s.v FROM s WHERE s.k = o.k AND s.run > 0) > 1 FROM o ORDER BY o.id`, 2, false, false},
		{"missing-keys", `SELECT o.id, (SELECT s.v FROM s WHERE s.k = o.k AND s.run < 2), (SELECT SUM(s.v) FROM s WHERE s.k = o.k),
			(SELECT COUNT(*) FROM s WHERE s.k = o.k), (SELECT COUNT(s.w) FROM s WHERE o.k = s.k) FROM o ORDER BY o.id`, 5, false, false},
		{"null-keys", `SELECT o.id, (SELECT COUNT(*) FROM s WHERE s.k = o.k), (SELECT MAX(s.v) FROM s WHERE o.k = s.k) FROM o ORDER BY o.id`, 3, false, false},
		// REAL against INTEGER does not hash like it compares: refused, the
		// outer SELECT runs on the row interpreter, the subquery once per
		// outer row.
		{"int-float-key", `SELECT o.id, (SELECT COUNT(*) FROM s WHERE s.kf = o.k) FROM o ORDER BY o.id`, 6, true, false},
		// The build divides by zero on key 9, which no outer row probes: the
		// failed build counts, then the outer SELECT replays on the row
		// interpreter and runs the subquery per outer row with a key.
		{"residual-error-unprobed", `SELECT o.id, (SELECT s.v FROM s WHERE s.k = o.k AND s.run < 2 AND 10 / s.w > 1) FROM o WHERE o.k IS NOT NULL ORDER BY o.id`, 1 + 5, true, false},
		// A residual pinning the FROM table's column could seed the
		// correlated execution through an index, by Key equality: refused.
		{"residual-access-path", `SELECT o.id, (SELECT s.v FROM s WHERE s.k = o.k AND s.run = 1) FROM o ORDER BY o.id`, 6, true, false},
		{"empty-outer", `SELECT o.id, (SELECT s.v FROM s WHERE s.k = o.k AND s.run > 0) FROM o WHERE o.id < 0`, 1, false, false},
		// Two key conjuncts whose second outer side is itself a probe: the
		// set form's a12 shape, and its a4 shape with a subquery inner side,
		// which is a build of its own inside the first one's.
		{"two-key-probe", `SELECT o.id, (SELECT s.v FROM s WHERE s.k = o.k AND s.run = (SELECT MIN(m.run) FROM s m WHERE m.k = o.k)) FROM o ORDER BY o.id`, 3, false, false},
		{"two-key-subquery-inner", `SELECT o.id, (SELECT s.run FROM s WHERE s.k = o.k AND (SELECT r.w FROM s r WHERE r.id = s.id) = (SELECT MAX(m.w) FROM s m WHERE m.k = o.k)) FROM o ORDER BY o.id`, 4, false, false},
	}
	type outcome struct {
		set               *ResultSet
		err               error
		selects, fallback int64
	}
	run := func(t *testing.T, sql, engine string) outcome {
		t.Helper()
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		before := db.Stats()
		res, err := db.Exec(sql, nil)
		after := db.Stats()
		o := outcome{err: err, selects: after.VecSelects - before.VecSelects, fallback: after.VecFallbacks - before.VecFallbacks}
		if sub := after.VecFallbackReasons.Subquery - before.VecFallbackReasons.Subquery; sub != o.fallback {
			t.Fatalf("%s: %d fallbacks, %d of them under subquery: %+v", engine, o.fallback, sub, after.VecFallbackReasons)
		}
		if err == nil {
			o.set = res.Set
		}
		return o
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			vec := run(t, c.sql, EngineVector)
			row := run(t, c.sql, EngineRow)
			if vec.selects != c.selects {
				t.Errorf("vectorized execution ran %d SELECTs, want %d", vec.selects, c.selects)
			}
			if want := map[bool]int64{false: 0, true: 1}[c.fallback]; vec.fallback != want {
				t.Errorf("%d fallbacks, want %d", vec.fallback, want)
			}
			if (vec.err != nil) != c.wantErr {
				t.Fatalf("error = %v, want error: %v", vec.err, c.wantErr)
			}
			if fmt.Sprint(vec.err) != fmt.Sprint(row.err) {
				t.Errorf("error diverges from the row engine: vector %v, row %v", vec.err, row.err)
			}
			if !reflect.DeepEqual(vec.set, row.set) {
				t.Errorf("result diverges from the row engine:\nvector: %+v\nrow:    %+v", vec.set, row.set)
			}
		})
	}
}

// TestReplayBoundary: a correlated shape the vectorized compiler refuses, and
// a build or probe that cannot reproduce the row engine at run time, run
// their SELECT node — or their UPDATE — whole on the row interpreter: the
// results and errors are the row engine's, each execution counts one
// fallback, under subquery, and the replay sentinel never leaves the package,
// executed alone or in a batch whose bindings differ in $t.
func TestReplayBoundary(t *testing.T) {
	db := decorrDB(t)
	defer db.SetEngine(EngineVector)
	for _, c := range []struct{ name, sql string }{
		// Refused at compile time.
		{"correlated-exists", `SELECT o.id FROM o WHERE EXISTS (SELECT s.id FROM s WHERE s.k = o.k AND s.run = $t) ORDER BY o.id`},
		{"correlated-in", `SELECT o.id FROM o WHERE o.id + 9 IN (SELECT s.id FROM s WHERE s.k = o.k AND s.run >= $t) ORDER BY o.id`},
		{"non-equality", `SELECT o.id, (SELECT COUNT(*) FROM s WHERE s.k < o.k AND s.run >= $t) FROM o ORDER BY o.id`},
		{"real-key", `SELECT o.id, (SELECT COUNT(*) FROM s WHERE s.kf = o.k AND s.run >= $t) FROM o ORDER BY o.id`},
		{"residual-access-path", `SELECT o.id, (SELECT s.v FROM s WHERE s.k = o.k AND s.run = $t) FROM o ORDER BY o.id`},
		// Replayed at run time: the build divides by zero on key 9, which no
		// outer row probes (and, for $t = 2, key 3 has two rows: an error on
		// both engines); a probe key past 2^53; a probe key that divides by
		// zero where the build, and so the correlated subquery, is empty.
		{"build-error-unprobed", `SELECT o.id, (SELECT s.v FROM s WHERE s.k = o.k AND s.run <= $t AND 10 / s.w > 1) FROM o WHERE o.k IS NOT NULL ORDER BY o.id`},
		{"key-past-2^53", `SELECT o.id, (SELECT COUNT(*) FROM s WHERE s.k = o.k + 9007199254740992 AND s.run >= $t) FROM o ORDER BY o.id`},
		{"key-error-empty-build", `SELECT o.id, (SELECT COUNT(*) FROM s WHERE s.run > $t + 5 AND s.k = 10 / (o.k - 3)) FROM o ORDER BY o.id`},
		{"update-build-error", `UPDATE o SET k = k WHERE o.k IS NOT NULL AND (SELECT s.v FROM s WHERE s.k = o.k AND s.run <= $t AND 10 / s.w > 1) IS NULL`},
	} {
		t.Run(c.name, func(t *testing.T) {
			bindings := []*Params{
				{Named: map[string]Value{"t": NewInt(1)}},
				{Named: map[string]Value{"t": NewInt(2)}},
			}
			type outcome struct {
				res                 []BatchResult
				fallbacks, subquery int64
			}
			run := func(engine string) outcome {
				if err := db.SetEngine(engine); err != nil {
					t.Fatal(err)
				}
				before := db.Stats()
				var o outcome
				for _, b := range bindings {
					res, err := db.Exec(c.sql, b)
					o.res = append(o.res, BatchResult{Res: res, Err: err})
				}
				ps, err := db.Prepare(c.sql)
				if err != nil {
					t.Fatal(err)
				}
				defer ps.Close()
				batch, err := ps.ExecuteBatch(bindings)
				if err != nil {
					t.Fatal(err)
				}
				o.res = append(o.res, batch...)
				after := db.Stats()
				o.fallbacks = after.VecFallbacks - before.VecFallbacks
				o.subquery = after.VecFallbackReasons.Subquery - before.VecFallbackReasons.Subquery
				return o
			}
			vec, row := run(EngineVector), run(EngineRow)
			if n := int64(len(vec.res)); vec.fallbacks != n || vec.subquery != n {
				t.Errorf("%d executions counted %d fallbacks, %d under subquery; want %d and %d", n, vec.fallbacks, vec.subquery, n, n)
			}
			errs := 0
			for i := range vec.res {
				v, r := vec.res[i], row.res[i]
				if errors.Is(v.Err, errReplay) || strings.Contains(fmt.Sprint(v.Err), errReplay.Error()) {
					t.Fatalf("execution %d: the replay sentinel escaped: %v", i, v.Err)
				}
				if fmt.Sprint(v.Err) != fmt.Sprint(r.Err) {
					t.Errorf("execution %d: error %v, row engine %v", i, v.Err, r.Err)
				}
				if v.Err != nil {
					errs++
					continue
				}
				if !reflect.DeepEqual(v.Res.Set, r.Res.Set) || v.Res.Affected != r.Res.Affected {
					t.Errorf("execution %d:\nvector: %+v\nrow:    %+v", i, v.Res, r.Res)
				}
			}
			if errs == len(vec.res) {
				t.Errorf("every execution failed: %v", vec.res[0].Err)
			}
		})
	}
}

// TestOuterReferenceKeepsFusedFilter: the WHERE clause of a set-form property
// subquery — a junction column pinned to the context relation's key, the
// element's run to a parameter — stays on the fused kernels with the outer
// reference as a comparand, and nothing falls back.
func TestOuterReferenceKeepsFusedFilter(t *testing.T) {
	db := parityDB(t)
	if err := db.SetEngine(EngineVector); err != nil {
		t.Fatal(err)
	}
	ps, err := db.Prepare(`SELECT o.id, (SELECT COUNT(*) FROM grp j JOIN item a ON a.grp = j.id WHERE j.boss = o.id AND a.val > $t) FROM grp o`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	plan := ps.plan.Load()
	var inner *selectPlan
	for st, sp := range plan.selects {
		if st != plan.stmt {
			inner = sp
		}
	}
	if inner == nil || inner.vec == nil {
		t.Fatalf("correlated subquery did not compile: %+v", inner)
	}
	if len(inner.vec.fused) != 2 {
		t.Fatalf("WHERE j.boss = o.id AND a.val > $t fused %d of 2 conjuncts", len(inner.vec.fused))
	}
	before := db.Stats()
	res, err := ps.Execute(&Params{Named: map[string]Value{"t": NewFloat(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if after := db.Stats(); after.VecFallbacks != before.VecFallbacks {
		t.Fatalf("%d fallbacks: %+v", after.VecFallbacks-before.VecFallbacks, after.VecFallbackReasons)
	}
	if err := db.SetEngine(EngineRow); err != nil {
		t.Fatal(err)
	}
	want, err := ps.Execute(&Params{Named: map[string]Value{"t": NewFloat(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Set, want.Set) {
		t.Fatalf("fused outer comparand diverges:\nvector: %+v\nrow:    %+v", res.Set, want.Set)
	}
}

// TestFusedAnyOf: a disjunction of text equalities over one TEXT column
// runs as one fused membership kernel, whatever its nesting and whichever
// side its literals stand on, and answers as the row engine does over NULL
// cells, an empty string and a duplicated literal. Any other leaf — a second
// column, another operator, a parameter, an outer reference, a NULL or
// non-text literal, a non-TEXT column — keeps the clause on the filter tree,
// which raises the row engine's error where it has one.
func TestFusedAnyOf(t *testing.T) {
	db := NewDB()
	db.SetResultCacheSize(0)
	db.MustExec(`CREATE TABLE kv (id INTEGER PRIMARY KEY, s TEXT, u TEXT, v INTEGER)`, nil)
	db.MustExec(`INSERT INTO kv (id, s, u, v) VALUES (1, 'Send', 'Send', 1), (2, NULL, 'Recv', NULL),
		(3, 'Recv', NULL, 3), (4, '', 'x', 4), (5, 'send', 'Send', 5), (6, 'Put', 'Put', NULL), (7, NULL, NULL, 7)`, nil)
	var fused []bool
	db.filterHook = func(ok bool) { fused = append(fused, ok) }
	params := &Params{Named: map[string]Value{"p": NewText("Put")}}
	for _, c := range []struct {
		sql        string
		fuse, errs bool
	}{
		{`SELECT id FROM kv WHERE s = 'Send' OR s = 'Recv'`, true, false},
		{`SELECT id FROM kv WHERE u = 'Send' OR 'Recv' = u`, true, false},
		{`SELECT id FROM kv WHERE s = 'Send' OR s = 'Send' OR 'Recv' = s`, true, false},
		{`SELECT id FROM kv WHERE s = 'Send' OR (s = 'Recv' OR (s = 'Put' OR s = ''))`, true, false},
		{`SELECT id FROM kv WHERE (s = 'Send' OR s = 'Recv') OR ('Put' = s OR s = 'none')`, true, false},
		{`SELECT COUNT(*) FROM kv WHERE (s = 'Send' OR s = 'Put') AND v > 1`, true, false},
		{`SELECT id FROM kv WHERE s = 'Send' OR u = 'Recv'`, false, false},
		{`SELECT id FROM kv WHERE s = 'Send' OR s < 'Recv'`, false, false},
		{`SELECT id FROM kv WHERE s = 'Send' OR s = $p`, false, false},
		{`SELECT id FROM kv WHERE s = 'Send' OR s = NULL`, false, false},
		{`SELECT o.id, (SELECT COUNT(*) FROM kv i WHERE i.s = 'Send' OR i.s = o.u) FROM kv o`, false, false},
		{`SELECT id FROM kv WHERE s = 'Send' OR s = 1`, false, true},
		{`SELECT id FROM kv WHERE v = 'x' OR v = 1`, false, true},
	} {
		fused = fused[:0]
		vec, vecErr := runEngine(t, db, EngineVector, c.sql, params)
		if len(fused) == 0 {
			t.Errorf("%s: no vectorized scan with a WHERE ran", c.sql)
		}
		for _, ok := range fused {
			if ok != c.fuse {
				t.Errorf("%s: fused %t, want %t", c.sql, ok, c.fuse)
				break
			}
		}
		row, rowErr := runEngine(t, db, EngineRow, c.sql, params)
		switch {
		case (rowErr != nil) != c.errs:
			t.Errorf("%s: row err=%v", c.sql, rowErr)
		case (vecErr == nil) != (rowErr == nil):
			t.Errorf("%s: vector err=%v, row err=%v", c.sql, vecErr, rowErr)
		case vecErr != nil:
			if vecErr.Error() != rowErr.Error() {
				t.Errorf("%s: vector err=%v, row err=%v", c.sql, vecErr, rowErr)
			}
		case !reflect.DeepEqual(vec, row):
			t.Errorf("%s:\nvector: %+v\nrow:    %+v", c.sql, vec, row)
		}
	}
}

// TestRowEnginePointDMLBytesFlat pins that the row interpreter reads rows in
// place: one UPDATE of a single row by id followed by a point SELECT by id
// must allocate about as much over 30 000 rows as over 3 000. A row-major
// copy of the table, rebuilt after every UPDATE, allocates ten times as much.
func TestRowEnginePointDMLBytesFlat(t *testing.T) {
	bytesPerCycle := func(nrows int) float64 {
		db := NewDB()
		db.SetResultCacheSize(0)
		if err := db.SetEngine(EngineRow); err != nil {
			t.Fatal(err)
		}
		db.MustExec(`CREATE TABLE pt (id INTEGER PRIMARY KEY, v INTEGER, s TEXT)`, nil)
		ins, err := db.Prepare(`INSERT INTO pt (id, v, s) VALUES (?, ?, ?)`)
		if err != nil {
			t.Fatal(err)
		}
		defer ins.Close()
		for i := 0; i < nrows; i++ {
			if _, err := ins.Execute(&Params{Positional: []Value{NewInt(int64(i)), NewInt(int64(i % 7)), NewText("row")}}); err != nil {
				t.Fatal(err)
			}
		}
		upd, err := db.Prepare(`UPDATE pt SET v = v + 1 WHERE id = ?`)
		if err != nil {
			t.Fatal(err)
		}
		defer upd.Close()
		sel, err := db.Prepare(`SELECT v, s FROM pt WHERE id = ?`)
		if err != nil {
			t.Fatal(err)
		}
		defer sel.Close()
		id := &Params{Positional: []Value{NewInt(int64(nrows / 2))}}
		cycle := func() {
			if res, err := upd.Execute(id); err != nil || res.Affected != 1 {
				t.Fatalf("update: %v, %+v", err, res)
			}
			if res, err := sel.Execute(id); err != nil || len(res.Set.Rows) != 1 {
				t.Fatalf("select: %v, %+v", err, res)
			}
		}
		cycle() // warm
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := bytesPerCycle(3000), bytesPerCycle(30000)
	t.Logf("bytes per UPDATE+SELECT: %.0f at 3 000 rows, %.0f at 30 000", small, large)
	if large > 2*small {
		t.Fatalf("bytes per point UPDATE+SELECT grow with the table: %.0f at 3 000 rows, %.0f at 30 000 (limit %.0f)", small, large, 2*small)
	}
}

// TestVecFusedFilterAllocs pins the allocation budget of the fused filter
// path: a prepared aggregation whose WHERE runs on the fused kernels must
// cost a small constant number of allocations per execution, independent of
// row count (the per-row work reads the typed vectors directly) — for a chain
// of three typed comparisons and for an 11-way disjunction of text
// equalities, which fuses as one membership kernel, alike.
func TestVecFusedFilterAllocs(t *testing.T) {
	db := parityDB(t)
	db.SetResultCacheSize(0)
	if err := db.SetEngine(EngineVector); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT COUNT(*) FROM item WHERE val > 1.5 AND grp = 1 AND tag <> 'red'`,
		`SELECT COUNT(*) FROM item WHERE tag = 'Send' OR tag = 'Receive' OR tag = 'Broadcast' OR tag = 'Reduce' OR tag = 'Gather' OR tag = 'Scatter'
			OR tag = 'AllToAll' OR tag = 'SharedGet' OR tag = 'SharedPut' OR tag = 'blue' OR tag = 'red'`,
	} {
		ps, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if vp := ps.plan.Load().selects[ps.plan.Load().stmt.(*SelectStmt)].vec; vp == nil || vp.fused == nil {
			t.Fatalf("%s: WHERE not fused", sql)
		}
		if _, err := ps.Execute(nil); err != nil {
			t.Fatal(err) // warm the pools
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ps.Execute(nil); err != nil {
				t.Fatal(err)
			}
		})
		ps.Close()
		// The budget covers the per-execution fixed costs (execCtx, Result,
		// ResultSet, the output row) — nothing proportional to the 3000 rows.
		if allocs > 32 {
			t.Fatalf("%s: fused filter allocates %.1f per run, want <= 32", sql, allocs)
		}
	}
}

// denseBuildDB holds dk: 1000 rows whose k is one of 1000 keys, every other
// integer, and whose k4 is one of 4 — no index on either, so a build keyed
// by them scans.
func denseBuildDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.SetResultCacheSize(0)
	db.MustExec(`CREATE TABLE dk (id INTEGER PRIMARY KEY, k INTEGER, k4 INTEGER, v REAL)`, nil)
	var sql strings.Builder
	for i := range 1000 {
		if i%500 == 0 {
			sql.Reset()
			sql.WriteString(`INSERT INTO dk (id, k, k4, v) VALUES `)
		} else {
			sql.WriteString(", ")
		}
		fmt.Fprintf(&sql, "(%d, %d, %d, %g)", i, 2*i, i%4, float64(i%17)/4)
		if i%500 == 499 {
			db.MustExec(sql.String(), nil)
		}
	}
	return db
}

// TestDenseBuildAllocs: a decorrelated build over 1000 dense keys, executed
// again and again, allocates no more than a fixed budget per execution —
// its slot array, entries and accumulators come back from its plan at the
// size it grew them to. They do so when the collector empties the pooled
// contexts between executions too: the build of 1000 keys then allocates as
// much as the same build of 4. So does a build an analysis's build table
// shares between two statements, which its maker's plan lends the table.
func TestDenseBuildAllocs(t *testing.T) {
	db := denseBuildDB(t)
	// allocs returns what a run of sql allocates; under share, a run is an
	// analysis of two statements — sql, then sql and a space — under one
	// build table, the second probing the build the first makes.
	allocs := func(sql string, runs int, churn, share bool) float64 {
		texts := []string{sql}
		if share {
			texts = append(texts, sql+" ")
		}
		var pss []*PreparedStmt
		for _, text := range texts {
			ps, err := db.Prepare(text)
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			pss = append(pss, ps)
		}
		exec := func() {
			ctx, done := context.Background(), func() {}
			if share {
				ctx, done = ShareBuilds(ctx)
			}
			before := db.Stats()
			for _, ps := range pss {
				var bindings [1]*Params
				var out [1]BatchResult
				if err := ps.execBatch(ctx, bindings[:], out[:]); err != nil || out[0].Err != nil {
					t.Fatalf("%s: %v, %v", sql, err, out[0].Err)
				}
				if got := out[0].Res.Set.Rows[0][0].Int(); got != 1000 {
					t.Fatalf("%s: count %d, want 1000", sql, got)
				}
			}
			done()
			after := db.Stats()
			if rows, fb, shared := after.BuildRows-before.BuildRows, after.VecFallbacks-before.VecFallbacks, after.SharedBuilds-before.SharedBuilds; rows != 1000 || fb != 0 || shared != int64(len(pss)-1) {
				t.Fatalf("%s: %d build rows, %d fallbacks, %d shared builds", sql, rows, fb, shared)
			}
		}
		exec() // warm the pools and the build's plan
		return testing.AllocsPerRun(runs, func() {
			if churn {
				runtime.GC()
				runtime.GC()
			}
			exec()
		})
	}
	const byKey = `SELECT COUNT(*) FROM dk o WHERE (SELECT MAX(i.v) FROM dk i WHERE i.k = o.k) >= 0`
	const byK4 = `SELECT COUNT(*) FROM dk o WHERE (SELECT MAX(i.v) FROM dk i WHERE i.k4 = o.k4) >= 0`
	if n := allocs(byKey, 50, false, false); n > 32 && !raceEnabled {
		t.Errorf("dense build of 1000 keys allocates %.1f per run, want <= 32", n)
	}
	// Under -race, sync.Pool drops a quarter of what it is given: whether the
	// analysis's second statement finds the execution contexts the first
	// gave back is chance, for either build alike (±13 allocations per run
	// over 20 runs), so the shared case has no budget there.
	for _, share := range []bool{false, true} {
		if keys, four := allocs(byKey, 20, true, share), allocs(byK4, 20, true, share); keys > four+8 && !(share && raceEnabled) {
			t.Errorf("under collector churn (shared %v), the build of 1000 keys allocates %.1f per run, of 4 keys %.1f", share, keys, four)
		}
	}
}

// TestBuildSpillsOncePerPlan: a build whose 100 keys spread over 99 001
// ids, too thinly for a slot array, spills to the map in its plan's first
// execution only; the plan's later builds start in the map.
func TestBuildSpillsOncePerPlan(t *testing.T) {
	db := NewDB()
	db.SetResultCacheSize(0)
	db.MustExec(`CREATE TABLE sk (id INTEGER PRIMARY KEY, k INTEGER, v REAL)`, nil)
	var sql strings.Builder
	sql.WriteString(`INSERT INTO sk (id, k, v) VALUES `)
	for i := range 100 {
		if i > 0 {
			sql.WriteString(", ")
		}
		fmt.Fprintf(&sql, "(%d, %d, %d)", i, 1000*i, i%7)
	}
	db.MustExec(sql.String(), nil)
	ps, err := db.Prepare(`SELECT COUNT(*) FROM sk o WHERE (SELECT MAX(i.v) FROM sk i WHERE i.k = o.k) >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	for run := range 3 {
		// The analysis's build table shows the build, and through it its plan.
		ctx, done := ShareBuilds(context.Background())
		var bindings [1]*Params
		var out [1]BatchResult
		if err := ps.execBatch(ctx, bindings[:], out[:]); err != nil || out[0].Err != nil {
			t.Fatal(err, out[0].Err)
		}
		if got := out[0].Res.Set.Rows[0][0].Int(); got != 100 {
			t.Fatalf("run %d: count %d, want 100", run, got)
		}
		var plans []*corrBuildPlan
		for _, bd := range buildTableOf(ctx).m {
			plans = append(plans, bd.plan)
		}
		done()
		if len(plans) != 1 {
			t.Fatalf("run %d: %d builds, want 1", run, len(plans))
		}
		if n := plans[0].spills.Load(); n != 1 {
			t.Fatalf("run %d: the plan's builds spilled %d times, want once", run, n)
		}
	}
}

// TestDenseBuildConcurrent: executions of one prepared statement running at
// once each take a build state of their own — the plan's spare, or a new
// one — and answer as one execution alone does. The builds read the keys
// $m picks, so a state that came back with a slot or an entry of the
// execution before it answers wrongly.
func TestDenseBuildConcurrent(t *testing.T) {
	db := denseBuildDB(t)
	ps, err := db.Prepare(`SELECT SUM((SELECT MAX(i.v) FROM dk i WHERE i.k = o.k AND i.id % $m = 0)), SUM((SELECT COUNT(*) FROM dk i WHERE i.k4 = o.k4 AND i.k = o.k AND i.id % $m = 1)) FROM dk o`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	params := func(m int) *Params { return &Params{Named: map[string]Value{"m": NewInt(int64(m))}} }
	want := make([]*ResultSet, 4)
	for m := range want {
		res, err := ps.Execute(params(m + 1))
		if err != nil {
			t.Fatal(err)
		}
		want[m] = res.Set
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				m := (g + i) % len(want)
				res, err := ps.Execute(params(m + 1))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Set, want[m]) {
					t.Errorf("$m = %d: %v, want %v", m+1, res.Set.Rows, want[m].Rows)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCorrBuildLayouts drives one build state through builds whose keys are
// dense, spread so that the slot array moves, sparse enough to spill to the
// map, or of two components, emptied between builds as release empties
// them: every key finds the entry it was given, no other key finds one, and
// the emptied state holds no slot set.
func TestCorrBuildLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bd := &corrBuild{}
	for round := range 300 {
		nkey := 1 + round%5/4 // every fifth build has two components
		rows := 1 + rng.Intn(300)
		spread := []int64{1, 3, 50, 1 << 20}[rng.Intn(4)]
		base := rng.Int63n(8)*500 - 2000 // windows of successive builds overlap
		key := func() corrHashKey {
			k := corrHashKey{base + rng.Int63n(spread*int64(rows)+1)}
			if nkey == 2 {
				k[1] = rng.Int63n(3)
			}
			return k
		}
		bd.dense, bd.rows = nkey == 1, rows
		want := make(map[corrHashKey]int32)
		for range rows {
			k := key()
			e, found := bd.find(k)
			if w, ok := want[k]; ok != found || ok && w != e {
				t.Fatalf("round %d, key %v: find = %d, %v; want %d, %v", round, k, e, found, w, ok)
			}
			if !found {
				want[k] = bd.insert(k, false)
			}
		}
		for range 2 * rows {
			k := key()
			w, ok := want[k]
			if e, found := bd.find(k); ok != found || ok && w != e {
				t.Fatalf("round %d, probe %v: find = %d, %v; want %d, %v", round, k, e, found, w, ok)
			}
		}
		bd.reset()
		if i := slices.IndexFunc(bd.slots, func(s int32) bool { return s != 0 }); i >= 0 {
			t.Fatalf("round %d: slot %d still set after reset", round, i)
		}
	}
}

// TestVecDMLParity runs the same UPDATE/DELETE battery on both engines
// against identical databases and checks the mutated tables match row for
// row — including WHERE shapes that bail from the fused kernels.
func TestVecDMLParity(t *testing.T) {
	stmts := []struct {
		name   string
		sql    string
		params *Params
	}{
		{"update-const", `UPDATE item SET tag = 'x' WHERE grp = 2`, nil},
		{"update-expr", `UPDATE item SET val = val * 2 + 1 WHERE val > 2`, nil},
		{"update-null", `UPDATE item SET grp = NULL WHERE id % 7 = 0`, nil},
		{"update-no-where", `UPDATE item SET tag = 'all'`, nil},
		{"update-param", `UPDATE item SET val = 0.5 WHERE grp = ?`, &Params{Positional: []Value{NewInt(3)}}},
		{"update-sub", `UPDATE item SET grp = (SELECT MIN(id) FROM grp) WHERE grp IS NULL`, nil},
		{"delete-cmp", `DELETE FROM item WHERE val < 1`, nil},
		{"delete-and", `DELETE FROM item WHERE grp = 1 AND tag = 'green'`, nil},
		{"delete-in-sub", `DELETE FROM item WHERE grp IN (SELECT id FROM grp WHERE boss IS NULL)`, nil},
		{"delete-null-where", `DELETE FROM item WHERE NULL`, nil},
	}
	vecDB, rowDB := parityDB(t), parityDB(t)
	if err := vecDB.SetEngine(EngineVector); err != nil {
		t.Fatal(err)
	}
	if err := rowDB.SetEngine(EngineRow); err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		vres, verr := vecDB.Exec(s.sql, s.params)
		rres, rerr := rowDB.Exec(s.sql, s.params)
		if (verr == nil) != (rerr == nil) {
			t.Fatalf("%s: error divergence: vector=%v row=%v", s.name, verr, rerr)
		}
		if verr != nil {
			continue
		}
		if vres.Affected != rres.Affected {
			t.Fatalf("%s: affected %d (vector) != %d (row)", s.name, vres.Affected, rres.Affected)
		}
		vset, err := vecDB.Exec(`SELECT id, grp, val, tag FROM item ORDER BY id`, nil)
		if err != nil {
			t.Fatal(err)
		}
		rset, err := rowDB.Exec(`SELECT id, grp, val, tag FROM item ORDER BY id`, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(vset.Set, rset.Set) {
			t.Fatalf("%s: table state diverged after statement", s.name)
		}
	}
}

// TestVecDMLVisibility checks that the vectorized read path sees DML
// immediately: updates, deletes, and inserts between SELECTs.
func TestVecDMLVisibility(t *testing.T) {
	db := parityDB(t)
	if err := db.SetEngine(EngineVector); err != nil {
		t.Fatal(err)
	}
	count := func() int64 {
		set := mustQuery(t, db, `SELECT COUNT(*) FROM item WHERE tag = 'purple'`, nil)
		return set.Rows[0][0].Int()
	}
	if n := count(); n != 0 {
		t.Fatalf("purple = %d, want 0", n)
	}
	if _, err := db.Exec(`UPDATE item SET tag = 'purple' WHERE grp = 1`, nil); err != nil {
		t.Fatal(err)
	}
	want := mustQuery(t, db, `SELECT COUNT(*) FROM item WHERE grp = 1`, nil).Rows[0][0].Int()
	if n := count(); n != want {
		t.Fatalf("purple after update = %d, want %d", n, want)
	}
	if _, err := db.Exec(`DELETE FROM item WHERE tag = 'purple'`, nil); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 0 {
		t.Fatalf("purple after delete = %d, want 0", n)
	}
	if _, err := db.Exec(`INSERT INTO item (id, grp, val, tag) VALUES (90001, 1, 1.5, 'purple')`, nil); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Fatalf("purple after insert = %d, want 1", n)
	}
}

// TestVecBatchBoundary exercises predicates whose selectivity straddles the
// batch size, on a table slightly larger than two batches.
func TestVecBatchBoundary(t *testing.T) {
	db := NewDB()
	db.SetResultCacheSize(0)
	if _, err := db.Exec(`CREATE TABLE n (id INTEGER PRIMARY KEY, v INTEGER)`, nil); err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO n (id, v) VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	total := 2*vecBatchSize + 100
	for i := 0; i < total; i++ {
		if _, err := ins.Execute(&Params{Positional: []Value{NewInt(int64(i)), NewInt(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		`SELECT COUNT(*) FROM n WHERE v >= 1024`,
		`SELECT SUM(v) FROM n WHERE v < 1025`,
		`SELECT id FROM n WHERE v = 1023 OR v = 1024 OR v = 2047 OR v = 2048 ORDER BY id`,
	} {
		vecSet, vecErr := runEngine(t, db, EngineVector, sql, nil)
		rowSet, rowErr := runEngine(t, db, EngineRow, sql, nil)
		if vecErr != nil || rowErr != nil {
			t.Fatalf("%q: vector=%v row=%v", sql, vecErr, rowErr)
		}
		if !reflect.DeepEqual(vecSet, rowSet) {
			t.Fatalf("%q diverged:\nvector: %+v\nrow:    %+v", sql, vecSet, rowSet)
		}
	}
}

// TestVecSumOrderStable pins bit-identical float aggregation: both engines
// must fold SUM in storage order, so even order-sensitive float sums match
// exactly (string formatting included).
func TestVecSumOrderStable(t *testing.T) {
	db := parityDB(t)
	vecSet, err := runEngine(t, db, EngineVector, `SELECT SUM(val), AVG(val) FROM item`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rowSet, err := runEngine(t, db, EngineRow, `SELECT SUM(val), AVG(val) FROM item`, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vecSet.Rows[0] {
		v, r := vecSet.Rows[0][i], rowSet.Rows[0][i]
		if v.String() != r.String() || v.Float() != r.Float() {
			t.Fatalf("col %d: vector %s (%b) != row %s (%b)", i, v, v.Float(), r, r.Float())
		}
	}
	if !strings.Contains(vecSet.Columns[0], "col") && vecSet.Columns[0] != rowSet.Columns[0] {
		t.Fatalf("column names diverge: %v vs %v", vecSet.Columns, rowSet.Columns)
	}
}

// TestDecorrelatedSumOrderStable: a build side folds each key's rows in the
// order the correlated execution visits them — storage order — so a float
// SUM whose value depends on that order (key 1 holds 1e16, 1, -1e16, 1:
// 1 left to right, 2 or 0 in other orders; key 2's rows interleave) has the
// row engine's bits.
func TestDecorrelatedSumOrderStable(t *testing.T) {
	db := NewDB()
	db.SetResultCacheSize(0)
	db.MustExec(`CREATE TABLE g (id INTEGER PRIMARY KEY)`, nil)
	db.MustExec(`CREATE TABLE f (id INTEGER PRIMARY KEY, k INTEGER, v REAL)`, nil)
	db.MustExec(`INSERT INTO g (id) VALUES (1), (2)`, nil)
	for i, r := range []struct {
		k int64
		v float64
	}{{1, 1e16}, {2, 3}, {1, 1}, {2, 1e16}, {1, -1e16}, {2, -1e16}, {1, 1}} {
		db.MustExec(`INSERT INTO f (id, k, v) VALUES (?, ?, ?)`, &Params{Positional: []Value{NewInt(int64(i)), NewInt(r.k), NewFloat(r.v)}})
	}
	const q = `SELECT g.id, (SELECT SUM(f.v) FROM f WHERE f.k = g.id), (SELECT AVG(f.v) FROM f WHERE f.k = g.id) FROM g ORDER BY g.id`
	run := func(engine string) *ResultSet {
		t.Helper()
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		before := db.Stats()
		set := mustQuery(t, db, q, nil)
		if selects := db.Stats().VecSelects - before.VecSelects; engine == EngineVector && selects != 3 {
			t.Fatalf("%d SELECTs, want 3: the outer one and two builds", selects)
		}
		return set
	}
	got := run(EngineVector)
	if sum := got.Rows[0][1]; sum.Float() != 1 {
		t.Errorf("SUM over key 1 = %s, want 1 (storage order)", sum)
	}
	ref := run(EngineRow)
	for i, r := range got.Rows {
		for j, v := range r {
			w := ref.Rows[i][j]
			if v.String() != w.String() || math.Float64bits(v.Float()) != math.Float64bits(w.Float()) {
				t.Errorf("row %d col %d: decorrelated %s (%b), row engine %s (%b)", i, j, v, v.Float(), w, w.Float())
			}
		}
	}
}
