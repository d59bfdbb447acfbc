// Equal subqueries and equal statements: the engine shares work between
// subqueries of one statement whose source text is byte-identical (the
// parser's shape ids) and caches results per prepared statement. Texts that
// differ only where a printer would blur them — an integral REAL literal
// against an INTEGER one, or two positional markers — must not share.
package sqldb_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sqldb"
)

// shapeDB is a fresh database on the given engine, with the result cache on
// or off: t holds one row whose a is the largest INTEGER, u two rows.
func shapeDB(t testing.TB, engine string, cache bool) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	if err := db.SetEngine(engine); err != nil {
		t.Fatal(err)
	}
	if !cache {
		db.SetResultCacheSize(0)
	}
	for _, q := range []string{
		`CREATE TABLE t (k INTEGER PRIMARY KEY, a INTEGER)`,
		`CREATE TABLE u (k INTEGER PRIMARY KEY, x INTEGER)`,
		`INSERT INTO t VALUES (1, 9223372036854775807)`,
		`INSERT INTO u VALUES (1, 10), (2, 20)`,
	} {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return db
}

// TestParserShapeIDs: subquery nodes share a shape id exactly when their
// source spans are byte-identical and hold no positional marker. A string
// needle is part of its IN's span.
func TestParserShapeIDs(t *testing.T) {
	const sql = `SELECT (SELECT 1), (SELECT 1), (SELECT 1.0), (SELECT  1), EXISTS (SELECT 1), ` +
		`(SELECT ?), (SELECT ?), (SELECT $p), (SELECT $p), ` +
		`'a' IN (SELECT s FROM x), 'b' IN (SELECT s FROM x), 'a' IN (SELECT s FROM x), ` +
		`EXISTS (SELECT 1) IN (SELECT (SELECT 1))`
	stmt, err := sqldb.ParseSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	shape := func(e sqldb.Expr) int {
		switch x := e.(type) {
		case *sqldb.ESubquery:
			return x.Shape
		case *sqldb.EExists:
			return x.Shape
		case *sqldb.EIn:
			return x.Shape
		}
		t.Fatalf("%T has no shape", e)
		return 0
	}
	for _, item := range stmt.(*sqldb.SelectStmt).Items {
		got = append(got, shape(item.Expr))
	}
	// The last IN's needle is the EXISTS before it, its subquery's item the
	// first subquery.
	in := stmt.(*sqldb.SelectStmt).Items[12].Expr.(*sqldb.EIn)
	got = append(got, shape(in.X), shape(in.Sub.Items[0].Expr))
	want := []int{0, 0, 1, 2, 3, 4, 5, 6, 6, 7, 8, 7, 9, 3, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shape ids %v, want %v", got, want)
	}
}

// TestEqualTextOnlyShares: each case runs its statements in turn on both
// engines, with the result cache on and off, and the last statement must
// return want — value kinds included.
func TestEqualTextOnlyShares(t *testing.T) {
	positional := &sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(1), sqldb.NewInt(2)}}
	for _, tc := range []struct {
		name   string
		before string // run first, its result unchecked
		sql    string
		params *sqldb.Params
		want   []sqldb.Row
	}{
		// The result cache keyed both statements by one text: the second
		// answered with the first's overflowed INTEGER.
		{"cache-real-literal", `SELECT a + 1 AS v FROM t`, `SELECT a + 1.0 AS v FROM t`, nil,
			[]sqldb.Row{{sqldb.NewFloat(9.223372036854776e18)}}},
		// The vectorized engine built one decorrelated side for both.
		{"correlated-real-literal", "",
			`SELECT t.k, (SELECT u.x + 1 FROM u WHERE u.k = t.k) AS a, (SELECT u.x + 1.0 FROM u WHERE u.k = t.k) AS b FROM t`, nil,
			[]sqldb.Row{{sqldb.NewInt(1), sqldb.NewInt(11), sqldb.NewFloat(11)}}},
		// Both engines memoized one invariant value for both.
		{"invariant-real-literal", "",
			`SELECT (SELECT MAX(u.x) + 1 FROM u) AS a, (SELECT MAX(u.x) + 1.0 FROM u) AS b FROM t`, nil,
			[]sqldb.Row{{sqldb.NewInt(21), sqldb.NewFloat(21)}}},
		// Both engines memoized the first marker's value for the second.
		{"positional-ordinal", "",
			`SELECT (SELECT u.x FROM u WHERE u.k = ?) AS a, (SELECT u.x FROM u WHERE u.k = ?) AS b FROM t`, positional,
			[]sqldb.Row{{sqldb.NewInt(10), sqldb.NewInt(20)}}},
		{"positional-ordinal-exists", "",
			`SELECT t.k FROM t WHERE EXISTS (SELECT u.x FROM u WHERE u.k = ?) AND EXISTS (SELECT u.x FROM u WHERE u.k = ?)`,
			&sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(1), sqldb.NewInt(3)}},
			nil},
	} {
		for _, engine := range []string{sqldb.EngineVector, sqldb.EngineRow} {
			for _, cache := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/cache=%v", tc.name, engine, cache), func(t *testing.T) {
					db := shapeDB(t, engine, cache)
					if tc.before != "" {
						if _, err := db.Exec(tc.before, tc.params); err != nil {
							t.Fatalf("%s: %v", tc.before, err)
						}
					}
					res, err := db.Exec(tc.sql, tc.params)
					if err != nil {
						t.Fatalf("%s: %v", tc.sql, err)
					}
					if got := res.Set.Rows; (len(got) > 0 || len(tc.want) > 0) && !reflect.DeepEqual(got, tc.want) {
						t.Fatalf("%s:\n got %#v\nwant %#v", tc.sql, res.Set.Rows, tc.want)
					}
				})
			}
		}
	}
}

// FuzzResultCacheKey: running one SELECT and then another on a database with
// the result cache on gives the second the outcome it has alone on a
// cache-off twin — the same rows, value kinds included, or an error on both.
// A cached result may answer only the statement that produced it.
func FuzzResultCacheKey(f *testing.F) {
	f.Add(`SELECT v + 1 AS r FROM fuzz_aux ORDER BY id`, `SELECT v + 1.0 AS r FROM fuzz_aux ORDER BY id`, int64(1), int64(2))
	f.Add(`SELECT id FROM fuzz_aux ORDER BY v NULLS LAST`, `SELECT id FROM fuzz_aux ORDER BY v`, int64(1), int64(2))
	f.Add(`SELECT s FROM fuzz_aux WHERE id = ?`, `SELECT s FROM fuzz_aux WHERE id = ? + 0`, int64(1), int64(2))
	f.Add(`SELECT (SELECT MAX(w) FROM fuzz_aux WHERE v = $k)`, `SELECT (SELECT MAX(w) FROM fuzz_aux WHERE v = $k) * 1`, int64(10), int64(30))
	f.Fuzz(func(t *testing.T, first, second string, p1, p2 int64) {
		for _, sql := range []string{first, second} {
			if stmt, err := sqldb.ParseSQL(sql); err != nil {
				return
			} else if _, ok := stmt.(*sqldb.SelectStmt); !ok {
				return
			}
		}
		cached, alone := cacheKeyDB(t, true), cacheKeyDB(t, false)
		cached.Exec(first, bindParams(first, p1, p2, p1))
		params := bindParams(second, p1, p2, p2)
		got, gotErr := cached.Exec(second, params)
		want, wantErr := alone.Exec(second, params)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("after %q, %q: cache on err=%v, cache off err=%v", first, second, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got.Set.Rows, want.Set.Rows) {
			t.Fatalf("after %q, %q:\ncache on:  %#v\ncache off: %#v", first, second, got.Set.Rows, want.Set.Rows)
		}
	})
}

// cacheKeyDB is a fresh database holding FuzzEngineDifferential's auxiliary
// table, fuzz_aux, with the result cache on or off.
func cacheKeyDB(t *testing.T, cache bool) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	if !cache {
		db.SetResultCacheSize(0)
	}
	for _, q := range fuzzAux {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return db
}
