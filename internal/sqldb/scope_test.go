// Name resolution: a column reference resolves by one rule, in the planner
// and in the row interpreter alike. A qualifier names the innermost binding
// that carries it, and a table that lacks the column makes the reference an
// unknown column: it never falls through to an outer namesake.
package sqldb_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqldb"
)

// TestOneScopeRule runs statements that reuse an alias on both engines, with
// the result cache on and off, and with and without an index on a.x. Each
// case returned a wrong answer when the planner and the executors each
// resolved names their own way.
func TestOneScopeRule(t *testing.T) {
	ints := func(pairs ...[2]int64) []sqldb.Row {
		var rows []sqldb.Row
		for _, p := range pairs {
			rows = append(rows, sqldb.Row{sqldb.NewInt(p[0]), sqldb.NewInt(p[1])})
		}
		return rows
	}
	for _, tc := range []struct {
		name, sql string
		want      []sqldb.Row
		unknown   string // the statement must raise this unknown column instead
	}{
		// The inner b.y is the joined b's. An access path on a.x seeded by
		// it read the outer b's row, before the inner b was bound.
		{"join-seed", `SELECT b.y, (SELECT COUNT(*) FROM a JOIN b ON 1 = 1 WHERE a.x = b.y) AS n FROM b ORDER BY b.y`,
			ints([2]int64{1, 3}, [2]int64{2, 3}, [2]int64{3, 3}), ""},
		// The inner a is b, which has no x: the invariant-subquery memo
		// froze the first outer row's count.
		{"memo", `SELECT a.x, (SELECT COUNT(*) FROM b a WHERE a.x > 1) AS n FROM a`, nil, "a.x"},
		// a.y is the inner a's; a.x fell through to the outer a on the row
		// engine only.
		{"key", `SELECT a.x, (SELECT COUNT(*) FROM b a WHERE a.y = a.x) AS n FROM a`, nil, "a.x"},
		// The EXISTS read nothing and returned no rows.
		{"exists", `SELECT a.x FROM a WHERE EXISTS (SELECT 1 FROM b a WHERE a.x = 2)`, nil, "a.x"},
		// The inner c is b, which has no x. An access path on a.x seeded by
		// c.x + 10 read the outer c's x, before the inner c was bound, and
		// found no row.
		{"seed-unbound", `SELECT c.x, (SELECT COUNT(*) FROM a JOIN b c ON 1 = 1 WHERE a.x = c.x + 10) AS n FROM a c`, nil, "c.x"},
	} {
		for _, engine := range []string{sqldb.EngineVector, sqldb.EngineRow} {
			for _, cache := range []bool{true, false} {
				for _, index := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/%s/cache=%v/index=%v", tc.name, engine, cache, index), func(t *testing.T) {
						db := scopeDB(t, engine, cache, index)
						res, err := db.Exec(tc.sql, nil)
						if tc.unknown != "" {
							if err == nil {
								t.Fatalf("%s: got %v, want the unknown column %s", tc.sql, res.Set.Rows, tc.unknown)
							}
							if !strings.Contains(err.Error(), "unknown column "+tc.unknown) {
								t.Fatalf("%s: %v, want the unknown column %s", tc.sql, err, tc.unknown)
							}
							return
						}
						if err != nil {
							t.Fatalf("%s: %v", tc.sql, err)
						}
						if !reflect.DeepEqual(res.Set.Rows, tc.want) {
							t.Fatalf("%s:\n got %v\nwant %v", tc.sql, res.Set.Rows, tc.want)
						}
					})
				}
			}
		}
	}
}

// scopeDB is a fresh database on the given engine, with the result cache on
// or off and a.x indexed or not: a(x) and b(y) each hold 1, 2 and 3.
func scopeDB(t *testing.T, engine string, cache, index bool) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	if err := db.SetEngine(engine); err != nil {
		t.Fatal(err)
	}
	if !cache {
		db.SetResultCacheSize(0)
	}
	stmts := []string{
		`CREATE TABLE a (x INTEGER)`,
		`CREATE TABLE b (y INTEGER)`,
		`INSERT INTO a VALUES (1), (2), (3)`,
		`INSERT INTO b VALUES (1), (2), (3)`,
	}
	if index {
		stmts = append(stmts, `CREATE INDEX ax ON a (x)`)
	}
	for _, q := range stmts {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return db
}

// TestAggregateBelongsToTheQueryItReads: SQL gives an aggregate to the query
// its argument reads. One in that query's own WHERE or ON has no group to
// fold over, and the planner refuses the statement on both engines; the row
// interpreter used to fold it over whichever grouped query evaluated the
// subquery. An aggregate whose argument reads only an enclosing grouped query
// is that query's, and folds over its group.
func TestAggregateBelongsToTheQueryItReads(t *testing.T) {
	for _, engine := range []string{sqldb.EngineVector, sqldb.EngineRow} {
		db := shapeDB(t, engine, false)
		for _, sql := range []string{
			`SELECT u.x, (SELECT COUNT(*) FROM u g WHERE g.k < MAX(g.k) + u.x) FROM u GROUP BY u.x`,
			`SELECT k FROM u WHERE MAX(x) > 1`,
			`SELECT a.k FROM u a JOIN u b ON SUM(b.x) > 1`,
			// u has no row to filter: the refusal is the plan's.
			`SELECT k FROM u WHERE k < 0 AND k = (SELECT COUNT(*) FROM t WHERE MIN(t.a) > 0)`,
		} {
			if _, err := db.Exec(sql, nil); err == nil || !strings.Contains(err.Error(), "aggregates the rows it filters") {
				t.Errorf("%s: %s: err = %v", engine, sql, err)
			}
		}
		res, err := db.Exec(`SELECT u.x, (SELECT COUNT(*) FROM t WHERE t.k < MAX(u.k)) FROM u GROUP BY u.x ORDER BY u.x`, nil)
		if err != nil {
			t.Fatalf("%s: outer aggregate: %v", engine, err)
		}
		want := []sqldb.Row{{sqldb.NewInt(10), sqldb.NewInt(0)}, {sqldb.NewInt(20), sqldb.NewInt(1)}}
		if !reflect.DeepEqual(res.Set.Rows, want) {
			t.Errorf("%s: outer aggregate: %v, want %v", engine, res.Set.Rows, want)
		}
	}
}
