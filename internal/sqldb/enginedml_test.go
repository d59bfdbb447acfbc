// Differential fuzzing of DML under the two execution engines: an UPDATE and
// a DELETE the parser accepts are interleaved with SELECT snapshots on two
// identically-loaded databases, one running the vectorized engine and one the
// row interpreter. After every statement the engines must agree on error
// presence, affected-row counts, and the full table contents. Unlike
// FuzzEngineDifferential the databases are rebuilt per execution (DML mutates
// state) and the result cache stays ON — invalidation under columnar DML is
// part of what is being tested.
package sqldb_test

import (
	"reflect"
	"testing"

	"repro/internal/sqldb"
)

// dmlFuzzDB builds a small single-table database on the given engine. The
// table mixes all four column types and salts every nullable column with
// NULLs so three-valued WHERE evaluation is always in play.
func dmlFuzzDB(tb testing.TB, engine string) *sqldb.DB {
	tb.Helper()
	db := sqldb.NewDB()
	if err := db.SetEngine(engine); err != nil {
		tb.Fatal(err)
	}
	mustExec := func(q string, p *sqldb.Params) {
		tb.Helper()
		if _, err := db.Exec(q, p); err != nil {
			tb.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(`CREATE TABLE fuzz_dml (id INTEGER PRIMARY KEY, v INTEGER, w REAL, s TEXT, b BOOLEAN)`, nil)
	tags := []string{"alpha", "beta", "gamma"}
	for i := 0; i < 24; i++ {
		p := &sqldb.Params{Named: map[string]sqldb.Value{
			"id": sqldb.NewInt(int64(i)),
			"v":  sqldb.NewInt(int64(i % 7)),
			"w":  sqldb.NewFloat(float64(i) * 1.25),
			"s":  sqldb.NewText(tags[i%len(tags)]),
			"b":  sqldb.NewBool(i%2 == 0),
		}}
		if i%5 == 0 {
			p.Named["v"] = sqldb.Value{}
		}
		if i%4 == 0 {
			p.Named["w"] = sqldb.Value{}
		}
		if i%6 == 0 {
			p.Named["s"] = sqldb.Value{}
		}
		if i%9 == 0 {
			p.Named["b"] = sqldb.Value{}
		}
		mustExec(`INSERT INTO fuzz_dml (id, v, w, s, b) VALUES ($id, $v, $w, $s, $b)`, p)
	}
	return db
}

// FuzzEngineDMLDifferential cross-checks the engines on arbitrary UPDATE and
// DELETE text, interleaved SELECT/UPDATE/SELECT/DELETE/SELECT. Text the
// parser rejects, or that parses to the wrong statement kind, is skipped —
// both happen before engine dispatch, so they cannot diverge.
func FuzzEngineDMLDifferential(f *testing.F) {
	for _, seed := range [][2]string{
		{`UPDATE fuzz_dml SET v = v * 2 + 1 WHERE v > $k`,
			`DELETE FROM fuzz_dml WHERE w IS NULL`},
		{`UPDATE fuzz_dml SET s = 'patched', b = FALSE WHERE id % 3 = 0`,
			`DELETE FROM fuzz_dml WHERE s = 'alpha' OR v IS NULL`},
		{`UPDATE fuzz_dml SET w = NULL WHERE s = 'beta' AND b`,
			`DELETE FROM fuzz_dml WHERE id IN (SELECT id FROM fuzz_dml WHERE v = $k)`},
		{`UPDATE fuzz_dml SET v = $k WHERE id > ?`,
			`DELETE FROM fuzz_dml WHERE NULL`},
		{`UPDATE fuzz_dml SET v = v + 1`,
			`DELETE FROM fuzz_dml WHERE w > (SELECT AVG(w) FROM fuzz_dml)`},
	} {
		f.Add(seed[0], seed[1], int64(3), int64(7), int64(12))
	}

	f.Fuzz(func(t *testing.T, upd, del string, p1, p2, p3 int64) {
		if st, err := sqldb.ParseSQL(upd); err != nil {
			return
		} else if _, ok := st.(*sqldb.UpdateStmt); !ok {
			return
		}
		if st, err := sqldb.ParseSQL(del); err != nil {
			return
		} else if _, ok := st.(*sqldb.DeleteStmt); !ok {
			return
		}
		vec := dmlFuzzDB(t, sqldb.EngineVector)
		row := dmlFuzzDB(t, sqldb.EngineRow)

		// step runs one statement on both databases and checks that the
		// engines agree on error presence (not error identity — the columnar
		// path may surface a different row's error first) and affected rows.
		step := func(sql string, params *sqldb.Params) {
			t.Helper()
			vr, verr := vec.Exec(sql, params)
			rr, rerr := row.Exec(sql, params)
			if (verr == nil) != (rerr == nil) {
				t.Fatalf("engine divergence on %q: vector err=%v, row err=%v", sql, verr, rerr)
			}
			if verr != nil {
				return // both failed: state unchanged on both sides
			}
			if vr.Affected != rr.Affected {
				t.Fatalf("affected divergence on %q: vector %d, row %d", sql, vr.Affected, rr.Affected)
			}
		}
		// snapshot compares the full table contents through each database's
		// own SELECT engine (so a stale result cache or index would show).
		const snapSQL = `SELECT id, v, w, s, b FROM fuzz_dml ORDER BY id`
		snapshot := func(when string) {
			t.Helper()
			vr, verr := vec.Exec(snapSQL, nil)
			rr, rerr := row.Exec(snapSQL, nil)
			if verr != nil || rerr != nil {
				t.Fatalf("snapshot %s: vector err=%v, row err=%v", when, verr, rerr)
			}
			if !reflect.DeepEqual(vr.Set, rr.Set) {
				t.Fatalf("engine divergence %s:\nvector: %+v\nrow:    %+v", when, vr.Set, rr.Set)
			}
		}

		snapshot("before DML")
		step(upd, bindParams(upd, p1, p2, p3))
		snapshot("after UPDATE")
		step(del, bindParams(del, p1, p2, p3))
		snapshot("after DELETE")
	})
}
