// Differential fuzzing of DML under the two execution engines: an UPDATE and
// a DELETE the parser accepts are interleaved with SELECT snapshots on two
// identically-loaded databases, one running the vectorized engine and one the
// row interpreter. After every statement the engines must agree on error
// presence, affected-row counts, and the full table contents. Unlike
// FuzzEngineDifferential the databases are rebuilt per execution (DML mutates
// state) and the result cache stays ON — invalidation under vectorized DML
// is part of what is being tested. id and v are indexed, so DML that pins
// either seeds through the index on both engines.
package sqldb_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqldb"
)

// dmlFuzzDB builds a small single-table database on the given engine. The
// table mixes all four column types and salts every nullable column with
// NULLs so three-valued WHERE evaluation is always in play. id and v are
// indexed, so a WHERE that pins either seeds through its index.
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
	mustExec(`CREATE INDEX fuzz_dml_v ON fuzz_dml (v)`, nil)
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
	type seed struct {
		upd, del   string
		p1, p2, p3 int64
	}
	var seeds []seed
	for _, s := range [][2]string{
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
		// Seeded through the id and v indexes.
		{`UPDATE fuzz_dml SET w = w * 2, v = v + 1 WHERE v = $k`,
			`DELETE FROM fuzz_dml WHERE id = $k OR v = $k`},
		{`UPDATE fuzz_dml SET s = 'seeded' WHERE id = $k AND b`,
			`DELETE FROM fuzz_dml WHERE v = $k AND w IS NULL`},
		// Correlated subqueries over fuzz_dml itself, in a WHERE and in a
		// SET: decorrelated builds, keyed by v, beside the seeded DML.
		{`UPDATE fuzz_dml SET w = (SELECT MAX(x.w) FROM fuzz_dml x WHERE x.v = fuzz_dml.v) WHERE id > $k`,
			`DELETE FROM fuzz_dml WHERE w < (SELECT AVG(x.w) FROM fuzz_dml x WHERE x.v = fuzz_dml.v)`},
		{`UPDATE fuzz_dml SET v = (SELECT COUNT(*) FROM fuzz_dml x WHERE x.b = fuzz_dml.b) WHERE v = $k`,
			`DELETE FROM fuzz_dml WHERE id = $k AND s = (SELECT MIN(x.s) FROM fuzz_dml x WHERE x.v = fuzz_dml.v)`},
	} {
		seeds = append(seeds, seed{s[0], s[1], 3, 7, 12})
	}
	// A conjunct that raises on a row the id seed skips (v = 3 at id 3, 4 at
	// id 4): seeded, neither engine raises; with $k = 3 the seeded row
	// raises on both.
	for _, k := range []int64{7, 3} {
		seeds = append(seeds, seed{`UPDATE fuzz_dml SET s = 'seeded' WHERE 10 / (v - 4) > 0 AND id = $k`,
			`DELETE FROM fuzz_dml WHERE 10 / (v - 3) > 0 AND id = $k`, k, 12, 4})
	}
	for _, s := range seeds {
		f.Add(s.upd, s.del, s.p1, s.p2, s.p3)
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

// TestDMLSeedsThroughIndex: an UPDATE or DELETE whose WHERE pins an indexed
// column reads only the index's rows for the value, on either engine, as a
// SELECT with the same WHERE does — so a conjunct that would raise only on a
// row the seed skips raises nothing, where a scan raises.
func TestDMLSeedsThroughIndex(t *testing.T) {
	cases := []struct {
		sql      string
		k        int64
		affected int
		seeds    []int // rows of fuzz_dml each seed reads; 24 is a scan
		wantErr  bool
	}{
		// v = 3 at id 3: the scan raises, the seed through id = 7 does not.
		{`DELETE FROM fuzz_dml WHERE 10 / (v - 3) > 0 AND id = $k`, 7, 0, []int{1}, false},
		{`DELETE FROM fuzz_dml WHERE 10 / (v - 3) > 0 AND id + 0 = $k`, 7, 0, []int{24}, true},
		// v = 4 at id 4; v = 5 at id 12.
		{`UPDATE fuzz_dml SET s = 'seeded' WHERE 10 / (v - 4) > 0 AND id = $k`, 12, 1, []int{1}, false},
		// v = 3 at ids 3 and 17 (id 10's v is NULL).
		{`UPDATE fuzz_dml SET w = w * 2 WHERE v = $k`, 3, 2, []int{2}, false},
		{`DELETE FROM fuzz_dml WHERE v = $k`, 3, 2, []int{2}, false},
	}
	var snaps []*sqldb.ResultSet
	for _, engine := range []string{sqldb.EngineVector, sqldb.EngineRow} {
		db := dmlFuzzDB(t, engine)
		for _, c := range cases {
			var seeds []int
			db.OnSeed(func(table string, rows int) {
				if table == "fuzz_dml" {
					seeds = append(seeds, rows)
				}
			})
			res, err := db.Exec(c.sql, &sqldb.Params{Named: map[string]sqldb.Value{"k": sqldb.NewInt(c.k)}})
			db.OnSeed(nil)
			if (err != nil) != c.wantErr {
				t.Fatalf("%s engine, %s: error %v, want error: %v", engine, c.sql, err, c.wantErr)
			}
			if err == nil && res.Affected != c.affected {
				t.Errorf("%s engine, %s: %d rows affected, want %d", engine, c.sql, res.Affected, c.affected)
			}
			if !reflect.DeepEqual(seeds, c.seeds) {
				t.Errorf("%s engine, %s: seeds %v, want %v", engine, c.sql, seeds, c.seeds)
			}
		}
		res, err := db.Exec(`SELECT id, v, w, s, b FROM fuzz_dml ORDER BY id`, nil)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, res.Set)
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) {
		t.Fatalf("engines diverge:\nvector: %v\nrow:    %v", snaps[0].Rows, snaps[1].Rows)
	}
}

// TestDMLRunsTheSelectPipeline: a correlated subquery in a DML WHERE or SET
// decorrelates into a build, as in a SELECT, with no fallback; a refused
// WHERE counts as a fallback like any SELECT node's.
func TestDMLRunsTheSelectPipeline(t *testing.T) {
	cases := []struct {
		sql       string
		fallbacks int64
	}{
		{`UPDATE fuzz_dml SET w = (SELECT MAX(x.w) FROM fuzz_dml x WHERE x.v = fuzz_dml.v) WHERE id > 3`, 0},
		{`DELETE FROM fuzz_dml WHERE w < (SELECT AVG(x.w) FROM fuzz_dml x WHERE x.v = fuzz_dml.v)`, 0},
		// Correlated EXISTS does not vectorize.
		{`DELETE FROM fuzz_dml WHERE EXISTS (SELECT 1 FROM fuzz_dml x WHERE x.v = fuzz_dml.v AND x.id > fuzz_dml.id)`, 1},
	}
	for _, c := range cases {
		vec, row := dmlFuzzDB(t, sqldb.EngineVector), dmlFuzzDB(t, sqldb.EngineRow)
		before := vec.Stats()
		vr, err := vec.Exec(c.sql, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		after := vec.Stats()
		if n := after.VecFallbacks - before.VecFallbacks; n != c.fallbacks {
			t.Errorf("%s: %d fallbacks, want %d: %+v", c.sql, n, c.fallbacks, after.VecFallbackReasons)
		}
		if c.fallbacks == 0 && after.BuildRows == before.BuildRows {
			t.Errorf("%s: no build ran", c.sql)
		}
		rr, err := row.Exec(c.sql, nil)
		if err != nil {
			t.Fatalf("%s on the row engine: %v", c.sql, err)
		}
		if vr.Affected != rr.Affected || vr.Affected == 0 {
			t.Errorf("%s: vector affected %d, row %d", c.sql, vr.Affected, rr.Affected)
		}
		const snap = `SELECT id, v, w, s, b FROM fuzz_dml ORDER BY id`
		vs, rs := vec.MustExec(snap, nil), row.MustExec(snap, nil)
		if !reflect.DeepEqual(vs.Set, rs.Set) {
			t.Errorf("%s: engines diverge:\nvector: %v\nrow:    %v", c.sql, vs.Set.Rows, rs.Set.Rows)
		}
	}
}

// TestDMLRefusedAtPrepare: an aggregate in a SET is refused when the
// statement is prepared — it would make the SELECT that finds the rows
// grouped — whether or not any row matches; one a subquery owns is not. The
// SELECT's rule refuses an aggregate over the table in the WHERE, and an
// unknown SET column is refused with the SET.
func TestDMLRefusedAtPrepare(t *testing.T) {
	db := dmlFuzzDB(t, sqldb.EngineVector)
	for _, c := range []struct{ sql, err string }{
		{`UPDATE fuzz_dml SET v = MAX(v)`, "aggregate in SET v"},
		{`UPDATE fuzz_dml SET s = 'x', w = w + SUM(w) WHERE id < 0`, "aggregate in SET w"},
		{`DELETE FROM fuzz_dml WHERE MAX(v) > 1`, "aggregate MAX in WHERE aggregates the rows it filters"},
		{`UPDATE fuzz_dml SET nope = 1 WHERE id < 0`, "table fuzz_dml has no column nope"},
	} {
		if _, err := db.Prepare(c.sql); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: prepare error %v, want %q", c.sql, err, c.err)
		}
	}
	res, err := db.Exec(`UPDATE fuzz_dml SET v = (SELECT MAX(x.v) FROM fuzz_dml x) WHERE id = 1`, nil)
	if err != nil || res.Affected != 1 {
		t.Fatalf("aggregate in a SET subquery: %v, %+v", err, res)
	}
}
