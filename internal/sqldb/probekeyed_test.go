package sqldb_test

import (
	"reflect"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/sqlgen"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// TestProbeKeyedBuildReadsProbedRuns: on a dataset of eight runs, the set
// form of SublinearSpeedup reads all runs' junction rows only in the two
// builds whose keys it probes with every owner — the minimum-processor MIN
// over all runs, and a4, whose second key is computed. a12, probed with
// every owner but one run, the minimum-processor one, seeds through that run
// and reads one run's rows, as a9, pinned to $t, and the invariant a14 do.
// With "AND x3.elem_id = $ctx" appended, every build is probed with one
// owner and reads that owner's rows, one per run — but a4: its computed key
// makes it not quiet, so it scans. Both statements agree with the row engine
// and fall back nowhere.
func TestProbeKeyedBuildReadsProbedRuns(t *testing.T) {
	const runs = 8
	ds, err := apprentice.Simulate(apprentice.ScaledStencil(4, 4), apprentice.PartitionSweep(2, 3, 4, 5, 6, 7, 8, 9), 42)
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.NewDB()
	db.SetResultCacheSize(0)
	exec := sqlgen.ExecutorFunc(func(q string, p *sqldb.Params) (int, error) {
		res, err := db.Exec(q, p)
		if err != nil {
			return 0, err
		}
		return res.Affected, nil
	})
	if err := sqlgen.CreateSchema(g.World, exec); err != nil {
		t.Fatal(err)
	}
	if _, err := sqlgen.Load(g.Store, exec); err != nil {
		t.Fatal(err)
	}
	one := func(sql string) sqldb.Value {
		t.Helper()
		res, err := db.Exec(sql, nil)
		if err != nil || len(res.Set.Rows) == 0 {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Set.Rows[0][0]
	}
	if n := one(`SELECT COUNT(*) FROM TestRun`).Int(); n != runs {
		t.Fatalf("%d runs, want %d", n, runs)
	}
	junction := db.Table("Region_TotTimes").NumRows()
	cp := compileSet(t, g.World, "SublinearSpeedup")
	params := &sqldb.Params{Named: map[string]sqldb.Value{
		cp.Params[0].Name: one(`SELECT id FROM TestRun ORDER BY NoPe DESC LIMIT 1`),
		cp.Params[1].Name: one(`SELECT id FROM Region WHERE Kind = 'program'`),
		"ctx":             one(`SELECT MAX(elem_id) FROM Function_Regions`),
	}}
	restricted := cp.SQL + " AND x3.elem_id = $ctx"
	if _, err := sqldb.ParseSQL(restricted); err != nil {
		t.Fatalf("the restricted set form does not parse: %v", err)
	}
	seeds := func(sql string) []int {
		t.Helper()
		if err := db.SetEngine(sqldb.EngineRow); err != nil {
			t.Fatal(err)
		}
		ref, err := db.Exec(sql, params)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.SetEngine(sqldb.EngineVector); err != nil {
			t.Fatal(err)
		}
		var seeds []int
		db.OnSeed(func(table string, rows int) {
			if table == "Region_TotTimes" {
				seeds = append(seeds, rows)
			}
		})
		defer db.OnSeed(nil)
		before := db.Stats()
		res, err := db.Exec(sql, params)
		if err != nil {
			t.Fatal(err)
		}
		if after := db.Stats(); after.VecFallbacks != before.VecFallbacks {
			t.Fatalf("%d fallbacks: %+v", after.VecFallbacks-before.VecFallbacks, after.VecFallbackReasons)
		}
		if len(res.Set.Rows) == 0 || !reflect.DeepEqual(res.Set, ref.Set) {
			t.Fatalf("%d rows, row engine %d, or the engines disagree", len(res.Set.Rows), len(ref.Set.Rows))
		}
		return seeds
	}

	set := seeds(cp.SQL)
	full := 0
	for _, n := range set {
		switch {
		case n == junction:
			full++
		case n > junction/runs:
			t.Errorf("a build seeded %d of %d junction rows: more than one run's", n, junction)
		}
	}
	if full != 2 || len(set) != 5 {
		t.Errorf("set form: junction seeds %v of %d rows; want two scans (the MIN and a4) and three of one run's rows (a9, a12, a14)", set, junction)
	}
	restrictedSeeds := seeds(restricted)
	full = 0
	for _, n := range restrictedSeeds {
		switch {
		case n == junction:
			full++
		case n > runs:
			t.Errorf("restricted set form: junction seed of %d rows, more than one owner's %d", n, runs)
		}
	}
	if full != 1 || len(restrictedSeeds) != 5 {
		t.Errorf("restricted set form: junction seeds %v of %d rows; want one scan (a4) and four of one owner's rows", restrictedSeeds, junction)
	}
}
