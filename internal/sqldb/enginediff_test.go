// Differential fuzzing of the two SELECT execution engines: any query the
// parser accepts must produce the same outcome on the vectorized engine and
// the row interpreter — the same ResultSet when both succeed, and an error on
// both when either fails. The seed corpus is the full canonical property set
// (the queries the analyzer actually runs) plus handcrafted shapes covering
// joins, grouping, subqueries, and three-valued logic over NULLs.
package sqldb_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/sem"
	"repro/internal/asl/sqlgen"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sqldb"
)

// diffState is the shared database the fuzzer queries: the canonical COSY
// schema loaded with a small simulated history, plus an auxiliary table whose
// rows carry NULLs in every column type. Built once per process — the fuzz
// body only ever executes SELECTs against it.
var diffState struct {
	sync.Once
	db  *sqldb.DB
	err error
}

func diffDB(tb testing.TB) *sqldb.DB {
	tb.Helper()
	s := &diffState
	s.Do(func() {
		db := sqldb.NewDB()
		// Cache off: a cached result would be replayed to the second engine
		// and hide any divergence.
		db.SetResultCacheSize(0)
		exec := sqlgen.ExecutorFunc(func(q string, p *sqldb.Params) (int, error) {
			res, err := db.Exec(q, p)
			if err != nil {
				return 0, err
			}
			return res.Affected, nil
		})
		// A deliberately small history: fuzz mutants routinely degrade equi-
		// joins into cartesian products, so worst-case cost must stay bounded.
		ds, err := apprentice.Simulate(apprentice.Stencil(), apprentice.PartitionSweep(2, 4), 42)
		if err != nil {
			s.err = err
			return
		}
		g, err := model.Build(ds)
		if err != nil {
			s.err = err
			return
		}
		if err := sqlgen.CreateSchema(g.World, exec); err != nil {
			s.err = err
			return
		}
		if _, err := sqlgen.Load(g.Store, exec); err != nil {
			s.err = err
			return
		}
		for _, q := range fuzzAux {
			if _, err := db.Exec(q, nil); err != nil {
				s.err = err
				return
			}
		}
		s.db = db
	})
	if s.err != nil {
		tb.Fatal(s.err)
	}
	return s.db
}

// fuzzAux creates and fills the auxiliary table.
var fuzzAux = []string{
	`CREATE TABLE fuzz_aux (id INTEGER PRIMARY KEY, v INTEGER, w REAL, s TEXT, b BOOLEAN)`,
	`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (1, 10, 1.5, 'alpha', TRUE)`,
	`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (2, NULL, 2.5, 'beta', FALSE)`,
	`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (3, 30, NULL, NULL, TRUE)`,
	`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (4, 10, 4.0, 'alpha', NULL)`,
	`INSERT INTO fuzz_aux (id, v, w, s, b) VALUES (5, NULL, NULL, 'gamma', NULL)`,
	// Build keys for every layout of a build side: negative, sparse, NULL,
	// BOOLEAN, a second component g, and two beyond 2^53 (row 5) and at it
	// (row 8), which Compare's float64 conversion makes equal.
	`CREATE TABLE fuzz_keys (id INTEGER PRIMARY KEY, k INTEGER, b BOOLEAN, g INTEGER, w REAL)`,
	`INSERT INTO fuzz_keys (id, k, b, g, w) VALUES (1, -5, TRUE, 1, 1.5), (2, -3, FALSE, 1, 2.5),
		(3, 100000, TRUE, 2, 3.5), (4, -5, NULL, 2, 4.5), (5, 9007199254740993, TRUE, 1, 5.5),
		(6, NULL, FALSE, NULL, 6.5), (7, 1000000000, TRUE, 1, 7.5), (8, 9007199254740992, FALSE, 2, 8.5)`,
}

// bindParams builds actual parameters for a query from three fuzz-controlled
// integers: every distinct $name marker in the text gets one of the values in
// scan order, and positional markers draw from the same pool. Over-binding is
// harmless; under-binding errors identically on both engines.
func bindParams(sql string, p1, p2, p3 int64) *sqldb.Params {
	vals := []int64{p1, p2, p3}
	params := &sqldb.Params{Positional: []sqldb.Value{
		sqldb.NewInt(p1), sqldb.NewInt(p2), sqldb.NewInt(p3),
	}}
	next := 0
	for i := 0; i < len(sql); i++ {
		if sql[i] != '$' {
			continue
		}
		j := i + 1
		for j < len(sql) && (isIdentByte(sql[j])) {
			j++
		}
		if j == i+1 {
			continue
		}
		name := sql[i+1 : j]
		if params.Named == nil {
			params.Named = make(map[string]sqldb.Value)
		}
		if _, ok := params.Named[name]; !ok {
			params.Named[name] = sqldb.NewInt(vals[next%len(vals)])
			next++
		}
		i = j - 1
	}
	return params
}

func isIdentByte(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// compileSet compiles a canonical property's set form as core does.
func compileSet(tb testing.TB, w *sem.World, name string) *sqlgen.CompiledProperty {
	tb.Helper()
	path, ok := core.ContextPath(w.Props[name].Params[0].Type.(*sem.Class).Name)
	if !ok {
		tb.Fatalf("%s: no containment path", name)
	}
	cp, err := sqlgen.CompilePropertySet(w, name, path)
	if err != nil {
		tb.Fatal(err)
	}
	return cp
}

// setFormIDs returns the ids a set-form statement binds in diffDB: the run
// with the most processors and the whole-program region.
func setFormIDs(tb testing.TB) (run, basis int64) {
	tb.Helper()
	db := diffDB(tb)
	one := func(sql string) int64 {
		res, err := db.Exec(sql, nil)
		if err != nil || len(res.Set.Rows) != 1 {
			tb.Fatalf("%s: %v (%+v)", sql, err, res)
		}
		return res.Set.Rows[0][0].Int()
	}
	return one(`SELECT id FROM TestRun ORDER BY NoPe DESC LIMIT 1`), one(`SELECT id FROM Region WHERE Kind = 'program'`)
}

// TestSetFormEnginesAgree: every canonical set form answers with one row per
// context, the same on both engines, and nothing in it falls back to the row
// interpreter — each of its subqueries holds an outer reference to the
// context relation, which the vectorized compiler must take as a constant.
func TestSetFormEnginesAgree(t *testing.T) {
	w := model.MustCompileSpec()
	db := diffDB(t)
	run, basis := setFormIDs(t)
	for _, name := range model.AllProperties {
		cp := compileSet(t, w, name)
		params := &sqldb.Params{Named: map[string]sqldb.Value{
			cp.Params[0].Name: sqldb.NewInt(run), cp.Params[1].Name: sqldb.NewInt(basis),
		}}
		if err := db.SetEngine(sqldb.EngineVector); err != nil {
			t.Fatal(err)
		}
		before := db.Stats()
		vec, err := db.Exec(cp.SQL, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after := db.Stats(); after.VecFallbacks != before.VecFallbacks {
			t.Errorf("%s: %d SELECTs fell back: %+v", name, after.VecFallbacks-before.VecFallbacks, after.VecFallbackReasons)
		}
		if err := db.SetEngine(sqldb.EngineRow); err != nil {
			t.Fatal(err)
		}
		row, err := db.Exec(cp.SQL, params)
		if err := db.SetEngine(sqldb.EngineVector); err != nil {
			t.Fatal(err)
		}
		if err != nil {
			t.Fatalf("%s on the row engine: %v", name, err)
		}
		if len(vec.Set.Rows) == 0 || !reflect.DeepEqual(vec.Set, row.Set) {
			t.Errorf("%s: engines disagree (%d vs %d rows):\nvector: %+v\nrow:    %+v", name, len(vec.Set.Rows), len(row.Set.Rows), vec.Set, row.Set)
		}
	}
}

// TestCanonicalFiltersFuse: every vectorized scan with a WHERE clause that a
// canonical set form and its per-context restriction run, in each dialect
// the analyzer renders, runs the fused kernels — the statement's own SELECTs
// and each decorrelated build over its synthesized WHERE. A clause left on
// the compiled filter tree (CommunicationCost's and IOCost's chains of Type
// equalities, before they fused as one membership test) fails here.
func TestCanonicalFiltersFuse(t *testing.T) {
	w := model.MustCompileSpec()
	db := diffDB(t)
	if err := db.SetEngine(sqldb.EngineVector); err != nil {
		t.Fatal(err)
	}
	run, basis := setFormIDs(t)
	var scans, tree int
	db.OnFilter(func(fused bool) {
		scans++
		if !fused {
			tree++
		}
	})
	defer db.OnFilter(nil)
	for _, name := range model.AllProperties {
		set := compileSet(t, w, name)
		restricted, err := set.Restrict()
		if err != nil {
			t.Fatal(err)
		}
		vals := map[string]sqldb.Value{set.Params[0].Name: sqldb.NewInt(run), set.Params[1].Name: sqldb.NewInt(basis)}
		res, err := db.Exec(set.SQL, &sqldb.Params{Named: vals})
		if err != nil || len(res.Set.Rows) == 0 {
			t.Fatalf("%s: set form: %v", name, err)
		}
		vals[set.Context] = res.Set.Rows[0][0]
		for form, cp := range map[string]*sqlgen.CompiledProperty{"set form": set, "restricted": restricted} {
			for _, dialect := range []string{"kojakdb", "oracle7", "ansi"} {
				r, err := cp.Render(dialect)
				if err != nil {
					t.Fatal(err)
				}
				params := &sqldb.Params{Named: vals}
				if r.ParamOrder != nil {
					params = &sqldb.Params{}
					for _, p := range r.ParamOrder {
						params.Positional = append(params.Positional, vals[p])
					}
				}
				scans, tree = 0, 0
				if _, err := db.Exec(r.SQL, params); err != nil {
					t.Fatalf("%s, %s, %s: %v", name, form, dialect, err)
				}
				if scans == 0 {
					t.Errorf("%s, %s, %s: no vectorized scan with a WHERE ran", name, form, dialect)
				}
				if tree > 0 {
					t.Errorf("%s, %s, %s: %d of %d scans with a WHERE ran the filter tree", name, form, dialect, tree, scans)
				}
			}
		}
	}
}

// FuzzEngineDifferential cross-checks the engines on arbitrary SELECT text,
// and a batched execution of it against its bindings executed one by one.
// Non-SELECT statements are skipped (the database is shared across
// executions), as is text the parser rejects — the parse happens before
// engine dispatch, so rejection cannot diverge.
func FuzzEngineDifferential(f *testing.F) {
	for _, s := range engineDiffSeeds(f) {
		f.Add(s.sql, s.p[0], s.p[1], s.p[2])
	}

	f.Fuzz(func(t *testing.T, sql string, p1, p2, p3 int64) {
		stmt, err := sqldb.ParseSQL(sql)
		if err != nil {
			return
		}
		if _, ok := stmt.(*sqldb.SelectStmt); !ok {
			return
		}
		db := diffDB(t)
		params := bindParams(sql, p1, p2, p3)
		run := func(engine string) (*sqldb.ResultSet, error) {
			if err := db.SetEngine(engine); err != nil {
				t.Fatal(err)
			}
			res, err := db.Exec(sql, params)
			if err != nil {
				return nil, err
			}
			return res.Set, nil
		}
		vecSet, vecErr := run(sqldb.EngineVector)
		rowSet, rowErr := run(sqldb.EngineRow)
		if (vecErr == nil) != (rowErr == nil) {
			t.Fatalf("engine divergence on %q: vector err=%v, row err=%v", sql, vecErr, rowErr)
		}
		checkProbeKeyed(t, db, sql, [3]int64{p1, p2, p3}, params)
		if vecErr != nil {
			return // both failed: agreement
		}
		if !reflect.DeepEqual(vecSet, rowSet) {
			t.Fatalf("engine divergence on %q:\nvector: %+v\nrow:    %+v", sql, vecSet, rowSet)
		}

		// The same statement as one batch whose bindings agree on the second
		// parameter and differ in the others: each binding must come out as
		// it does executed alone, on either engine.
		ps, err := db.Prepare(sql)
		if err != nil {
			t.Fatalf("Prepare of %q, which Exec planned: %v", sql, err)
		}
		defer ps.Close()
		bindings := []*sqldb.Params{params, bindParams(sql, p3, p2, p1), params}
		for _, engine := range []string{sqldb.EngineVector, sqldb.EngineRow} {
			if err := db.SetEngine(engine); err != nil {
				t.Fatal(err)
			}
			batch, err := ps.ExecuteBatch(bindings)
			if err != nil {
				t.Fatalf("%s: batch of %q: %v", engine, sql, err)
			}
			for i, b := range bindings {
				alone, aloneErr := ps.Execute(b)
				if (aloneErr == nil) != (batch[i].Err == nil) {
					t.Fatalf("%s: binding %d of %q: batched err=%v, alone err=%v", engine, i, sql, batch[i].Err, aloneErr)
				}
				if aloneErr == nil && !reflect.DeepEqual(batch[i].Res.Set, alone.Set) {
					t.Fatalf("%s: binding %d of %q:\nbatched: %+v\nalone:   %+v", engine, i, sql, batch[i].Res.Set, alone.Set)
				}
			}
		}
	})
}

// diffSeed is one seed of FuzzEngineDifferential: a statement and the three
// values bindParams binds its markers from.
type diffSeed struct {
	sql string
	p   [3]int64
}

// engineDiffSeeds is FuzzEngineDifferential's seed corpus written in code;
// testdata/fuzz/FuzzEngineDifferential holds the rest.
func engineDiffSeeds(tb testing.TB) []diffSeed {
	tb.Helper()
	var seeds []diffSeed
	add := func(sql string, p1, p2, p3 int64) { seeds = append(seeds, diffSeed{sql, [3]int64{p1, p2, p3}}) }
	w := model.MustCompileSpec()
	compiled, errs := sqlgen.CompileAll(w)
	if len(errs) > 0 {
		tb.Fatalf("canonical properties failed to compile: %v", errs)
	}
	names := make([]string, 0, len(compiled))
	for name := range compiled {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		add(compiled[name].SQL, int64(1), int64(2), int64(3))
	}
	for _, sql := range []string{
		`SELECT v, COUNT(id), SUM(w) FROM fuzz_aux GROUP BY v ORDER BY v`,
		`SELECT a.id, b.s FROM fuzz_aux a JOIN fuzz_aux b ON a.v = b.v ORDER BY a.id, b.id`,
		`SELECT s FROM fuzz_aux WHERE v > ? OR w IS NULL ORDER BY id LIMIT 3`,
		`SELECT id FROM fuzz_aux x WHERE EXISTS (SELECT id FROM fuzz_aux y WHERE y.v = x.v AND y.id <> x.id)`,
		`SELECT id, (SELECT MAX(w) FROM fuzz_aux y WHERE y.v = x.v) FROM fuzz_aux x ORDER BY id`,
		`SELECT COUNT(id) FROM fuzz_aux WHERE b AND s IN ('alpha', 'gamma')`,
		`SELECT v, AVG(w) FROM fuzz_aux GROUP BY v HAVING COUNT(id) > 1`,
		`SELECT MIN(v), MAX(w), COUNT(s) FROM fuzz_aux WHERE id <> $k`,
		// The shape sqlgen emits for an attribute of a UNIQUE value: the set
		// query (junction ⋈ element) projecting the column, in scalar position.
		`SELECT ((SELECT e.w FROM fuzz_aux j JOIN fuzz_aux e ON e.id = j.v WHERE j.id = $o AND (e.b = TRUE)) > 1) AS c0, (SELECT e.s FROM fuzz_aux j JOIN fuzz_aux e ON e.id = j.v WHERE j.id = $o AND (e.b = TRUE)) AS s0`,
		// Batched below with $r varying and $basis constant across bindings.
		`SELECT (SELECT x.w FROM fuzz_aux x WHERE x.id = $r AND x.v = $basis) / (SELECT MAX(y.w) FROM fuzz_aux y WHERE y.v = $basis)`,
		`SELECT (SELECT x.s FROM fuzz_aux x WHERE x.id = ?), (SELECT COUNT(y.id) FROM fuzz_aux y WHERE y.v = ?), EXISTS (SELECT z.id FROM fuzz_aux z WHERE z.v = ?)`,
		// Outer references, one and two SELECTs deep: as equality comparand
		// of a fused filter, inside an OR chain, as access-path key (id is the
		// primary key), NULL (rows 2 and 5 have no v), resolving nowhere
		// (reached and never reached), and ambiguous in the enclosing scope
		// (both TestRun bindings have NoPe, fuzz_aux has not).
		`SELECT o.id, (SELECT COUNT(i.id) FROM fuzz_aux i WHERE i.v = o.v AND i.w > $k) FROM fuzz_aux o ORDER BY o.id`,
		`SELECT o.id, (SELECT COUNT(i.id) FROM fuzz_aux i WHERE i.v = o.v OR i.w > o.w OR i.s = o.s) FROM fuzz_aux o ORDER BY o.id`,
		`SELECT o.id, (SELECT i.s FROM fuzz_aux i WHERE i.id = o.v / 10) FROM fuzz_aux o ORDER BY o.id`,
		`SELECT o.id, (SELECT MAX(m.w) FROM fuzz_aux m WHERE m.v = (SELECT MIN(n.v) FROM fuzz_aux n WHERE n.s = o.s OR n.id = $k)) FROM fuzz_aux o ORDER BY o.id`,
		`SELECT o.id, (SELECT COUNT(m.id) FROM fuzz_aux m WHERE m.id IN (SELECT n.id FROM fuzz_aux n WHERE n.id = o.id OR n.v = o.v)) FROM fuzz_aux o ORDER BY o.id`,
		`SELECT o.id, (SELECT COUNT(i.id) FROM fuzz_aux i WHERE i.v = z.v) FROM fuzz_aux o`,
		`SELECT o.id, (SELECT COUNT(i.id) FROM fuzz_aux i WHERE i.id < 0 AND i.v = z.v) FROM fuzz_aux o ORDER BY o.id`,
		`SELECT a.id, (SELECT COUNT(i.id) FROM fuzz_aux i WHERE i.v = NoPe) FROM TestRun a JOIN TestRun b ON a.id = b.id`,
		// The set form's shape: a context relation, subqueries correlated
		// with its key one and two levels down, the same one under two items.
		`SELECT x.id AS ctx, ((SELECT e.w FROM fuzz_aux j JOIN fuzz_aux e ON e.v = j.v WHERE j.id = x.id AND (e.b = TRUE)) > 1) AS c0, ((SELECT e.w FROM fuzz_aux j JOIN fuzz_aux e ON e.v = j.v WHERE j.id = x.id AND (e.b = TRUE)) / (SELECT MAX(y.w) FROM fuzz_aux y WHERE y.v = $basis)) AS s0 FROM fuzz_aux r JOIN fuzz_aux x ON x.v = r.v WHERE r.id = $k`,
		// Decorrelated subqueries — a hash build per execution, a probe per
		// row: a duplicate build key (v = 10 twice) probed, left unprobed,
		// and guarded out by AND; keys no row carries under a scalar, SUM and
		// COUNT; NULL keys on both sides (v is NULL in rows 2 and 5); a REAL
		// against an INTEGER key (refused: the SELECT runs on the row
		// interpreter); a residual dividing by zero on a row (v = 30) no outer
		// row probes (the build fails, and the SELECT replays on the row
		// interpreter); an empty outer relation; and two keys whose second
		// outer side is itself a probe.
		`SELECT o.id, (SELECT i.w FROM fuzz_aux i WHERE i.v = o.v AND i.id > 0) FROM fuzz_aux o ORDER BY o.id`,
		`SELECT o.id, (SELECT i.w FROM fuzz_aux i WHERE i.v = o.v AND i.id > 0) FROM fuzz_aux o WHERE o.v <> 10 ORDER BY o.id`,
		`SELECT o.id, o.v <> 10 AND (SELECT i.w FROM fuzz_aux i WHERE i.v = o.v AND i.id > 0) > 1 FROM fuzz_aux o ORDER BY o.id`,
		`SELECT o.id, (SELECT i.s FROM fuzz_aux i WHERE i.v = o.id AND i.w > 0), (SELECT SUM(i.w) FROM fuzz_aux i WHERE i.v = o.id), (SELECT COUNT(*) FROM fuzz_aux i WHERE o.id = i.v) FROM fuzz_aux o ORDER BY o.id`,
		`SELECT o.id, (SELECT COUNT(i.id) FROM fuzz_aux i WHERE i.v = o.v), (SELECT MIN(i.w) FROM fuzz_aux i WHERE o.v = i.v) FROM fuzz_aux o ORDER BY o.id`,
		`SELECT o.id, (SELECT COUNT(i.id) FROM fuzz_aux i WHERE i.w = o.v) FROM fuzz_aux o ORDER BY o.id`,
		`SELECT o.id, (SELECT COUNT(i.id) FROM fuzz_aux i WHERE i.id = o.id AND 10 / (i.v - 30) > 0) FROM fuzz_aux o WHERE o.id <> 3 ORDER BY o.id`,
		`SELECT o.id, (SELECT i.w FROM fuzz_aux i WHERE i.v = o.v AND i.id > 0) FROM fuzz_aux o WHERE o.id < 0`,
		`SELECT o.id, (SELECT i.w FROM fuzz_aux i WHERE i.v = o.v AND i.id = (SELECT MIN(m.id) FROM fuzz_aux m WHERE m.v = o.v)) FROM fuzz_aux o ORDER BY o.id`,
		// Disjunctions of text equalities over one TEXT column, which fuse as
		// one membership test: over a NULL cell (row 3), with a duplicated
		// literal, right-nested, parenthesised and beside another conjunct;
		// and the shapes that stay on the filter tree — a leaf on a second
		// column, with <, with a parameter (bound to an integer) or an outer
		// reference, and text literals against an INTEGER column, which the
		// row engine refuses.
		`SELECT id FROM fuzz_aux WHERE s = 'alpha' OR s = 'gamma' ORDER BY id`,
		`SELECT id FROM fuzz_aux WHERE s = 'beta' OR 'beta' = s OR s = 'alpha' ORDER BY id`,
		`SELECT id FROM fuzz_aux WHERE s = 'alpha' OR (s = 'beta' OR (s = 'gamma' OR s = '')) ORDER BY id`,
		`SELECT COUNT(*) FROM fuzz_aux WHERE ((s = 'alpha' OR s = 'beta') OR (s = 'delta' OR s = 'gamma')) AND v > $k`,
		`SELECT id FROM fuzz_aux WHERE s = 'alpha' OR b = TRUE ORDER BY id`,
		`SELECT id FROM fuzz_aux WHERE s = 'gamma' OR s < 'beta' ORDER BY id`,
		`SELECT id FROM fuzz_aux WHERE s = 'alpha' OR s = $k ORDER BY id`,
		`SELECT o.id, (SELECT COUNT(i.id) FROM fuzz_aux i WHERE i.s = 'beta' OR i.s = o.s) FROM fuzz_aux o ORDER BY o.id`,
		`SELECT id FROM fuzz_aux WHERE v = 'x' OR v = 1`,
	} {
		add(sql, int64(10), int64(2), int64(30))
	}
	// The canonical set forms, bound to a run and a basis that exist.
	run, basis := setFormIDs(tb)
	for _, name := range names {
		add(compileSet(tb, w, name).SQL, run, basis, int64(3))
	}
	// The same, each restricted to the first context the set form answers
	// for: the statement core runs per context. Its marker comes last.
	for _, name := range names {
		cp := compileSet(tb, w, name)
		rcp, err := cp.Restrict()
		if err != nil {
			tb.Fatal(err)
		}
		res, err := diffDB(tb).Exec(cp.SQL, bindParams(cp.SQL, run, basis, 0))
		if err != nil || len(res.Set.Rows) == 0 {
			tb.Fatalf("%s: set form: %v", name, err)
		}
		add(rcp.SQL, run, basis, res.Set.Rows[0][0].Int())
	}
	add(`SELECT (SELECT x.w FROM fuzz_aux x WHERE x.id = $r AND x.v = $basis) / (SELECT MAX(y.w) FROM fuzz_aux y WHERE y.v = $basis)`, int64(1), int64(10), int64(4))
	for _, s := range probeKeyedSeeds {
		add(s.sql, s.p[0], s.p[1], s.p[2])
	}
	return seeds
}

// probeKeyedSeeds are FuzzEngineDifferential seeds whose decorrelated
// builds are seeded by the values their probes carry — through the
// junction's owner key or the timing table's run key — or rebuilt by scan,
// where a second probe of the same build asks for a value the first did not
// read, and seeds whose build keys take each layout of a build side. Run as
// seeds, each must fall back as many times as listed (replays count) and
// seed the junction as listed: the rows each build scan of Region_TotTimes
// reads (12 is a scan).
var probeKeyedSeeds = []struct {
	name, sql string
	p         [3]int64
	seeds     []int
	fallbacks int64
}{
	// Run 4 reaches six timing rows, the owners all twelve junction rows;
	// the minimum-run build scans.
	{"probe-keyed-join-key", `SELECT x.elem_id, (SELECT t.Incl FROM Region_TotTimes j JOIN TotalTiming t ON t.id = j.elem_id WHERE j.owner_id = x.elem_id AND t.Run_id = (SELECT MIN(u.Run_id) FROM Region_TotTimes k JOIN TotalTiming u ON u.id = k.elem_id WHERE k.owner_id = x.elem_id)) FROM Function_Regions x ORDER BY x.elem_id`, [3]int64{1, 2, 3}, []int{12, 6}, 0},
	// One context: the owner reaches two rows in both builds.
	{"probe-keyed-from-key", `SELECT x.elem_id, (SELECT t.Incl FROM Region_TotTimes j JOIN TotalTiming t ON t.id = j.elem_id WHERE j.owner_id = x.elem_id AND t.Run_id = (SELECT MIN(u.Run_id) FROM Region_TotTimes k JOIN TotalTiming u ON u.id = k.elem_id WHERE k.owner_id = x.elem_id)) FROM Function_Regions x WHERE x.elem_id = $k ORDER BY x.elem_id`, [3]int64{12, 2, 3}, []int{2, 2}, 0},
	// The guarded probe asks for run 4, the unguarded one for run 5 too: the
	// build is rebuilt by scan.
	{"probe-keyed-rebuilds", `SELECT x.elem_id, r.id, r.id = (SELECT MIN(q.id) FROM TestRun q) AND (SELECT t.Incl FROM Region_TotTimes j JOIN TotalTiming t ON t.id = j.elem_id WHERE j.owner_id = x.elem_id AND t.Run_id = r.id) > 1, (SELECT t.Incl FROM Region_TotTimes j JOIN TotalTiming t ON t.id = j.elem_id WHERE j.owner_id = x.elem_id AND t.Run_id = r.id) FROM Function_Regions x JOIN TestRun r ON r.id > 0 ORDER BY x.elem_id, r.id`, [3]int64{1, 2, 3}, []int{6, 12}, 0},
	// A NULL run matches nothing and reads nothing.
	{"probe-keyed-null-component", `SELECT x.elem_id, o.id, (SELECT COUNT(*) FROM Region_TotTimes j JOIN TotalTiming t ON t.id = j.elem_id WHERE j.owner_id = x.elem_id AND t.Run_id = (SELECT r.id FROM TestRun r WHERE r.NoPe = o.id)) FROM Function_Regions x JOIN fuzz_aux o ON o.id <> 4 ORDER BY x.elem_id, o.id`, [3]int64{1, 2, 3}, []int{6}, 0},
	// The residual divides: the build is not quiet and scans.
	{"probe-keyed-unquiet-residual", `SELECT x.elem_id, (SELECT t.Incl FROM Region_TotTimes j JOIN TotalTiming t ON t.id = j.elem_id WHERE j.owner_id = x.elem_id AND 1 / t.Incl > 0 AND t.Run_id = $t) FROM Function_Regions x WHERE x.elem_id < $k ORDER BY x.elem_id`, [3]int64{4, 12, 3}, []int{12}, 0},
	// Keys spread over far more slots than rows: the build spills to its
	// map. Probes outside the slot array find nothing.
	{"build-keys-sparse", `SELECT o.id, (SELECT SUM(i.w) FROM fuzz_keys i WHERE i.k = o.k AND i.id <> 5) FROM fuzz_keys o WHERE o.id <> 5 ORDER BY o.id`, [3]int64{1, 2, 3}, nil, 0},
	{"build-keys-negative", `SELECT o.id, (SELECT COUNT(*) FROM fuzz_keys i WHERE i.k = o.k AND i.k < $k) FROM fuzz_keys o WHERE o.id <> 5 ORDER BY o.id`, [3]int64{0, 2, 3}, nil, 0},
	{"build-keys-boolean", `SELECT o.id, (SELECT MIN(i.w) FROM fuzz_keys i WHERE i.b = o.b) FROM fuzz_keys o ORDER BY o.id`, [3]int64{1, 2, 3}, nil, 0},
	{"build-keys-two-components", `SELECT o.id, (SELECT MAX(i.w) FROM fuzz_keys i WHERE i.g = o.g AND i.b = o.b) FROM fuzz_keys o ORDER BY o.id`, [3]int64{1, 2, 3}, nil, 0},
	// A build key beyond 2^53 replays: Compare equates it with 2^53.
	{"build-keys-beyond-2^53", `SELECT o.id, (SELECT COUNT(*) FROM fuzz_keys i WHERE i.k = o.k) FROM fuzz_keys o ORDER BY o.id`, [3]int64{1, 2, 3}, nil, 1},
}

// checkProbeKeyed runs sql again on the vectorized engine where it is a
// probe-keyed seed (probeKeyedSeeds): it must succeed without falling back,
// and seed the junction as listed.
func checkProbeKeyed(t *testing.T, db *sqldb.DB, sql string, p [3]int64, params *sqldb.Params) {
	for _, s := range probeKeyedSeeds {
		if s.sql != sql || s.p != p {
			continue
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
		before := db.Stats()
		_, err := db.Exec(sql, params)
		after := db.Stats()
		db.OnSeed(nil)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if n := after.VecFallbacks - before.VecFallbacks; n != s.fallbacks {
			t.Errorf("%s: %d fallbacks, want %d: %+v", s.name, n, s.fallbacks, after.VecFallbackReasons)
		}
		if !reflect.DeepEqual(seeds, s.seeds) {
			t.Errorf("%s: junction seeds %v, want %v", s.name, seeds, s.seeds)
		}
	}
}
