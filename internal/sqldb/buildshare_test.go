// Builds shared by the statements of one analysis (sqldb.ShareBuilds): a
// statement run under a build table must answer exactly as it does alone —
// the same rows, the same error, the same fallbacks — whichever statement
// made the builds it probes.
package sqldb_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/sqldb"
)

// outcome is what one execution of a statement showed: its rows, its error
// text, and the counters it moved.
type outcome struct {
	set       *sqldb.ResultSet
	err       string
	fallbacks int64
	selects   int64
	buildRows int64
	shared    int64
}

// runStmt executes sql once with params under ctx on the vectorized engine,
// as a prepared batch of one binding.
func runStmt(t *testing.T, ctx context.Context, db *sqldb.DB, sql string, params *sqldb.Params) outcome {
	t.Helper()
	ps, err := db.Prepare(sql)
	if err != nil {
		return outcome{err: err.Error()}
	}
	defer ps.Close()
	before := db.Stats()
	res, err := ps.ExecuteBatchContext(ctx, []*sqldb.Params{params})
	after := db.Stats()
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	o := outcome{
		fallbacks: after.VecFallbacks - before.VecFallbacks,
		selects:   after.VecSelects - before.VecSelects,
		buildRows: after.BuildRows - before.BuildRows,
		shared:    after.SharedBuilds - before.SharedBuilds,
	}
	if res[0].Err != nil {
		o.err = res[0].Err.Error()
	} else {
		o.set = res[0].Res.Set
	}
	return o
}

// sameAnswer reports whether two outcomes agree in rows, error and
// fallbacks.
func sameAnswer(a, b outcome) bool {
	return a.err == b.err && a.fallbacks == b.fallbacks && reflect.DeepEqual(a.set, b.set)
}

// corpusSeeds reads the seeds testdata/fuzz/FuzzEngineDifferential holds.
func corpusSeeds(t *testing.T) []diffSeed {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzEngineDifferential", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	var seeds []diffSeed
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var s diffSeed
		var ints int
		for _, line := range strings.Split(string(data), "\n")[1:] {
			switch {
			case strings.HasPrefix(line, "string("):
				if s.sql, err = strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")")); err != nil {
					t.Fatalf("%s: %v", f, err)
				}
			case strings.HasPrefix(line, "int64("):
				if s.p[ints], err = strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(line, "int64("), ")"), 10, 64); err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				ints++
			}
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestSharedBuildsAgreeOnCorpus runs every seed of FuzzEngineDifferential as
// two distinct statements — its text, then its text and a space — under one
// build table, and each must answer as the text does alone. The canonical
// set forms share their builds between the two.
func TestSharedBuildsAgreeOnCorpus(t *testing.T) {
	db := diffDB(t)
	if err := db.SetEngine(sqldb.EngineVector); err != nil {
		t.Fatal(err)
	}
	var shared int64
	for _, s := range append(engineDiffSeeds(t), corpusSeeds(t)...) {
		stmt, err := sqldb.ParseSQL(s.sql)
		if _, isSelect := stmt.(*sqldb.SelectStmt); err != nil || !isSelect {
			continue
		}
		params := bindParams(s.sql, s.p[0], s.p[1], s.p[2])
		alone := runStmt(t, context.Background(), db, s.sql, params)
		ctx, done := sqldb.ShareBuilds(context.Background())
		first := runStmt(t, ctx, db, s.sql, params)
		second := runStmt(t, ctx, db, s.sql+" ", params)
		done()
		for i, o := range []outcome{first, second} {
			if !sameAnswer(o, alone) {
				t.Errorf("statement %d of %q under one table:\n got %+v\nwant %+v", i+1, s.sql, o, alone)
			}
		}
		shared += second.shared
	}
	if shared == 0 {
		t.Error("no seed shared a build")
	}
	t.Logf("%d builds shared", shared)
}

// shareDB is a small database for the sharing rules: o's rows probe t by
// group, and t's row 2 divides by zero under "10 / x".
func shareDB(t *testing.T, xs ...int) *sqldb.DB {
	t.Helper()
	db := sqldb.NewDB()
	db.SetResultCacheSize(0)
	for _, q := range []string{
		`CREATE TABLE t (k INTEGER PRIMARY KEY, g INTEGER, x INTEGER)`,
		`CREATE TABLE o (id INTEGER PRIMARY KEY, g INTEGER)`,
		`INSERT INTO t VALUES (1, 1, ` + strconv.Itoa(xs[0]) + `), (2, 1, ` + strconv.Itoa(xs[1]) + `), (3, 2, ` + strconv.Itoa(xs[2]) + `)`,
		`INSERT INTO o VALUES (1, 2), (2, 2), (3, 3)`,
	} {
		if _, err := db.Exec(q, nil); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return db
}

// sumByGroup is a statement whose subquery decorrelates into a build of t,
// keyed by group.
const sumByGroup = `SELECT o.id, (SELECT SUM(t.x) FROM t WHERE t.g = o.g) FROM o ORDER BY o.id`

// TestSharedBuildsNegatives: where two statements of one analysis must not
// share a build, the second builds its own and answers as it does alone. Each
// case names the rule that makes it so, and the mutation of the sharing code
// it fails under.
func TestSharedBuildsNegatives(t *testing.T) {
	// Mutation: the data stamp left out of the key.
	t.Run("DML between two statements", func(t *testing.T) {
		db := shareDB(t, 5, 6, 7)
		ctx, done := sqldb.ShareBuilds(context.Background())
		defer done()
		if o := runStmt(t, ctx, db, sumByGroup, nil); o.err != "" {
			t.Fatal(o.err)
		}
		if _, err := db.Exec(`UPDATE t SET x = x + 100 WHERE k = 3`, nil); err != nil {
			t.Fatal(err)
		}
		got := runStmt(t, ctx, db, sumByGroup+" ", nil)
		checkUnshared(t, got, runStmt(t, context.Background(), db, sumByGroup, nil))
	})

	// Mutation: the DB left out of the key. The shards' schema versions and
	// data stamps are equal; their rows are not.
	t.Run("two shard DBs running one statement", func(t *testing.T) {
		a, b := shareDB(t, 5, 6, 7), shareDB(t, 50, 60, 70)
		ctx, done := sqldb.ShareBuilds(context.Background())
		defer done()
		if o := runStmt(t, ctx, a, sumByGroup, nil); o.err != "" {
			t.Fatal(o.err)
		}
		checkUnshared(t, runStmt(t, ctx, b, sumByGroup, nil), runStmt(t, context.Background(), b, sumByGroup, nil))
	})

	// Mutation: the parser gives a span holding a positional ? its text.
	// Its marker is ordinal 0 in one statement and 1 in the other.
	t.Run("span holding ?", func(t *testing.T) {
		db := shareDB(t, 5, 6, 7)
		ctx, done := sqldb.ShareBuilds(context.Background())
		defer done()
		const sub = `(SELECT SUM(t.x) FROM t WHERE t.g = o.g AND t.x > ?)`
		one := &sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(5)}}
		if o := runStmt(t, ctx, db, `SELECT o.id, `+sub+` FROM o ORDER BY o.id`, one); o.err != "" {
			t.Fatal(o.err)
		}
		two := &sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(9), sqldb.NewInt(5)}}
		sql := `SELECT ?, o.id, ` + sub + ` FROM o ORDER BY o.id`
		checkUnshared(t, runStmt(t, ctx, db, sql, two), runStmt(t, context.Background(), db, sql, two))
	})

	// Mutation: buildShare without its outermost-SELECT and own-span rules.
	// The span is compiled in the SELECT of m, once per row of o, and its
	// residue reads o: each execution is under a different outer row.
	t.Run("equal span bytes under a different outer scope", func(t *testing.T) {
		db := shareDB(t, 5, 6, 7)
		ctx, done := sqldb.ShareBuilds(context.Background())
		defer done()
		const sub = `(SELECT COUNT(*) FROM t i WHERE i.g = m.g AND i.x > o.id + 4)`
		for _, sql := range []string{
			`SELECT o.id, (SELECT ` + sub + ` FROM t m WHERE m.k = o.id) FROM o ORDER BY o.id`,
			`SELECT o.id, (SELECT ` + sub + ` FROM t m WHERE m.k = o.id) FROM o ORDER BY o.id DESC`,
		} {
			checkUnshared(t, runStmt(t, ctx, db, sql, nil), runStmt(t, context.Background(), db, sql, nil))
		}
	})

	// Mutation: sharedSide serves a seeded build without asking holds. The
	// first statement's builds read owner 12's rows only; the second probes
	// every owner.
	t.Run("seeded build, consumer probes keys it did not read", func(t *testing.T) {
		db := diffDB(t)
		if err := db.SetEngine(sqldb.EngineVector); err != nil {
			t.Fatal(err)
		}
		ctx, done := sqldb.ShareBuilds(context.Background())
		defer done()
		const all = `SELECT x.elem_id, (SELECT t.Incl FROM Region_TotTimes j JOIN TotalTiming t ON t.id = j.elem_id WHERE j.owner_id = x.elem_id AND t.Run_id = (SELECT MIN(u.Run_id) FROM Region_TotTimes k JOIN TotalTiming u ON u.id = k.elem_id WHERE k.owner_id = x.elem_id)) FROM Function_Regions x`
		one := &sqldb.Params{Named: map[string]sqldb.Value{"k": sqldb.NewInt(12)}}
		if o := runStmt(t, ctx, db, all+` WHERE x.elem_id = $k ORDER BY x.elem_id`, one); o.err != "" || len(o.set.Rows) != 1 {
			t.Fatalf("seeding statement: %+v", o)
		}
		sql := all + ` ORDER BY x.elem_id`
		checkUnshared(t, runStmt(t, ctx, db, sql, nil), runStmt(t, context.Background(), db, sql, nil))
	})

	// Mutation: the maker rebuilds the lent build in place. The first 1024
	// rows of o, one batch, probe group 1 and seed the build through t's
	// index on g; the later rows probe group 2, and the maker rebuilds by
	// scan into state of its own. The table's build still holds group 1
	// only, so the second statement, whose rows all probe group 2, builds
	// its own.
	t.Run("maker's later batch outgrows its seeded build", func(t *testing.T) {
		db := sqldb.NewDB()
		db.SetResultCacheSize(0)
		var rows strings.Builder
		for id := 1; id <= 1100; id++ {
			if id > 1 {
				rows.WriteString(", ")
			}
			rows.WriteString("(" + strconv.Itoa(id) + ", " + strconv.Itoa(1+id/1025) + ")")
		}
		for _, q := range []string{
			`CREATE TABLE t (k INTEGER PRIMARY KEY, g INTEGER, x INTEGER)`,
			`CREATE INDEX t_g ON t (g)`,
			`CREATE TABLE o (id INTEGER PRIMARY KEY, g INTEGER)`,
			`INSERT INTO t VALUES (1, 1, 5), (2, 1, 6), (3, 2, 7), (4, 3, 8), (5, 3, 9), (6, 4, 1)`,
			`INSERT INTO o VALUES ` + rows.String(),
		} {
			if _, err := db.Exec(q, nil); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		ctx, done := sqldb.ShareBuilds(context.Background())
		defer done()
		maker, alone := runStmt(t, ctx, db, sumByGroup, nil), runStmt(t, context.Background(), db, sumByGroup, nil)
		if !sameAnswer(maker, alone) || maker.selects != alone.selects+1 {
			t.Fatalf("maker:\n got %+v\nwant %+v and one rebuild", maker, alone)
		}
		const sql = `SELECT o.g, (SELECT SUM(t.x) FROM t WHERE t.g = o.g) FROM o WHERE o.id > 1024 ORDER BY o.id DESC`
		checkUnshared(t, runStmt(t, ctx, db, sql, nil), runStmt(t, context.Background(), db, sql, nil))
	})

	// Mutation: a build that replayed settled as complete. The build scans
	// t, and row 2 divides by zero before row 3 is folded; no row of o
	// probes group 1, so the row interpreter raises nothing.
	t.Run("a build that replayed", func(t *testing.T) {
		db := shareDB(t, 5, 0, 7)
		ctx, done := sqldb.ShareBuilds(context.Background())
		defer done()
		const sql = `SELECT o.id, (SELECT SUM(t.x) FROM t WHERE t.g = o.g AND 10 / t.x > 0) FROM o ORDER BY o.id`
		if o := runStmt(t, ctx, db, sql, nil); o.err != "" || o.fallbacks != 1 {
			t.Fatalf("the build should replay: %+v", o)
		}
		checkUnshared(t, runStmt(t, ctx, db, sql+" ", nil), runStmt(t, context.Background(), db, sql, nil))
	})
}

// checkUnshared fails unless a statement run under a table answered as it
// does alone, sharing no build.
func checkUnshared(t *testing.T, got, alone outcome) {
	t.Helper()
	if alone.err != "" {
		t.Fatalf("alone: %s", alone.err)
	}
	if !sameAnswer(got, alone) || got.shared != 0 {
		t.Errorf("under the table:\n got %+v\nwant %+v, no shared build", got, alone)
	}
}

// TestSharedBuildsShareWhatTheyMay is the positive side of the negatives: the
// same build, read by statements whose probes differ, is made once.
func TestSharedBuildsShareWhatTheyMay(t *testing.T) {
	db := shareDB(t, 5, 6, 7)
	ctx, done := sqldb.ShareBuilds(context.Background())
	defer done()
	first := runStmt(t, ctx, db, sumByGroup, nil)
	if first.err != "" || first.shared != 0 {
		t.Fatalf("first statement: %+v", first)
	}
	const other = `SELECT o.g, (SELECT SUM(t.x) FROM t WHERE t.g = o.g) FROM o WHERE o.id > 1 ORDER BY o.g`
	for _, sql := range []string{sumByGroup + " ", other} {
		got, alone := runStmt(t, ctx, db, sql, nil), runStmt(t, context.Background(), db, sql, nil)
		if !sameAnswer(got, alone) || got.shared != 1 || got.selects != alone.selects-1 || got.buildRows != 0 {
			t.Errorf("%s:\n got %+v\nwant %+v, one shared build", sql, got, alone)
		}
	}
}

// TestSharedBuildsSingleFlight: statements running concurrently under one
// table wait on the one that makes a build, and the counters come out as
// when they run one after another.
func TestSharedBuildsSingleFlight(t *testing.T) {
	db := diffDB(t)
	if err := db.SetEngine(sqldb.EngineVector); err != nil {
		t.Fatal(err)
	}
	w := model.MustCompileSpec()
	run, basis := setFormIDs(t)
	var texts []string
	var params []*sqldb.Params
	for i := range 8 {
		cp := compileSet(t, w, []string{"SublinearSpeedup", "UnmeasuredCost"}[i%2])
		texts = append(texts, cp.SQL+strings.Repeat(" ", i))
		params = append(params, &sqldb.Params{Named: map[string]sqldb.Value{
			cp.Params[0].Name: sqldb.NewInt(run), cp.Params[1].Name: sqldb.NewInt(basis),
		}})
	}
	analysis := func(concurrent bool) (outs []outcome, total sqldb.Stats) {
		outs = make([]outcome, len(texts))
		ctx, done := sqldb.ShareBuilds(context.Background())
		before := db.Stats()
		var wg sync.WaitGroup
		for i := range texts {
			if !concurrent {
				outs[i] = runStmt(t, ctx, db, texts[i], params[i])
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ps, err := db.Prepare(texts[i])
				if err != nil {
					t.Error(err)
					return
				}
				defer ps.Close()
				res, err := ps.ExecuteBatchContext(ctx, []*sqldb.Params{params[i]})
				if err != nil || res[0].Err != nil {
					t.Error(err, res[0].Err)
					return
				}
				outs[i].set = res[0].Res.Set
			}(i)
		}
		wg.Wait()
		done()
		after := db.Stats()
		total = sqldb.Stats{
			VecSelects:   after.VecSelects - before.VecSelects,
			BuildRows:    after.BuildRows - before.BuildRows,
			SharedBuilds: after.SharedBuilds - before.SharedBuilds,
			VecFallbacks: after.VecFallbacks - before.VecFallbacks,
		}
		return outs, total
	}
	seq, seqTotal := analysis(false)
	if seqTotal.SharedBuilds == 0 || seqTotal.VecFallbacks != 0 {
		t.Fatalf("sequential analysis: %+v", seqTotal)
	}
	for range 3 {
		par, parTotal := analysis(true)
		if parTotal != seqTotal {
			t.Errorf("concurrent counters %+v, sequential %+v", parTotal, seqTotal)
		}
		for i := range par {
			if !reflect.DeepEqual(par[i].set, seq[i].set) {
				t.Errorf("statement %d answers differently when concurrent", i)
			}
		}
	}
}

// TestBatchSharesBuildsWithoutTable: a batch of several bindings run under
// no build table opens its own, so the build its first binding makes, the
// others probe — each answering as it does alone. A batch of one binding
// opens none, and a batch under a table uses that table.
func TestBatchSharesBuildsWithoutTable(t *testing.T) {
	db := shareDB(t, 5, 6, 7)
	const sql = `SELECT o.id, (SELECT SUM(t.x) FROM t WHERE t.g = o.g) FROM o WHERE o.id > $m ORDER BY o.id`
	ps, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var bindings []*sqldb.Params
	var alone []outcome
	for m := range 3 {
		p := &sqldb.Params{Named: map[string]sqldb.Value{"m": sqldb.NewInt(int64(m))}}
		bindings = append(bindings, p)
		alone = append(alone, runStmt(t, context.Background(), db, sql, p))
	}
	batch := func(ctx context.Context, bindings []*sqldb.Params) (shared int64) {
		t.Helper()
		before := db.Stats()
		res, err := ps.ExecuteBatchContext(ctx, bindings)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil || !reflect.DeepEqual(r.Res.Set, alone[i].set) {
				t.Errorf("binding %d: %+v, alone %+v", i, r, alone[i])
			}
		}
		return db.Stats().SharedBuilds - before.SharedBuilds
	}
	if n := batch(context.Background(), bindings); n != 2 {
		t.Errorf("batch of 3 without a table: %d shared builds, want 2", n)
	}
	if n := batch(context.Background(), bindings[:1]); n != 0 {
		t.Errorf("batch of 1 without a table: %d shared builds, want 0", n)
	}
	ctx, done := sqldb.ShareBuilds(context.Background())
	defer done()
	if n := batch(ctx, bindings[:1]); n != 0 {
		t.Errorf("first batch under a table: %d shared builds, want 0", n)
	}
	if n := batch(ctx, bindings); n != 3 {
		t.Errorf("second batch under the table: %d shared builds, want 3", n)
	}
}

// TestShareBuildsAllocsIgnoreCollections: a build table is made per
// analysis, so opening and closing one allocates as much right after a
// collection as it does with none since the last close.
func TestShareBuildsAllocsIgnoreCollections(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	open := func(collect bool) (mallocs uint64) {
		for range 20 {
			if collect {
				runtime.GC()
				runtime.GC()
			}
			runtime.ReadMemStats(&before)
			_, done := sqldb.ShareBuilds(context.Background())
			done()
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
		return mallocs
	}
	open(false)
	if quiet, collected := open(false), open(true); quiet != collected {
		t.Errorf("20 build tables opened and closed: %d allocs; %d with a collection before each", quiet, collected)
	}
}
