package sqldb

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// pinDB builds the tables the join-pinned seed cases read: contexts o, a
// junction j (owner → elem) and its elements a over two runs. Element 101
// (run 2) and element 103 (run NULL) divide by zero (w = 0); elements 104,
// 108 and 109 share k = 104, so a join on a.k reaches junction row (3, 104)
// from three elements, two of them pinned together; 106 has a NULL k and
// junction row (3, NULL) a NULL elem; big holds 2^53 and 2^53+1, which
// Compare cannot tell apart. unindexed names the index of the join access to
// leave out — "j.elem", or "a" for the pinned columns a.run and a.big — so
// that execution scans.
func pinDB(t testing.TB, unindexed string) *DB {
	t.Helper()
	db := NewDB()
	db.SetResultCacheSize(0)
	stmts := []string{
		`CREATE TABLE o (id INTEGER PRIMARY KEY)`,
		`CREATE TABLE j (owner INTEGER, elem INTEGER)`,
		`CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, run INTEGER, big INTEGER, v REAL, w INTEGER)`,
		`INSERT INTO o (id) VALUES (1), (2), (3), (4)`,
		`INSERT INTO j (owner, elem) VALUES (1, 100), (1, 101), (2, 102), (2, 103), (3, 104), (1, 105),
			(4, 106), (3, 107), (2, 108), (4, 109), (NULL, 110), (3, NULL), (1, 108)`,
		fmt.Sprintf(`INSERT INTO a (id, k, run, big, v, w) VALUES
			(100, 100, 1, %d, 0.5, 1), (101, 101, 2, 0, 1.5, 0), (102, 102, 1, %d, 2.5, 2),
			(103, 103, NULL, 0, 3.5, 0), (104, 104, 1, 1, 4.5, 3), (105, 105, 2, 1, 5.5, 4),
			(106, NULL, 1, 2, 6.5, 5), (107, 107, 2, 2, 7.5, 6), (108, 104, 1, 3, 8.5, 7),
			(109, 104, 1, 3, 9.5, 8), (110, 110, 1, 4, 10.5, 9)`, int64(1)<<53, int64(1)<<53+1),
	}
	if unindexed != "j.elem" {
		stmts = append(stmts, `CREATE INDEX j_elem ON j (elem)`)
	}
	if unindexed != "a" {
		stmts = append(stmts, `CREATE INDEX a_run ON a (run)`, `CREATE INDEX a_big ON a (big)`)
	}
	for _, s := range stmts {
		if _, err := db.Exec(s, nil); err != nil {
			t.Fatalf("setup %q: %v", s, err)
		}
	}
	return db
}

// TestJoinPinnedSeedAgrees: a SELECT whose FROM table is seeded through the
// joined table its WHERE pins — a decorrelated build side, or a plain join —
// gives what the full scan gives, errors included: on the row engine, on the
// vectorized engine, and with either index of the join access missing, where
// every engine scans. seeded says whether the join access may serve the
// decorrelated execution on the fully indexed database; where it may not, the
// scan must. A build that raises replays its outer SELECT on the row
// interpreter, which raises too: the only fallbacks, under subquery.
func TestJoinPinnedSeedAgrees(t *testing.T) {
	const (
		sum    = `SELECT o.id, (SELECT SUM(a.v) FROM j JOIN a ON a.id = j.elem WHERE j.owner = o.id AND a.run = $t) FROM o ORDER BY o.id`
		sumBig = `SELECT o.id, (SELECT SUM(a.v) FROM j JOIN a ON a.id = j.elem WHERE j.owner = o.id AND a.big = $t) FROM o ORDER BY o.id`
	)
	cases := []struct {
		name    string
		sql     string
		pin     Value
		seeded  bool
		wantErr bool
	}{
		{"sum", sum, NewInt(1), true, false},
		{"sum-run-2", sum, NewInt(2), true, false},
		// Junction row (3, 104) is reached from elements 104, 108 and 109:
		// seeded once, joined three times. Element 106's NULL k and the NULL
		// elem of (3, NULL) match nothing.
		{"non-unique-key", `SELECT o.id, (SELECT COUNT(*) FROM j JOIN a ON a.k = j.elem WHERE j.owner = o.id AND a.run = $t),
			(SELECT SUM(a.v) FROM j JOIN a ON a.k = j.elem WHERE a.run = $t AND j.owner = o.id) FROM o ORDER BY o.id`, NewInt(1), true, false},
		{"null-pin", sum, Null, true, false},
		// TEXT against INTEGER raises "cannot compare", on the scan.
		{"text-pin", sum, NewText("x"), false, true},
		// 2^53+1 compares equal to 2^53 and to itself, and 2^53 to both; an
		// index Key lookup finds one of the two.
		{"int-past-2^53", sumBig, NewInt(1<<53 + 1), false, false},
		{"int-at-2^53", sumBig, NewInt(1 << 53), false, false},
		{"int-below-2^53", sumBig, NewInt(1<<53 - 1), true, false},
		// Element 101 divides by zero ahead of the pin that rejects it.
		{"raise-before-pin", `SELECT o.id, (SELECT SUM(a.v) FROM j JOIN a ON a.id = j.elem WHERE j.owner = o.id AND 10 / a.w > 0 AND a.run = $t) FROM o ORDER BY o.id`, NewInt(1), false, true},
		// Element 103's run is NULL: the pin is NULL there, AND runs on, and
		// the division after it raises.
		{"raise-after-null-pin", `SELECT o.id, (SELECT SUM(a.v) FROM j JOIN a ON a.id = j.elem WHERE j.owner = o.id AND a.run = $t AND 10 / a.w > 0) FROM o ORDER BY o.id`, NewInt(1), false, true},
		{"raising-join-residue", `SELECT o.id, (SELECT SUM(a.v) FROM j JOIN a ON a.id = j.elem AND 10 / a.w > 0 WHERE j.owner = o.id AND a.run = $t) FROM o ORDER BY o.id`, NewInt(1), false, true},
		{"quiet-residue", `SELECT o.id, (SELECT COUNT(*) FROM j JOIN a ON a.id = j.elem AND a.w >= 0 WHERE j.owner = o.id AND a.run = $t AND (a.v > 1 OR a.big IS NULL)) FROM o ORDER BY o.id`, NewInt(1), true, false},
		// Plain joins, seeded on both engines; no ORDER BY, so storage order
		// shows.
		{"plain-join", `SELECT j.owner, a.id, a.v FROM j JOIN a ON a.k = j.elem WHERE a.run = $t`, NewInt(1), true, false},
		{"plain-grouped", `SELECT j.owner, COUNT(*), SUM(a.v) FROM j JOIN a ON a.id = j.elem WHERE a.run = $t GROUP BY j.owner`, NewInt(1), true, false},
		{"plain-raise-after-null-pin", `SELECT j.owner, a.id FROM j JOIN a ON a.id = j.elem WHERE a.run = $t AND 10 / a.w > 0`, NewInt(1), false, true},
	}
	type outcome struct {
		set    *ResultSet
		err    string
		seeded bool // some scan of j seeded fewer than all of j's rows
	}
	run := func(t *testing.T, db *DB, sql string, pin Value, engine string) outcome {
		t.Helper()
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		var o outcome
		all := db.Table("j").NumRows()
		db.OnSeed(func(table string, rows int) {
			if table == "j" && rows < all {
				o.seeded = true
			}
		})
		defer db.OnSeed(nil)
		before := db.Stats()
		res, err := db.Exec(sql, &Params{Named: map[string]Value{"t": pin}})
		after := db.Stats()
		fallbacks := after.VecFallbacks - before.VecFallbacks
		if sub := after.VecFallbackReasons.Subquery - before.VecFallbackReasons.Subquery; fallbacks != sub || (err == nil && fallbacks != 0) {
			t.Fatalf("%s fell back: %+v", engine, after.VecFallbackReasons)
		}
		if err != nil {
			o.err = err.Error()
		} else {
			o.set = res.Set
		}
		return o
	}
	dbs := map[string]*DB{"": pinDB(t, ""), "j.elem": pinDB(t, "j.elem"), "a": pinDB(t, "a")}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := run(t, dbs[""], c.sql, c.pin, EngineVector)
			if (want.err != "") != c.wantErr {
				t.Fatalf("error = %q, want error: %v", want.err, c.wantErr)
			}
			if want.seeded != c.seeded {
				t.Errorf("seeded through the join access: %v, want %v", want.seeded, c.seeded)
			}
			for _, unindexed := range []string{"", "j.elem", "a"} {
				for _, engine := range []string{EngineVector, EngineRow} {
					got := run(t, dbs[unindexed], c.sql, c.pin, engine)
					name := fmt.Sprintf("%s engine without index %q", engine, unindexed)
					if unindexed != "" && got.seeded {
						t.Errorf("%s seeded through a missing index", name)
					}
					if got.err != want.err {
						t.Errorf("error diverges on the %s: %q, seeded %q", name, got.err, want.err)
					}
					if !reflect.DeepEqual(got.set, want.set) {
						t.Errorf("result diverges on the %s:\n%+v\nseeded: %+v", name, got.set, want.set)
					}
				}
			}
		})
	}
}

// TestJoinPinnedBuildSeedsOneRun: a decorrelated build pinned to one of R
// runs seeds 1/R of its junction — the rows of that run — where a scan
// seeds every row.
func TestJoinPinnedBuildSeedsOneRun(t *testing.T) {
	const runs, regions, perRun = 8, 16, 3
	db := NewDB()
	db.SetResultCacheSize(0)
	for _, s := range []string{
		`CREATE TABLE region (id INTEGER PRIMARY KEY)`,
		`CREATE TABLE region_times (owner_id INTEGER NOT NULL, elem_id INTEGER NOT NULL)`,
		`CREATE TABLE timing (id INTEGER PRIMARY KEY, run_id INTEGER, incl REAL)`,
		`CREATE INDEX region_times_elem ON region_times (elem_id)`,
		`CREATE INDEX timing_run ON timing (run_id)`,
	} {
		db.MustExec(s, nil)
	}
	id := int64(0)
	for r := int64(0); r < regions; r++ {
		db.MustExec(`INSERT INTO region (id) VALUES (?)`, &Params{Positional: []Value{NewInt(r)}})
		for run := int64(0); run < runs; run++ {
			for range perRun {
				db.MustExec(`INSERT INTO timing (id, run_id, incl) VALUES (?, ?, ?)`,
					&Params{Positional: []Value{NewInt(id), NewInt(run), NewFloat(float64(id) / 4)}})
				db.MustExec(`INSERT INTO region_times (owner_id, elem_id) VALUES (?, ?)`,
					&Params{Positional: []Value{NewInt(r), NewInt(id)}})
				id++
			}
		}
	}
	junction := db.Table("region_times").NumRows()
	var seeds []int
	db.OnSeed(func(table string, rows int) {
		if table == "region_times" {
			seeds = append(seeds, rows)
		}
	})
	defer db.OnSeed(nil)
	set := mustQuery(t, db, `SELECT x.id, (SELECT SUM(a.incl) FROM region_times j JOIN timing a ON a.id = j.elem_id
		WHERE j.owner_id = x.id AND a.run_id = $t) FROM region x`, &Params{Named: map[string]Value{"t": NewInt(5)}})
	if len(set.Rows) != regions {
		t.Fatalf("%d rows, want %d", len(set.Rows), regions)
	}
	if want := []int{junction / runs}; !reflect.DeepEqual(seeds, want) {
		t.Fatalf("the build seeded %v of %d junction rows, want %v", seeds, junction, want)
	}
}

// TestJoinPinnedSumOrderStable is TestDecorrelatedSumOrderStable with the
// build seeded through the pinned element table, whose rows are stored in
// reverse: the seed restores junction storage order, so float SUMs and AVGs
// (key 1 holds 1e16, 1, -1e16, 1: 1 left to right, 0 right to left) have the
// bits of the row engine.
func TestJoinPinnedSumOrderStable(t *testing.T) {
	db := NewDB()
	db.SetResultCacheSize(0)
	for _, s := range []string{
		`CREATE TABLE g (id INTEGER PRIMARY KEY)`,
		`CREATE TABLE f (owner INTEGER, elem INTEGER)`,
		`CREATE TABLE e (id INTEGER PRIMARY KEY, run INTEGER, v REAL)`,
		`CREATE INDEX f_elem ON f (elem)`,
		`CREATE INDEX e_run ON e (run)`,
		`INSERT INTO g (id) VALUES (1), (2)`,
	} {
		db.MustExec(s, nil)
	}
	vals := []struct {
		owner int64
		v     float64
	}{{1, 1e16}, {2, 3}, {1, 1}, {2, 1e16}, {1, -1e16}, {2, -1e16}, {1, 1}}
	for i, r := range vals {
		// Run 1's elements, then run 2's, each owned like run 1's.
		for run := int64(1); run <= 2; run++ {
			db.MustExec(`INSERT INTO f (owner, elem) VALUES (?, ?)`, &Params{Positional: []Value{NewInt(r.owner), NewInt(run*100 + int64(i))}})
		}
	}
	for i := len(vals) - 1; i >= 0; i-- {
		for run := int64(2); run >= 1; run-- {
			db.MustExec(`INSERT INTO e (id, run, v) VALUES (?, ?, ?)`, &Params{Positional: []Value{NewInt(run*100 + int64(i)), NewInt(run), NewFloat(vals[i].v * float64(run))}})
		}
	}
	const q = `SELECT g.id, (SELECT SUM(e.v) FROM f JOIN e ON e.id = f.elem WHERE f.owner = g.id AND e.run = 1),
		(SELECT AVG(e.v) FROM f JOIN e ON e.id = f.elem WHERE f.owner = g.id AND e.run = 1) FROM g ORDER BY g.id`
	run := func(engine string) *ResultSet {
		t.Helper()
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		seeded := 0
		db.OnSeed(func(table string, rows int) {
			if table == "f" && rows < db.Table("f").NumRows() {
				seeded++
			}
		})
		defer db.OnSeed(nil)
		set := mustQuery(t, db, q, nil)
		if engine == EngineVector && seeded != 2 {
			t.Fatalf("%d builds seeded through the pinned table, want 2", seeded)
		}
		return set
	}
	got := run(EngineVector)
	if sum := got.Rows[0][1]; sum.Float() != 1 {
		t.Errorf("SUM over key 1 = %s, want 1 (junction storage order)", sum)
	}
	ref := run(EngineRow)
	for i, r := range got.Rows {
		for j, v := range r {
			w := ref.Rows[i][j]
			if v.String() != w.String() || math.Float64bits(v.Float()) != math.Float64bits(w.Float()) {
				t.Errorf("row %d col %d: seeded %s (%b), row engine %s (%b)", i, j, v, v.Float(), w, w.Float())
			}
		}
	}
}

// probeDB builds the tables the probe-keyed seed cases read: 1 030
// contexts o (owner g, runs r and s) — the first chunk of 1 024 cycles
// through owners 1..64 in run 1, the last six hold owners 65..70 in run 2 —
// and three odd rows: 2001 with no owner, 2002 with no run, 2003 probing
// run 2^53. A junction j (owner → elem) and its elements a, two runs per
// owner, are joined on a.k. a is stored in reverse: a build seeded through
// a.run meets the junction backwards and must restore its order, which
// owner 1's run-1 values 1e16, 1, -1e16, 1 show in a float SUM. Element 52
// (owner 5, run 2) and the element of the ownerless junction row divide by
// zero (w = 0); element 200001 shares k with owner 66's run-1 element but is
// in run 2, so a junction row joins two runs; owner 2^53+1, which Compare
// cannot tell from 2^53, owns one run-3 element no context probes, and
// owner 71 (context 2004) two elements in runs 2^53 and 2^53+1; context
// 2005 probes owner 1 in run 9, which has no element. j.tag is
// 1 + owner mod 2, indexed in every database. unindexed names the index to leave out: "j.owner", "j.elem" or "a.run".
func probeDB(t testing.TB, unindexed string) *DB {
	t.Helper()
	db := NewDB()
	db.SetResultCacheSize(0)
	for _, s := range []string{
		`CREATE TABLE o (id INTEGER PRIMARY KEY, g INTEGER, r INTEGER, s INTEGER)`,
		`CREATE TABLE j (owner INTEGER, elem INTEGER, tag INTEGER)`,
		`CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, run INTEGER, v REAL, w INTEGER)`,
	} {
		db.MustExec(s, nil)
	}
	const big = int64(1)<<53 + 1
	var ctx, junction, elems []string
	elem := func(id, k, run int64, v float64, w int) {
		elems = append(elems, fmt.Sprintf("(%d, %d, %d, %g, %d)", id, k, run, v, w))
	}
	for i := int64(1); i <= 1030; i++ {
		g, r := (i-1)%64+1, 1
		if i > 1024 {
			g, r = i-960, 2
		}
		ctx = append(ctx, fmt.Sprintf("(%d, %d, %d, %d)", i, g, r, 1+i%2))
	}
	for i := int64(1); i <= 70; i++ {
		for run := int64(1); run <= 2; run++ {
			k := i*10 + run
			junction = append(junction, fmt.Sprintf("(%d, %d, %d)", i, k, 1+i%2))
			w := 1
			if k == 52 {
				w = 0
			}
			v := float64(i) + 0.25*float64(run)
			if k == 11 {
				v = 1e16
			}
			elem(k, k, run, v, w)
			if k == 11 {
				for x, v := range []float64{1, -1e16, 1} {
					junction = append(junction, fmt.Sprintf("(1, %d, 2)", 100001+x))
					elem(100001+int64(x), 100001+int64(x), 1, v, 1)
				}
			}
		}
	}
	ctx = append(ctx, "(2001, NULL, 1, 1)", "(2002, 2, NULL, 1)", fmt.Sprintf("(2003, 3, %d, 1)", int64(1)<<53), fmt.Sprintf("(2004, 71, %d, 1)", int64(1)<<53), "(2005, 1, 9, 1)")
	junction = append(junction, "(NULL, 300001, NULL)", fmt.Sprintf("(%d, 300002, NULL)", big), "(71, 711, 2)", "(71, 712, 2)")
	elem(711, 711, big-1, 1, 1)
	elem(712, 712, big, 1, 1)
	elem(200001, 661, 2, 0.5, 1)
	elem(300001, 300001, 1, 1, 0)
	elem(300002, 300002, 3, 2, 1)
	slices.Reverse(elems)
	insert := func(table, cols string, rows []string) {
		for len(rows) > 0 {
			n := min(len(rows), 256)
			db.MustExec(fmt.Sprintf("INSERT INTO %s (%s) VALUES %s", table, cols, strings.Join(rows[:n], ", ")), nil)
			rows = rows[n:]
		}
	}
	insert("o", "id, g, r, s", ctx)
	insert("j", "owner, elem, tag", junction)
	insert("a", "id, k, run, v, w", elems)
	db.MustExec(`CREATE INDEX j_tag ON j (tag)`, nil)
	for name, s := range map[string]string{
		"j.owner": `CREATE INDEX j_owner ON j (owner)`,
		"j.elem":  `CREATE INDEX j_elem ON j (elem)`,
		"a.run":   `CREATE INDEX a_run ON a (run)`,
	} {
		if name != unindexed {
			db.MustExec(s, nil)
		}
	}
	return db
}

// TestProbeKeyedSeedAgrees: a decorrelated build seeded by the values its
// probes carry — through the FROM table's key or the joined table's, and
// rebuilt by scan when a later chunk of the outer relation probes a value it
// has not read — gives what the row engine gives, errors included, on the
// fully indexed database and with each index missing. seeds lists the
// junction rows each build scan of the fully indexed database seeds, in
// order (147 is a scan) — of a statement that replays, those up to the
// replay, which the row engine's seeds follow. A scan meets owner 2^53+1 and
// run 2^53+1, which no hash key admits, and replays; so does a build that
// raises. A statement that succeeds seeded must not replay: those rows are
// never read. Replays run the outer SELECT on the row interpreter and are
// the only fallbacks, under subquery.
func TestProbeKeyedSeedAgrees(t *testing.T) {
	const (
		sum   = `(SELECT SUM(a.v) FROM j JOIN a ON a.k = j.elem WHERE j.owner = o.g AND a.run = o.%s)`
		count = `(SELECT COUNT(*) FROM j JOIN a ON a.k = j.elem WHERE a.run = o.%[1]s AND j.owner = o.g)`
		both  = `SELECT o.id, ` + sum + `, ` + count + ` FROM o WHERE %[2]s ORDER BY o.id`
		// The residual divides by zero ahead of the run key: on element 52
		// (owner 5, run 2), which owner 5's probe visits whatever its run,
		// and on the ownerless element, which a NULL owner's probe visits
		// through the owner index, as its NULL cell.
		unquiet = `SELECT o.id, (SELECT SUM(a.v) FROM j JOIN a ON a.k = j.elem WHERE j.owner = o.g AND 10 / a.w > 0 AND a.run = o.r) FROM o WHERE %s ORDER BY o.id`
		pinned  = `SELECT o.id, (SELECT SUM(a.v) FROM j JOIN a ON a.k = j.elem WHERE j.owner = o.g AND a.run = $t) FROM o WHERE o.id <= 3 ORDER BY o.id`
	)
	cases := []struct {
		name    string
		sql     string
		pin     Value
		seeds   []int
		wantErr bool
		replays bool // replays on the fully indexed database without an error
	}{
		// The first chunk probes owners 1..64 in run 1: a.run reaches fewer
		// rows (74) than j.owner (131); the second probes run 2, and the
		// first build is rebuilt by scan.
		{"join-key-rebuilds", fmt.Sprintf(both, "r", "o.id <= 1030"), Null, []int{74, 74, 147}, false, true},
		// Both runs probed: the owners reach fewer rows; the second chunk
		// probes owners 65..70.
		{"from-key-rebuilds", fmt.Sprintf(both, "s", "o.id <= 1030"), Null, []int{131, 131, 147}, false, true},
		// A NULL owner (2001) and a NULL run (2002) match nothing and read
		// nothing; run 2^53 is not exact, so only the owner key seeds. The
		// odd rows are in the second chunk, whose owners the first read:
		// no rebuild. Owner 3 has no run 2^53.
		{"null-components-and-2^53", fmt.Sprintf(both, "r", "o.id <= 3 OR (o.id > 2000 AND o.id < 2004)"), Null, []int{9, 9}, false, false},
		// Run 2^53 is probed, and its index entry holds one element: not
		// exact, since Compare finds 2^53+1 equal to it. The owner key
		// seeds, the build replays on meeting 2^53+1, and the replayed
		// subquery seeds through the owner again.
		{"probed-2^53", `SELECT o.id, (SELECT COUNT(*) FROM j JOIN a ON a.k = j.elem WHERE j.owner = o.g AND a.run = o.r) FROM o WHERE o.id = 2004`, Null, []int{2, 2}, false, true},
		// Not quiet: the build scans, though the row engine's correlated
		// executions seed through an access path, j.tag here, and j.owner
		// would reach fewer rows. A build that raises replays, and the row
		// engine's subqueries run, seeded, one by one; they raise where they
		// visit owner 5's run-2 element or the ownerless one, which divide
		// by zero.
		{"unquiet-access-path", `SELECT o.id, (SELECT SUM(a.v) FROM j JOIN a ON a.k = j.elem WHERE j.tag = o.s AND 10 / a.w > 0 AND j.owner = o.g) FROM o WHERE o.id = 1`, Null, []int{147, 75}, true, false},
		{"unquiet-raises", fmt.Sprintf(unquiet, "o.id <= 1024"), Null, []int{147, 5, 2, 2, 2, 2}, true, false},
		{"unquiet-unprobed", fmt.Sprintf(unquiet, "o.id > 5 AND o.id <= 64"), Null, []int{147}, false, true},
		{"unquiet-null-owner", fmt.Sprintf(unquiet, "o.id <= 3 OR o.id = 2001"), Null, []int{147, 5, 2, 2, 1}, true, false},
		// The owner key reaches fewer rows than the pin.
		{"pin-and-key", pinned, NewInt(1), []int{9}, false, false},
		{"null-pin", pinned, Null, []int{0}, false, false},
		// TEXT against INTEGER is not exact: the residue is not quiet.
		{"text-pin", pinned, NewText("x"), []int{147, 5}, true, false},
		// Nor here, where the row engine compares it on owner 1's rows
		// ahead of the run key, and run 9 would seed nothing.
		{"text-pin-before-key", `SELECT o.id, (SELECT SUM(a.v) FROM j JOIN a ON a.k = j.elem WHERE j.owner = o.g AND a.w = $t AND a.run = o.r) FROM o WHERE o.id = 2005`, NewText("x"), []int{147, 5}, true, false},
	}
	type outcome struct {
		set       *ResultSet
		err       string
		seeds     []int
		fallbacks int64
	}
	run := func(t *testing.T, db *DB, sql string, pin Value, engine string) outcome {
		t.Helper()
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		var o outcome
		db.OnSeed(func(table string, rows int) {
			if table == "j" {
				o.seeds = append(o.seeds, rows)
			}
		})
		defer db.OnSeed(nil)
		before := db.Stats()
		res, err := db.Exec(sql, &Params{Named: map[string]Value{"t": pin}})
		after := db.Stats()
		o.fallbacks = after.VecFallbacks - before.VecFallbacks
		if sub := after.VecFallbackReasons.Subquery - before.VecFallbackReasons.Subquery; o.fallbacks != sub {
			t.Fatalf("%s fell back: %+v", engine, after.VecFallbackReasons)
		}
		if err != nil {
			o.err = err.Error()
		} else {
			o.set = res.Set
		}
		return o
	}
	variants := []string{"", "j.owner", "j.elem", "a.run"}
	dbs := map[string]*DB{}
	for _, unindexed := range variants {
		dbs[unindexed] = probeDB(t, unindexed)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seeded := run(t, dbs[""], c.sql, c.pin, EngineVector)
			if (seeded.err != "") != c.wantErr {
				t.Fatalf("error = %q, want error: %v", seeded.err, c.wantErr)
			}
			got := seeded.seeds
			if c.replays && len(got) > len(c.seeds) {
				got = got[:len(c.seeds)]
			}
			if !reflect.DeepEqual(got, c.seeds) {
				t.Errorf("junction seeds %v, want %v", got, c.seeds)
			}
			if replays := c.wantErr || c.replays; seeded.fallbacks != 0 != replays || seeded.fallbacks > 1 {
				t.Errorf("%d fallbacks, want a replay: %v", seeded.fallbacks, replays)
			}
			// Which rows the row engine's correlated executions visit — and
			// so whether they raise — depends on the owner index: each
			// database is its own reference.
			for _, unindexed := range variants {
				want := run(t, dbs[unindexed], c.sql, c.pin, EngineRow)
				got := run(t, dbs[unindexed], c.sql, c.pin, EngineVector)
				name := fmt.Sprintf("database without index %q", unindexed)
				if got.err != want.err {
					t.Errorf("error diverges on the %s: %q, row engine %q", name, got.err, want.err)
				}
				if diff := firstRowDiff(got.set, want.set); diff != "" {
					t.Errorf("result diverges on the %s: %s", name, diff)
				}
			}
		})
	}
}

// firstRowDiff describes the first difference between two result sets, ""
// when they are equal.
func firstRowDiff(got, want *ResultSet) string {
	if reflect.DeepEqual(got, want) {
		return ""
	}
	if got == nil || want == nil || len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("got %d rows, want %d", rowCount(got), rowCount(want))
	}
	for i := range got.Rows {
		if !reflect.DeepEqual(got.Rows[i], want.Rows[i]) {
			return fmt.Sprintf("row %d is %v, want %v", i, got.Rows[i], want.Rows[i])
		}
	}
	return fmt.Sprintf("columns %v, want %v", got.Columns, want.Columns)
}

func rowCount(s *ResultSet) int {
	if s == nil {
		return -1
	}
	return len(s.Rows)
}
