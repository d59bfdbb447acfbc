package sqldb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// resultCacheDB builds a two-table database standing in for one partitioned
// and one replicated COSY table.
func resultCacheDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE typed (id INTEGER PRIMARY KEY, run_id INTEGER, time REAL)`, nil)
	db.MustExec(`CREATE TABLE total (id INTEGER PRIMARY KEY, run_id INTEGER, excl REAL)`, nil)
	db.MustExec(`INSERT INTO typed (id, run_id, time) VALUES (1, 1, 1.0), (2, 1, 2.0), (3, 2, 4.0)`, nil)
	db.MustExec(`INSERT INTO total (id, run_id, excl) VALUES (1, 1, 10.0), (2, 2, 20.0)`, nil)
	return db
}

func resultCacheStats(db *DB) (hits, misses, invalidations int64) {
	st := db.Stats()
	return st.ResultCacheHits, st.ResultCacheMisses, st.ResultCacheInvalidations
}

func TestResultCacheHitsRepeatedExec(t *testing.T) {
	db := resultCacheDB(t)
	const q = `SELECT SUM(time) FROM typed WHERE run_id = $r`
	params := &Params{Named: map[string]Value{"r": NewInt(1)}}
	first := db.MustExec(q, params)
	if first.Cached {
		t.Fatal("first execution reported as cached")
	}
	second := db.MustExec(q, params)
	if !second.Cached {
		t.Fatal("second execution missed the cache")
	}
	if got, want := second.Set.Rows[0][0].Float(), 3.0; got != want {
		t.Fatalf("cached sum = %g, want %g", got, want)
	}
	if hits, _, _ := resultCacheStats(db); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

func TestResultCachePreparedAndAdHocShareEntries(t *testing.T) {
	db := resultCacheDB(t)
	const q = `SELECT SUM(time) FROM typed WHERE run_id = $r`
	params := &Params{Named: map[string]Value{"r": NewInt(2)}}
	ps, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if res, err := ps.Execute(params); err != nil || res.Cached {
		t.Fatalf("prepared warm-up: cached=%v err=%v", res != nil && res.Cached, err)
	}
	// The ad-hoc execution of the same text and binding must hit the entry
	// the prepared execution stored: the key is the plan cache's statement,
	// which every handle and Exec of the text shares.
	if res := db.MustExec(q, params); !res.Cached {
		t.Fatal("ad-hoc execution after prepared execution missed the cache")
	}
}

// TestDMLInvalidatesOnlyMutatedTable is the per-table granularity contract:
// DML to one table invalidates that table's cached results while entries over
// other tables keep hitting.
func TestDMLInvalidatesOnlyMutatedTable(t *testing.T) {
	for _, dml := range []string{
		`INSERT INTO typed (id, run_id, time) VALUES (9, 2, 8.0)`,
		`UPDATE typed SET time = time * 2 WHERE run_id = 1`,
		`DELETE FROM typed WHERE id = 3`,
	} {
		t.Run(dml[:6], func(t *testing.T) {
			db := resultCacheDB(t)
			const qTyped = `SELECT SUM(time) FROM typed`
			const qTotal = `SELECT SUM(excl) FROM total`
			before := db.MustExec(qTyped, nil).Set.Rows[0][0].Float()
			db.MustExec(qTotal, nil)

			db.MustExec(dml, nil)

			typed := db.MustExec(qTyped, nil)
			if typed.Cached {
				t.Fatalf("%s: stale typed result served from cache", dml)
			}
			if typed.Set.Rows[0][0].Float() == before {
				t.Fatalf("%s: DML did not change the observed sum; the test is vacuous", dml)
			}
			total := db.MustExec(qTotal, nil)
			if !total.Cached {
				t.Fatalf("%s: the untouched table's entry did not survive", dml)
			}
			if _, _, inv := resultCacheStats(db); inv != 1 {
				t.Fatalf("%s: invalidations = %d, want 1", dml, inv)
			}
		})
	}
}

func TestJoinInvalidatedByEitherTable(t *testing.T) {
	db := resultCacheDB(t)
	const q = `SELECT COUNT(*) FROM typed ty JOIN total to2 ON to2.run_id = ty.run_id`
	db.MustExec(q, nil)
	if !db.MustExec(q, nil).Cached {
		t.Fatal("join did not cache")
	}
	db.MustExec(`INSERT INTO total (id, run_id, excl) VALUES (3, 1, 5.0)`, nil)
	res := db.MustExec(q, nil)
	if res.Cached {
		t.Fatal("join served stale result after mutating the second table")
	}
	if got := res.Set.Rows[0][0].Int(); got != 5 {
		t.Fatalf("post-DML join count = %d, want 5", got)
	}
}

func TestDDLClearsResultCache(t *testing.T) {
	db := resultCacheDB(t)
	const q = `SELECT COUNT(*) FROM typed`
	db.MustExec(q, nil)
	db.MustExec(`CREATE TABLE other (id INTEGER)`, nil)
	if st := db.Stats(); st.ResultCacheEntries != 0 {
		t.Fatalf("entries after DDL = %d, want 0", st.ResultCacheEntries)
	}
	if db.MustExec(q, nil).Cached {
		t.Fatal("cache hit straight after DDL cleared it")
	}
	if !db.MustExec(q, nil).Cached {
		t.Fatal("cache did not repopulate after DDL")
	}
}

func TestResultCacheParamTypeSensitivity(t *testing.T) {
	db := resultCacheDB(t)
	// 1 and 1.0 compare equal, but type-sensitive expressions can tell them
	// apart, so the fingerprints must differ.
	const q = `SELECT COUNT(*) FROM typed WHERE run_id = $r`
	db.MustExec(q, &Params{Named: map[string]Value{"r": NewInt(1)}})
	res := db.MustExec(q, &Params{Named: map[string]Value{"r": NewFloat(1.0)}})
	if res.Cached {
		t.Fatal("REAL binding hit the INTEGER binding's entry")
	}
	if res := db.MustExec(q, &Params{Named: map[string]Value{"r": NewInt(1)}}); !res.Cached {
		t.Fatal("INTEGER binding's own entry was lost")
	}
}

func TestResultCacheDisabled(t *testing.T) {
	db := resultCacheDB(t)
	db.SetResultCacheSize(0)
	const q = `SELECT COUNT(*) FROM typed`
	db.MustExec(q, nil)
	if db.MustExec(q, nil).Cached {
		t.Fatal("disabled cache served a result")
	}
	if hits, misses, _ := resultCacheStats(db); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache counted traffic: hits=%d misses=%d", hits, misses)
	}
}

func TestResultCacheEviction(t *testing.T) {
	db := resultCacheDB(t)
	db.SetResultCacheSize(2)
	for i := 0; i < 3; i++ {
		q := fmt.Sprintf(`SELECT COUNT(*) FROM typed WHERE run_id = %d`, i)
		db.MustExec(q, nil)
	}
	st := db.Stats()
	if st.ResultCacheEntries != 2 {
		t.Fatalf("entries = %d, want 2", st.ResultCacheEntries)
	}
	if st.ResultCacheEvictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.ResultCacheEvictions)
	}
	// The oldest entry (run_id = 0) was evicted; the newest still hits.
	if !db.MustExec(`SELECT COUNT(*) FROM typed WHERE run_id = 2`, nil).Cached {
		t.Fatal("newest entry evicted")
	}
	if db.MustExec(`SELECT COUNT(*) FROM typed WHERE run_id = 0`, nil).Cached {
		t.Fatal("evicted entry still present")
	}
}

func TestExecuteBatchCachesPerBinding(t *testing.T) {
	db := resultCacheDB(t)
	ps, err := db.Prepare(`SELECT SUM(time) FROM typed WHERE run_id = $r`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	bindings := []*Params{
		{Named: map[string]Value{"r": NewInt(1)}},
		{Named: map[string]Value{"r": NewInt(2)}},
		{Named: map[string]Value{"r": NewInt(1)}}, // repeat within the batch
	}
	first, err := ps.ExecuteBatch(bindings)
	if err != nil {
		t.Fatal(err)
	}
	// The repeated binding hits within its own batch; the distinct ones miss.
	if first[0].Res.Cached || first[1].Res.Cached || !first[2].Res.Cached {
		t.Fatalf("first batch cached flags: %v %v %v", first[0].Res.Cached, first[1].Res.Cached, first[2].Res.Cached)
	}
	second, err := ps.ExecuteBatch(bindings[:2])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if r.Err != nil || !r.Res.Cached {
			t.Fatalf("second batch binding %d not cached: %+v", i, r)
		}
	}
	if second[0].Res.Set.Rows[0][0].Float() != 3.0 || second[1].Res.Set.Rows[0][0].Float() != 4.0 {
		t.Fatalf("cached batch values wrong: %v", second)
	}
}

func TestResultCacheConcurrentReadersAndWriters(t *testing.T) {
	db := resultCacheDB(t)
	ps, err := db.Prepare(`SELECT SUM(time) FROM typed`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := ps.Execute(nil)
				if err != nil {
					t.Error(err)
					return
				}
				// Whether cached or not, the sum must be one the table
				// actually held at some point: monotone under inserts.
				if res.Set.Rows[0][0].Float() < 7.0 {
					t.Errorf("sum went backwards: %v", res.Set.Rows[0][0])
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO typed (id, run_id, time) VALUES (%d, 3, 1.0)`, 100+i), nil)
		}
	}()
	wg.Wait()
	res, err := ps.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Set.Rows[0][0].Float(), 7.0+20.0; got != want {
		t.Fatalf("final sum = %g, want %g", got, want)
	}
}

// TestCacheKeyFromPlanMarkers: the key fingerprints exactly the parameter
// markers the plan says the statement reads. Every pair of bindings below
// hits or misses as the whole-set fingerprint made it, except the last: a
// parameter the statement never reads no longer splits an entry.
func TestCacheKeyFromPlanMarkers(t *testing.T) {
	named := func(kv ...any) *Params {
		p := &Params{Named: make(map[string]Value)}
		for i := 0; i < len(kv); i += 2 {
			p.Named[kv[i].(string)] = kv[i+1].(Value)
		}
		return p
	}
	pos := func(vals ...Value) *Params { return &Params{Positional: vals} }
	// IS NULL takes a value of any kind, so every binding executes.
	const byName = `SELECT COUNT(*), $r IS NULL, $s IS NULL FROM typed`
	const byPos = `SELECT COUNT(*), ? IS NULL, ? IS NULL FROM typed`
	cases := []struct {
		name          string
		sql           string
		first, second *Params
		hit           bool
	}{
		{"same binding", byName, named("r", NewInt(1), "s", NewText("x")), named("r", NewInt(1), "s", NewText("x")), true},
		{"int vs integral float", byName, named("r", NewInt(1), "s", NewText("x")), named("r", NewFloat(1), "s", NewText("x")), false},
		{"text holding the value terminator", byName, named("r", NewInt(1), "s", NewText("a\x00i1")), named("r", NewInt(1), "s", NewText("a")), false},
		{"text impersonating two values", byPos, pos(NewText("1:a\x00t1:b"), NewText("c")), pos(NewText("1:a"), NewText("b\x00t1:c")), false},
		{"NULL vs the text NULL", byName, named("r", NewInt(1), "s", Null), named("r", NewInt(1), "s", NewText("n")), false},
		{"NULL twice", byName, named("r", Null, "s", NewInt(0)), named("r", Null, "s", NewInt(0)), true},
		{"bool vs int", byName, named("r", NewInt(1), "s", NewBool(true)), named("r", NewInt(1), "s", NewInt(1)), false},
		{"positional, same", byPos, pos(NewInt(1), NewInt(2)), pos(NewInt(1), NewInt(2)), true},
		{"positional, swapped", byPos, pos(NewInt(1), NewInt(2)), pos(NewInt(2), NewInt(1)), false},
		{"named values do not answer positional markers", byPos, pos(NewInt(1), NewInt(2)), &Params{Positional: []Value{NewInt(1), NewInt(3)}, Named: map[string]Value{"r": NewInt(2)}}, false},
		{"an unread named parameter shares the entry", byName, named("r", NewInt(1), "s", NewText("x")), named("r", NewInt(1), "s", NewText("x"), "unread", NewInt(7)), true},
		{"an unread positional parameter shares the entry", byPos, pos(NewInt(1), NewInt(2)), pos(NewInt(1), NewInt(2), NewText("unread")), true},
		{"unread named beside positional", byPos, pos(NewInt(1), NewInt(2)), &Params{Positional: []Value{NewInt(1), NewInt(2)}, Named: map[string]Value{"r": NewInt(9)}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := resultCacheDB(t)
			if db.MustExec(c.sql, c.first).Cached {
				t.Fatal("first execution reported as cached")
			}
			if got := db.MustExec(c.sql, c.second).Cached; got != c.hit {
				t.Fatalf("second binding cached = %v, want %v", got, c.hit)
			}
			if !db.MustExec(c.sql, c.first).Cached {
				t.Fatal("the first binding's own entry was lost")
			}
		})
	}

	// A marker the binding leaves unbound makes the execution uncacheable: it
	// runs, reports the missing parameter itself, and touches no counter.
	t.Run("unbound marker", func(t *testing.T) {
		db := resultCacheDB(t)
		for _, p := range []*Params{nil, named("r", NewInt(1)), pos(NewInt(1))} {
			if _, err := db.Exec(byName, p); err == nil {
				t.Fatalf("binding %v: executed with $s unbound", p)
			}
		}
		// Unbound but never evaluated: the statement still runs, uncached.
		const lazy = `SELECT (SELECT $r) FROM typed WHERE run_id = 99`
		for range 2 {
			if res := db.MustExec(lazy, nil); res.Cached {
				t.Fatal("a binding that leaves a marker unbound was served from the cache")
			}
		}
		if hits, misses, _ := resultCacheStats(db); hits != 0 || misses != 0 {
			t.Fatalf("uncacheable executions counted as cache traffic: hits=%d misses=%d", hits, misses)
		}
	})
}

// TestExecuteBatchAllHitsAllocateNothingPerKey: an all-hit batch builds every
// binding's key in one buffer (on its stack while keys fit, grown once when
// they do not, as here) and probes the index with it as it is, so what the
// batch allocates does not grow with keys: per binding only the Result it
// returns, per batch the result slice and the grown buffer.
func TestExecuteBatchAllHitsAllocateNothingPerKey(t *testing.T) {
	db := resultCacheDB(t)
	ps, err := db.Prepare(`SELECT COUNT(*) FROM typed WHERE run_id = $r AND $label IS NOT NULL`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	allocs := func(n int) float64 {
		var bindings []*Params
		for r := range n {
			bindings = append(bindings, &Params{Named: map[string]Value{"r": NewInt(int64(r)), "label": NewText(fmt.Sprintf("a label long enough for the key to outgrow the stack buffer, which is a hundred and twenty-eight bytes: %d", r))}})
		}
		run := func() {
			if _, err := ps.ExecuteBatch(bindings); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill the result cache
		hits := db.Stats().ResultCacheHits
		got := testing.AllocsPerRun(20, run)
		if d := db.Stats().ResultCacheHits - hits; d != 21*int64(n) {
			t.Fatalf("%d hits in 21 batches of %d, want all", d, n)
		}
		return got
	}
	for _, n := range []int{1, 32} {
		if got, ceiling := allocs(n), float64(n+4); got > ceiling {
			t.Fatalf("an all-hit batch of %d bindings allocates %.0f times, ceiling %.0f: one Result per binding, O(1) per batch", n, got, ceiling)
		}
	}
}

// TestMultiRowInsertFailsAtARow pins the partial-failure rule of a multi-row
// INSERT: a duplicate primary key at row k (0-based) of 256 leaves the k rows
// before it inserted, the error names the row, the table's data version
// moves exactly once, and a cached SELECT over the table re-executes.
func TestMultiRowInsertFailsAtARow(t *testing.T) {
	const rows, k = 256, 100
	db := resultCacheDB(t) // typed holds ids 1, 2, 3
	const q = `SELECT COUNT(*) FROM typed`
	db.MustExec(q, nil)
	if !db.MustExec(q, nil).Cached {
		t.Fatal("repeated SELECT missed the cache")
	}
	vals := make([]Value, 0, 3*rows)
	for r := range rows {
		id := int64(10 + r)
		if r == k {
			id = 2
		}
		vals = append(vals, NewInt(id), NewInt(1), NewFloat(0.5))
	}
	sql := `INSERT INTO typed (id, run_id, time) VALUES (?, ?, ?)` + strings.Repeat(`, (?, ?, ?)`, rows-1)
	typed := db.tables["typed"]
	dml, ver := db.dml.Load(), typed.dataVer.Load()
	_, err := db.Exec(sql, &Params{Positional: vals})
	want := fmt.Sprintf("sqldb: INSERT INTO typed row %d of %d: sqldb: table typed: duplicate primary key 2", k+1, rows)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if got := db.dml.Load(); got != dml+1 || typed.dataVer.Load() != got || got == ver {
		t.Fatalf("data versions: global %d -> %d, table %d -> %d; want one bump", dml, got, ver, typed.dataVer.Load())
	}
	res := db.MustExec(q, nil)
	if res.Cached {
		t.Fatal("SELECT after the partial INSERT answered from the cache")
	}
	if got := res.Set.Rows[0][0].Int(); got != 3+k {
		t.Fatalf("typed holds %d rows, want %d", got, 3+k)
	}
}
