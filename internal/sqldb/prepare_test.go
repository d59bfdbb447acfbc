package sqldb

import (
	"fmt"
	"sync"
	"testing"
)

func prepDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec(`CREATE TABLE runs (id INTEGER PRIMARY KEY, nope INTEGER)`, nil)
	db.MustExec(`CREATE TABLE times (id INTEGER PRIMARY KEY, run_id INTEGER, v REAL)`, nil)
	db.MustExec(`INSERT INTO runs (id, nope) VALUES (1, 2), (2, 8), (3, 32)`, nil)
	db.MustExec(`INSERT INTO times (id, run_id, v) VALUES
		(10, 1, 1.0), (11, 2, 2.0), (12, 3, 4.0)`, nil)
	return db
}

func TestPreparedSelectMatchesExec(t *testing.T) {
	db := prepDB(t)
	q := `SELECT r.nope, (SELECT t.v FROM times t WHERE t.run_id = r.id) AS v
		FROM runs r WHERE r.id >= $min ORDER BY r.nope DESC`
	params := &Params{Named: map[string]Value{"min": NewInt(2)}}
	want, err := db.Exec(q, params)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	got, err := ps.Execute(params)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Set) != fmt.Sprint(want.Set) {
		t.Fatalf("prepared result differs:\n%v\n%v", got.Set, want.Set)
	}
}

func TestPreparedRebindsFreshParams(t *testing.T) {
	db := prepDB(t)
	ps, err := db.Prepare(`SELECT v FROM times WHERE run_id = $r`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	for r, want := range map[int64]float64{1: 1.0, 2: 2.0, 3: 4.0} {
		res, err := ps.Execute(&Params{Named: map[string]Value{"r": NewInt(r)}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Set.Rows[0][0].Float() != want {
			t.Fatalf("run %d: got %v, want %g", r, res.Set.Rows[0][0], want)
		}
	}
}

func TestPreparedInvariantSubqueryNotSharedAcrossExecutions(t *testing.T) {
	db := prepDB(t)
	// The invariant-subquery result cache must be per execution: the same
	// prepared handle with different parameters must not reuse values.
	ps, err := db.Prepare(`SELECT (SELECT v FROM times WHERE run_id = $r) AS v`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	first, err := ps.Execute(&Params{Named: map[string]Value{"r": NewInt(2)}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := ps.Execute(&Params{Named: map[string]Value{"r": NewInt(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if first.Set.Rows[0][0].Float() != 2.0 || second.Set.Rows[0][0].Float() != 4.0 {
		t.Fatalf("stale subquery cache: %v then %v", first.Set.Rows[0][0], second.Set.Rows[0][0])
	}
}

func TestPreparedWriteStatements(t *testing.T) {
	db := prepDB(t)
	ins, err := db.Prepare(`INSERT INTO runs (id, nope) VALUES ($id, $n)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	for i := int64(4); i <= 6; i++ {
		res, err := ins.Execute(&Params{Named: map[string]Value{"id": NewInt(i), "n": NewInt(i * 10)}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != 1 {
			t.Fatalf("insert affected %d", res.Affected)
		}
	}
	upd, err := db.Prepare(`UPDATE runs SET nope = nope + 1 WHERE id = $id`)
	if err != nil {
		t.Fatal(err)
	}
	defer upd.Close()
	if _, err := upd.Execute(&Params{Named: map[string]Value{"id": NewInt(4)}}); err != nil {
		t.Fatal(err)
	}
	del, err := db.Prepare(`DELETE FROM runs WHERE id = $id`)
	if err != nil {
		t.Fatal(err)
	}
	defer del.Close()
	if res, _ := del.Execute(&Params{Named: map[string]Value{"id": NewInt(6)}}); res.Affected != 1 {
		t.Fatal("delete missed")
	}
	res := db.MustExec(`SELECT nope FROM runs WHERE id >= 4 ORDER BY id`, nil)
	if len(res.Set.Rows) != 2 || res.Set.Rows[0][0].Int() != 41 || res.Set.Rows[1][0].Int() != 50 {
		t.Fatalf("rows after prepared writes: %v", res.Set.Rows)
	}
}

func TestPrepareUnknownTableFails(t *testing.T) {
	db := prepDB(t)
	if _, err := db.Prepare(`SELECT * FROM missing`); err == nil {
		t.Fatal("prepare against missing table succeeded")
	}
	if _, err := db.Prepare(`INSERT INTO missing (x) VALUES (1)`); err == nil {
		t.Fatal("prepare INSERT against missing table succeeded")
	}
}

func TestPreparedClosedHandleFails(t *testing.T) {
	db := prepDB(t)
	ps, err := db.Prepare(`SELECT COUNT(*) FROM runs`)
	if err != nil {
		t.Fatal(err)
	}
	// A second handle over the text shares the plan cache's plan, and
	// outlives the first.
	other, err := db.Prepare(`SELECT COUNT(*) FROM runs`)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if other.sharedStmt != ps.sharedStmt {
		t.Fatal("two handles over one text hold two plans")
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if _, err := ps.Execute(nil); err == nil {
		t.Fatal("execute after close succeeded")
	}
	if _, err := other.Execute(nil); err != nil {
		t.Fatalf("the other handle after close: %v", err)
	}
}

// TestPreparedPlanRebuiltAfterCreateIndex: a plan built before CREATE INDEX
// must be rebuilt so it can use the new index, and keep returning correct
// rows either way.
func TestPreparedPlanRebuiltAfterCreateIndex(t *testing.T) {
	db := prepDB(t)
	ps, err := db.Prepare(`SELECT v FROM times WHERE run_id = $r`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	exec := func(r int64) float64 {
		res, err := ps.Execute(&Params{Named: map[string]Value{"r": NewInt(r)}})
		if err != nil {
			t.Fatal(err)
		}
		return res.Set.Rows[0][0].Float()
	}
	if exec(2) != 2.0 {
		t.Fatal("pre-index result wrong")
	}
	before := db.Stats().Replans
	db.MustExec(`CREATE INDEX idx_times_run ON times (run_id)`, nil)
	if exec(3) != 4.0 {
		t.Fatal("post-index result wrong")
	}
	if db.Stats().Replans <= before {
		t.Fatal("CREATE INDEX did not invalidate the plan")
	}
	// The rebuilt plan must actually use the index for the point lookup.
	plan := ps.plan.Load()
	sp := plan.selects[plan.stmt.(*SelectStmt)]
	if len(sp.access) == 0 {
		t.Fatal("rebuilt plan has no access path")
	}
	tbl := db.Table("times")
	if tbl.index(sp.access[0].col) == nil {
		t.Fatal("access-path column is not indexed after CREATE INDEX")
	}
}

// TestPreparedPlanAfterDropAndRecreate: a prepared handle must fail cleanly
// while its table is dropped and bind to the new table after re-creation;
// cached SELECT plans must never serve rows of the dropped table.
func TestPreparedPlanAfterDropAndRecreate(t *testing.T) {
	db := prepDB(t)
	ps, err := db.Prepare(`SELECT nope FROM runs ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if res, err := ps.Execute(nil); err != nil || len(res.Set.Rows) != 3 {
		t.Fatalf("pre-drop: %v, %v", res, err)
	}
	db.MustExec(`DROP TABLE runs`, nil)
	if _, err := ps.Execute(nil); err == nil {
		t.Fatal("execute against dropped table succeeded")
	}
	db.MustExec(`CREATE TABLE runs (id INTEGER PRIMARY KEY, nope INTEGER)`, nil)
	db.MustExec(`INSERT INTO runs (id, nope) VALUES (9, 900)`, nil)
	res, err := ps.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set.Rows) != 1 || res.Set.Rows[0][0].Int() != 900 {
		t.Fatalf("stale rows after re-create: %v", res.Set.Rows)
	}
}

// TestExecPlanCacheInvalidation covers the ad-hoc path: Exec's cached plan
// must be rebuilt, not reused, across DDL.
func TestExecPlanCacheInvalidation(t *testing.T) {
	db := prepDB(t)
	q := `SELECT COUNT(*) FROM runs`
	if db.MustExec(q, nil).Set.Rows[0][0].Int() != 3 {
		t.Fatal("seed count wrong")
	}
	db.MustExec(`DROP TABLE runs`, nil)
	if _, err := db.Exec(q, nil); err == nil {
		t.Fatal("cached plan served a dropped table")
	}
	db.MustExec(`CREATE TABLE runs (id INTEGER PRIMARY KEY, nope INTEGER)`, nil)
	if db.MustExec(q, nil).Set.Rows[0][0].Int() != 0 {
		t.Fatal("cached plan shows stale rows after re-create")
	}
}

func TestPlanCacheHitsAndEvictions(t *testing.T) {
	db := prepDB(t)
	db.ShrinkPlanCache(2)
	base := db.Stats()
	db.MustExec(`SELECT 1`, nil)
	db.MustExec(`SELECT 1`, nil)
	db.MustExec(`SELECT 1`, nil)
	st := db.Stats()
	if hits := st.PlanCacheHits - base.PlanCacheHits; hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	db.MustExec(`SELECT 2`, nil)
	db.MustExec(`SELECT 3`, nil) // evicts SELECT 1
	st = db.Stats()
	if st.PlanCacheEntries != 2 {
		t.Fatalf("entries = %d, want 2", st.PlanCacheEntries)
	}
	if st.PlanCacheEvictions-base.PlanCacheEvictions == 0 {
		t.Fatal("no eviction recorded")
	}
	db.MustExec(`SELECT 1`, nil) // miss again after eviction
	if db.Stats().PlanCacheMisses == st.PlanCacheMisses {
		t.Fatal("re-execution of evicted statement did not miss")
	}
}

// TestExecRefusesWhatPrepareRefuses: ad-hoc Exec plans every statement, so
// a subquery over a missing table fails it even where no row would evaluate
// the subquery (t is empty), with the error Prepare gives.
func TestExecRefusesWhatPrepareRefuses(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (a INTEGER)`, nil)
	q := `SELECT a FROM t WHERE a = (SELECT a FROM missing)`
	_, execErr := db.Exec(q, nil)
	_, prepErr := db.Prepare(q)
	if execErr == nil || prepErr == nil {
		t.Fatalf("want both to fail: Exec %v, Prepare %v", execErr, prepErr)
	}
	if execErr.Error() != prepErr.Error() {
		t.Fatalf("Exec error %q, Prepare error %q", execErr, prepErr)
	}
}

func TestPreparedLiveCount(t *testing.T) {
	db := prepDB(t)
	if n := db.Stats().PreparedLive; n != 0 {
		t.Fatalf("initial live = %d", n)
	}
	a, _ := db.Prepare(`SELECT 1`)
	b, _ := db.Prepare(`SELECT 2`)
	if n := db.Stats().PreparedLive; n != 2 {
		t.Fatalf("live = %d, want 2", n)
	}
	a.Close()
	b.Close()
	b.Close() // double close must not double-decrement
	if n := db.Stats().PreparedLive; n != 0 {
		t.Fatalf("live after close = %d, want 0", n)
	}
}

// TestPlanCacheEvictionDoesNotBreakInFlightExec: with a tiny cache and many
// distinct statements, an Exec whose cached plan is evicted mid-flight by
// another goroutine must still succeed (evicted plans are dropped, never
// closed). Run with -race.
func TestPlanCacheEvictionDoesNotBreakInFlightExec(t *testing.T) {
	db := prepDB(t)
	db.ShrinkPlanCache(1)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				// Alternate between a shared hot statement and per-iteration
				// distinct texts that churn the one-slot cache.
				q := `SELECT COUNT(*) FROM runs`
				if i%2 == w%2 {
					q = fmt.Sprintf(`SELECT COUNT(*) + %d - %d FROM runs`, w, i)
				}
				if _, err := db.Exec(q, nil); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := db.Stats(); st.PlanCacheEvictions == 0 {
		t.Fatal("test exercised no evictions")
	}
}

// TestPreparedConcurrentExecution hammers one handle from many goroutines;
// run with -race. Results must be correct on every goroutine.
func TestPreparedConcurrentExecution(t *testing.T) {
	db := prepDB(t)
	ps, err := db.Prepare(`SELECT r.nope, (SELECT t.v FROM times t WHERE t.run_id = r.id) AS v
		FROM runs r WHERE r.id = $r`)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r := int64(1 + (w+i)%3)
				res, err := ps.Execute(&Params{Named: map[string]Value{"r": NewInt(r)}})
				if err != nil {
					errs <- err
					return
				}
				if len(res.Set.Rows) != 1 {
					errs <- fmt.Errorf("run %d: %d rows", r, len(res.Set.Rows))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPreparedConcurrentWithDDL interleaves executions with index creation;
// executions may see the plan before or after, but must never fail or race.
// Every worker prepares a handle of its own over the one text, so they all
// replan the plan they share.
func TestPreparedConcurrentWithDDL(t *testing.T) {
	db := prepDB(t)
	const q = `SELECT v FROM times WHERE run_id = $r`
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		db.MustExec(`CREATE INDEX idx_ddl_race ON times (run_id)`, nil)
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ps, err := db.Prepare(q)
			if err != nil {
				errs <- err
				return
			}
			defer ps.Close()
			for i := 0; i < 40; i++ {
				if _, err := ps.Execute(&Params{Named: map[string]Value{"r": NewInt(int64(1 + i%3))}}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSingleExecutionAllocations: a single execution is a batch of one whose
// binding and result arrays live on the stack, so running it through the
// batch body allocates nothing per call. The ceilings are what a separate
// single-execution body allocated: five for a prepared one-row INSERT (the
// path of every row a tuning cycle inserts over the wire), and two for an
// ad-hoc SELECT the result cache answers, which takes one, the Result.
func TestSingleExecutionAllocations(t *testing.T) {
	db := prepDB(t)
	ins, err := db.Prepare(`INSERT INTO times (id, run_id, v) VALUES ($id, 1, 0.5)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	id := int64(100)
	row := &Params{Named: map[string]Value{"id": NewInt(id)}}
	insert := testing.AllocsPerRun(200, func() {
		id++
		row.Named["id"] = NewInt(id)
		if _, err := ins.Execute(row); err != nil {
			t.Fatal(err)
		}
	})
	if insert > 5 {
		t.Errorf("a prepared one-row INSERT allocates %.0f times, ceiling 5", insert)
	}

	const q = `SELECT v FROM times WHERE run_id = $r`
	run := &Params{Named: map[string]Value{"r": NewInt(2)}}
	db.MustExec(q, run) // fill the result cache
	hit := testing.AllocsPerRun(200, func() {
		if res, err := db.Exec(q, run); err != nil || !res.Cached {
			t.Fatalf("want a cache hit: %+v, %v", res, err)
		}
	})
	if hit > 2 {
		t.Errorf("an ad-hoc SELECT the result cache answers allocates %.0f times, ceiling 2", hit)
	}
}
