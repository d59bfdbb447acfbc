package sqldb

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func batchDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL, tag TEXT)", nil)
	for i := 0; i < 10; i++ {
		db.MustExec("INSERT INTO t (id, v, tag) VALUES (?, ?, ?)", &Params{Positional: []Value{
			NewInt(int64(i)), NewFloat(float64(i) * 1.5), NewText(fmt.Sprintf("tag%d", i%3)),
		}})
	}
	return db
}

func TestExecuteBatchSelect(t *testing.T) {
	db := batchDB(t)
	ps, err := db.Prepare("SELECT v FROM t WHERE id = $id")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var bindings []*Params
	for i := 0; i < 10; i++ {
		bindings = append(bindings, &Params{Named: map[string]Value{"id": NewInt(int64(i))}})
	}
	results, err := ps.ExecuteBatch(bindings)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 10 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("binding %d: %v", i, r.Err)
		}
		if len(r.Res.Set.Rows) != 1 || r.Res.Set.Rows[0][0].Float() != float64(i)*1.5 {
			t.Fatalf("binding %d: rows %v", i, r.Res.Set.Rows)
		}
	}
	st := db.Stats()
	if st.BatchExecs != 1 || st.BatchBindings != 10 {
		t.Fatalf("batch stats: %d execs, %d bindings", st.BatchExecs, st.BatchBindings)
	}
}

func TestExecuteBatchMatchesExecutePerBinding(t *testing.T) {
	db := batchDB(t)
	ps, err := db.Prepare("SELECT COUNT(*), tag FROM t WHERE v > $lo GROUP BY tag ORDER BY tag")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var bindings []*Params
	for i := 0; i < 6; i++ {
		bindings = append(bindings, &Params{Named: map[string]Value{"lo": NewFloat(float64(i))}})
	}
	batched, err := ps.ExecuteBatch(bindings)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range bindings {
		res, err := ps.Execute(p)
		if err != nil {
			t.Fatal(err)
		}
		if batched[i].Err != nil {
			t.Fatalf("binding %d: %v", i, batched[i].Err)
		}
		want := fmt.Sprintf("%v", res.Set.Rows)
		got := fmt.Sprintf("%v", batched[i].Res.Set.Rows)
		if got != want {
			t.Fatalf("binding %d: batched %s, per-exec %s", i, got, want)
		}
	}
}

func TestExecuteBatchInsertSingleLock(t *testing.T) {
	db := NewDB()
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)", nil)
	ps, err := db.Prepare("INSERT INTO t (id, v) VALUES ($id, $v)")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var bindings []*Params
	for i := 0; i < 50; i++ {
		bindings = append(bindings, &Params{Named: map[string]Value{
			"id": NewInt(int64(i)), "v": NewFloat(float64(i)),
		}})
	}
	results, err := ps.ExecuteBatch(bindings)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Res.Affected != 1 {
			t.Fatalf("binding %d: %+v", i, r)
		}
	}
	res := db.MustExec("SELECT COUNT(*) FROM t", nil)
	if res.Set.Rows[0][0].Int() != 50 {
		t.Fatalf("count: %v", res.Set.Rows[0][0])
	}
}

func TestExecuteBatchPartialFailure(t *testing.T) {
	db := batchDB(t)
	ps, err := db.Prepare("SELECT v FROM t WHERE id = $id")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	// Bindings 1 and 3 lack the named parameter; the others must still run,
	// and outcomes must line up with binding order.
	bindings := []*Params{
		{Named: map[string]Value{"id": NewInt(0)}},
		{Named: map[string]Value{"nope": NewInt(0)}},
		{Named: map[string]Value{"id": NewInt(2)}},
		nil,
		{Named: map[string]Value{"id": NewInt(4)}},
	}
	results, err := ps.ExecuteBatch(bindings)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 3} {
		if results[i].Err == nil || !strings.Contains(results[i].Err.Error(), "parameter") {
			t.Fatalf("binding %d: expected parameter error, got %+v", i, results[i])
		}
		if results[i].Res != nil {
			t.Fatalf("binding %d: result alongside error", i)
		}
	}
	for _, i := range []int{0, 2, 4} {
		if results[i].Err != nil {
			t.Fatalf("binding %d: %v", i, results[i].Err)
		}
		if got := results[i].Res.Set.Rows[0][0].Float(); got != float64(i)*1.5 {
			t.Fatalf("binding %d: v = %v", i, got)
		}
	}
}

func TestExecuteBatchReplansAfterDDL(t *testing.T) {
	db := batchDB(t)
	ps, err := db.Prepare("SELECT v FROM t WHERE id = $id")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	// DDL between prepare and the batch: the stale plan must be rebuilt, and
	// the batch must then run to completion.
	db.MustExec("CREATE INDEX idx_t_id ON t (id)", nil)
	results, err := ps.ExecuteBatch([]*Params{
		{Named: map[string]Value{"id": NewInt(3)}},
		{Named: map[string]Value{"id": NewInt(7)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[0].Res.Set.Rows[0][0].Float() != 4.5 {
		t.Fatalf("binding 0: %+v", results[0])
	}
	if results[1].Err != nil || results[1].Res.Set.Rows[0][0].Float() != 10.5 {
		t.Fatalf("binding 1: %+v", results[1])
	}
	if db.Stats().Replans == 0 {
		t.Fatal("expected a replan after DDL")
	}
}

func TestExecuteBatchRejectsDDLAndClosed(t *testing.T) {
	db := batchDB(t)
	ps, err := db.Prepare("CREATE INDEX idx_v ON t (v)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ps.ExecuteBatch([]*Params{nil}); err == nil {
		t.Fatal("batched DDL must be rejected")
	}
	ps.Close()

	sel, err := db.Prepare("SELECT v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	sel.Close()
	if _, err := sel.ExecuteBatch([]*Params{nil}); err == nil {
		t.Fatal("batch on closed statement must fail")
	}

	open, err := db.Prepare("SELECT v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	results, err := open.ExecuteBatch(nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty batch: %v %v", results, err)
	}
}

func TestExecuteBatchConcurrentWithDDL(t *testing.T) {
	db := batchDB(t)
	ps, err := db.Prepare("SELECT v FROM t WHERE id = $id")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var bindings []*Params
	for i := 0; i < 10; i++ {
		bindings = append(bindings, &Params{Named: map[string]Value{"id": NewInt(int64(i))}})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				results, err := ps.ExecuteBatch(bindings)
				if err != nil {
					t.Error(err)
					return
				}
				for i, r := range results {
					if r.Err != nil || r.Res.Set.Rows[0][0].Float() != float64(i)*1.5 {
						t.Errorf("binding %d: %+v", i, r)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rep := 0; rep < 10; rep++ {
			db.MustExec(fmt.Sprintf("CREATE INDEX idx_ddl_%d ON t (tag)", rep), nil)
		}
	}()
	wg.Wait()
}

// outcome renders one execution's result or error for comparison.
func outcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(res.Set.Rows)
}

// TestExecuteBatchSharesInvariantSubqueries: a batch comes out exactly as its
// bindings executed alone, one Execute each, when subqueries read parameters
// every binding agrees on — and when they look alike but differ: NaN, the same
// value of another kind, a missing parameter, a correlated subquery — with
// failures in a binding's own subquery or in the one they all share.
func TestExecuteBatchSharesInvariantSubqueries(t *testing.T) {
	named := func(kv ...any) *Params {
		p := &Params{Named: map[string]Value{}}
		for i := 0; i < len(kv); i += 2 {
			p.Named[kv[i].(string)] = kv[i+1].(Value)
		}
		return p
	}
	var varyR, nanX, positional, mixedKinds []*Params
	for r := int64(1); r <= 8; r++ {
		varyR = append(varyR, named("r", NewInt(r), "basis", NewInt(2), "g", NewText("tag0")))
		nanX = append(nanX, named("r", NewInt(r), "x", NewFloat(math.NaN())))
		positional = append(positional, &Params{Positional: []Value{NewInt(r), NewInt(2)}})
		// 2 and 2.0 select the same row but are not the same binding.
		basis := NewInt(2)
		if r%2 == 0 {
			basis = NewFloat(2)
		}
		mixedKinds = append(mixedKinds, named("r", NewInt(r), "basis", basis))
	}
	const ratio = "SELECT (SELECT x.v FROM t x WHERE x.id = $r) / (SELECT y.v FROM t y WHERE y.id = $basis)"
	for _, tc := range []struct {
		name     string
		sql      string
		bindings []*Params
		wantErrs int // bindings that must fail
	}{
		{"shared basis", ratio, varyR, 0},
		{"two uses of the shared subquery in one binding count once",
			"SELECT (SELECT x.v FROM t x WHERE x.id = $r) / (SELECT y.v FROM t y WHERE y.id = $basis), (SELECT y.v FROM t y WHERE y.id = $basis)", varyR, 0},
		{"no parameter at all is shared too",
			"SELECT (SELECT x.v FROM t x WHERE x.id = $r) / (SELECT MAX(y.v) FROM t y)", varyR, 0},
		{"positional markers", "SELECT (SELECT x.v FROM t x WHERE x.id = ?) / (SELECT y.v FROM t y WHERE y.id = ?)", positional, 0},
		{"one binding's own subquery fails before it reaches the shared one",
			"SELECT (SELECT 6 / (x.id - $r) FROM t x WHERE x.id = 3) + (SELECT y.v FROM t y WHERE y.id = $basis)", varyR, 1},
		{"the shared subquery fails: every binding reports it",
			"SELECT (SELECT x.v FROM t x WHERE x.id = $r) + (SELECT y.v FROM t y WHERE y.tag = $g)", varyR, 8},
		{"a NaN is never constant",
			"SELECT (SELECT x.v FROM t x WHERE x.id = $r), (SELECT COUNT(*) FROM t y WHERE y.v < $x)", nanX, 0},
		{"same value of another kind is not constant", ratio, mixedKinds, 0},
		{"a missing parameter is not constant", ratio,
			append([]*Params{named("r", NewInt(1))}, varyR...), 1},
		{"a correlated subquery is not shared",
			"SELECT id, (SELECT MAX(y.v) FROM t y WHERE y.tag = x.tag AND y.id <> $basis) FROM t x WHERE x.id = $r", varyR, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := batchDB(t)
			db.SetResultCacheSize(0) // every binding executes
			ps, err := db.Prepare(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()

			var want []string
			errs := 0
			for _, p := range tc.bindings {
				res, err := ps.Execute(p)
				if err != nil {
					errs++
				}
				want = append(want, outcome(res, err))
			}
			if errs != tc.wantErrs {
				t.Fatalf("%d bindings fail alone, test expects %d: %q", errs, tc.wantErrs, want)
			}
			results, err := ps.ExecuteBatch(tc.bindings)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				if got := outcome(r.Res, r.Err); got != want[i] {
					t.Errorf("binding %d: batched %s, alone %s", i, got, want[i])
				}
			}
		})
	}
}

// TestExecuteBatchSubqueryCacheDiesWithBatch: DML between two batches on the
// same handle is seen by the second, with the result cache on — subquery
// values live for one execution, cached results for one data version.
func TestExecuteBatchSubqueryCacheDiesWithBatch(t *testing.T) {
	db := batchDB(t)
	ps, err := db.Prepare("SELECT (SELECT x.v FROM t x WHERE x.id = $r) / (SELECT y.v FROM t y WHERE y.id = $basis)")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	var bindings []*Params
	for r := int64(1); r <= 4; r++ {
		bindings = append(bindings, &Params{Named: map[string]Value{"r": NewInt(r), "basis": NewInt(2)}})
	}
	ratios := func() []float64 {
		t.Helper()
		results, err := ps.ExecuteBatch(bindings)
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("binding %d: %v", i, r.Err)
			}
			out = append(out, r.Res.Set.Rows[0][0].Float())
		}
		return out
	}
	if got, want := fmt.Sprint(ratios()), "[0.5 1 1.5 2]"; got != want { // basis v = 3
		t.Fatalf("first batch: %s, want %s", got, want)
	}
	db.MustExec("UPDATE t SET v = 6 WHERE id = 2", nil)
	if got, want := fmt.Sprint(ratios()), "[0.25 1 0.75 1]"; got != want {
		t.Fatalf("batch after UPDATE: %s, want %s", got, want)
	}
}
