package sqlgen

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/object"
	"repro/internal/asl/sem"
	"repro/internal/model"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

// shardGraph materializes a small two-run dataset.
func shardGraph(t *testing.T) *model.Graph {
	t.Helper()
	return twoRuns(t, apprentice.Particles())
}

// bulkGraph materializes a two-run dataset whose larger tables hold more
// than maxInsertRows rows of each run: 280 TypedTiming rows per run.
func bulkGraph(t *testing.T) *model.Graph {
	t.Helper()
	return twoRuns(t, apprentice.ScaledStencil(8, 14))
}

func twoRuns(t *testing.T, w *apprentice.Workload) *model.Graph {
	t.Helper()
	ds, err := apprentice.Simulate(w, apprentice.PartitionSweep(2, 8), 42)
	if err != nil {
		t.Fatal(err)
	}
	g, err := model.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// walkRow is one row of a load: its table, its owning run (0 for broadcast)
// and its values in column order.
type walkRow struct {
	table string
	run   int64
	vals  []sqldb.Value
}

// storeWalk is the per-row reference for the load plan: one row per object
// and then one per set membership of that object, in store allocation order,
// each attributed to the run its object (a junction row: its element) names
// when the class is partitioned.
func storeWalk(t *testing.T, store *object.Store, partitioned map[string]bool) []walkRow {
	t.Helper()
	runOf := func(o *object.Object) int64 {
		if run, ok := o.Get("Run").(*object.Object); ok && partitioned[o.Class.Name] {
			return run.ID
		}
		return 0
	}
	var rows []walkRow
	for _, obj := range store.All() {
		row := walkRow{table: obj.Class.Name, run: runOf(obj), vals: []sqldb.Value{sqldb.NewInt(obj.ID)}}
		var junctions []walkRow
		for _, attr := range obj.Class.AllAttrs() {
			if _, isSet := attr.Type.(*sem.Set); !isSet {
				v, err := toSQLValue(obj.Get(attr.Name))
				if err != nil {
					t.Fatal(err)
				}
				row.vals = append(row.vals, v)
				continue
			}
			set, ok := obj.Get(attr.Name).(*object.Set)
			if !ok {
				continue
			}
			for _, e := range set.Elems {
				eo := e.(*object.Object)
				junctions = append(junctions, walkRow{
					table: JunctionFor(obj.Class, attr.Name),
					run:   runOf(eo),
					vals:  []sqldb.Value{sqldb.NewInt(obj.ID), sqldb.NewInt(eo.ID)},
				})
			}
		}
		rows = append(append(rows, row), junctions...)
	}
	return rows
}

// planRows flattens a load plan into its rows, in plan order, after checking
// each statement's shape: an INSERT into its own Table, of 1 to
// maxInsertRows rows, each row a list of fresh positional markers, so that
// the statement binds rows × columns values. Within a (table, run) group only
// the last statement may hold fewer than maxInsertRows rows. full counts the
// statements that hold maxInsertRows.
func planRows(t *testing.T, plan []RoutedStatement) (rows []walkRow, full int) {
	t.Helper()
	short := make(map[string]bool) // groups whose last statement was short
	for i, st := range plan {
		parsed, err := sqldb.ParseSQL(st.SQL)
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		ins, ok := parsed.(*sqldb.InsertStmt)
		if !ok || ins.Table != st.Table {
			t.Fatalf("statement %d (table %q) is not an INSERT into it: %.80s", i, st.Table, st.SQL)
		}
		n, w := len(ins.Rows), len(ins.Cols)
		if n == 0 || n > maxInsertRows {
			t.Fatalf("statement %d (%s) holds %d rows, want 1..%d", i, st.Table, n, maxInsertRows)
		}
		if got := len(st.Params.Positional); got != n*w {
			t.Fatalf("statement %d (%s) binds %d values for %d rows of %d columns", i, st.Table, got, n, w)
		}
		group := fmt.Sprintf("%s/%d", st.Table, st.RunID)
		if short[group] {
			t.Fatalf("statement %d (%s): group %s continues after a short statement", i, st.Table, group)
		}
		short[group] = n < maxInsertRows
		if n == maxInsertRows {
			full++
		}
		for r, exprs := range ins.Rows {
			for c, e := range exprs {
				if p, ok := e.(*sqldb.EParam); !ok || p.Name != "" || p.Ordinal != r*w+c {
					t.Fatalf("statement %d row %d column %d is %#v, want marker %d", i, r, c, e, r*w+c)
				}
			}
			rows = append(rows, walkRow{table: st.Table, run: st.RunID, vals: st.Params.Positional[r*w : (r+1)*w]})
		}
	}
	return rows, full
}

// groupRows splits rows by key, keeping their order within each key.
func groupRows(rows []walkRow, key func(walkRow) string) map[string][][]sqldb.Value {
	groups := make(map[string][][]sqldb.Value)
	for _, r := range rows {
		groups[key(r)] = append(groups[key(r)], r.vals)
	}
	return groups
}

func byTable(r walkRow) string       { return r.table }
func byTableAndRun(r walkRow) string { return fmt.Sprintf("%s/%d", r.table, r.run) }

// TestLoadPlanRowsFollowTheStoreWalk: flattened, the plain plan's rows are
// the per-row store walk's, table by table and in order; the routed plan's
// are, (table, run) group by (table, run) group. LoadPlan is the routed
// plan with a nil partition set, everything broadcast.
func TestLoadPlanRowsFollowTheStoreWalk(t *testing.T) {
	g := bulkGraph(t)
	routedPlain, err := RoutedLoadPlan(g.Store, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := LoadPlan(g.Store)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(routedPlain) {
		t.Fatalf("LoadPlan has %d statements, the un-routed RoutedLoadPlan %d", len(plain), len(routedPlain))
	}
	for i, rs := range routedPlain {
		if rs.Statement.SQL != plain[i].SQL || !reflect.DeepEqual(rs.Params, plain[i].Params) || !rs.Broadcast() {
			t.Fatalf("statement %d: LoadPlan differs from the un-routed RoutedLoadPlan", i)
		}
	}
	part := model.RunPartitioned()
	routed, err := RoutedLoadPlan(g.Store, part)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name        string
		plan        []RoutedStatement
		partitioned map[string]bool
		key         func(walkRow) string
	}{
		{"plain", routedPlain, nil, byTable},
		{"routed", routed, part, byTableAndRun},
	} {
		rows, full := planRows(t, c.plan)
		walk := storeWalk(t, g.Store, c.partitioned)
		if len(rows) != len(walk) {
			t.Fatalf("%s plan holds %d rows, the store walk %d", c.name, len(rows), len(walk))
		}
		if !reflect.DeepEqual(groupRows(rows, c.key), groupRows(walk, c.key)) {
			t.Fatalf("%s plan: a group's rows differ from the store walk's", c.name)
		}
		if full == 0 {
			t.Fatalf("%s plan: no statement reaches the row limit, so no group was split", c.name)
		}
	}
}

// TestMaxInsertRowsIsTheWireBatchLimit: one load statement carries no more
// rows than one batch request may carry bindings.
func TestMaxInsertRowsIsTheWireBatchLimit(t *testing.T) {
	if maxInsertRows != wire.MaxBatch {
		t.Fatalf("maxInsertRows = %d, wire.MaxBatch = %d", maxInsertRows, wire.MaxBatch)
	}
}

// TestBulkLoadMatchesRowAtATime: a database loaded by the multi-row plan
// holds every table's rows in the same sequence as one loaded a row per
// statement.
func TestBulkLoadMatchesRowAtATime(t *testing.T) {
	g := bulkGraph(t)
	bulk, single := sqldb.NewDB(), sqldb.NewDB()
	for _, db := range []*sqldb.DB{bulk, single} {
		if err := CreateSchema(g.World, dbExecutor(db)); err != nil {
			t.Fatal(err)
		}
	}
	stmts, err := Load(g.Store, dbExecutor(bulk))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := RoutedLoadPlan(g.Store, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stmts != len(plan) {
		t.Fatalf("Load executed %d statements, the plan has %d", stmts, len(plan))
	}
	tables := make(map[string]bool)
	rows := 0
	for _, st := range plan {
		tables[st.Table] = true
		each, err := testutil.RowInserts(st.SQL, st.Params)
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range each {
			single.MustExec(ri.SQL, ri.Params)
			rows++
		}
	}
	if want := len(storeWalk(t, g.Store, nil)); rows != want || stmts >= rows {
		t.Fatalf("%d statements carried %d rows; the store walk has %d", stmts, rows, want)
	}
	for table := range tables {
		a := bulk.MustExec("SELECT * FROM "+table, nil).Set
		b := single.MustExec("SELECT * FROM "+table, nil).Set
		if !reflect.DeepEqual(a.Columns, b.Columns) || !reflect.DeepEqual(a.Rows, b.Rows) {
			t.Errorf("%s: bulk load holds %d rows, row-at-a-time load %d, or their sequences differ", table, len(a.Rows), len(b.Rows))
		}
	}
}

// TestLoadErrorNamesTableAndRow: a load statement that fails names its table
// and its failing row, and quotes no SQL.
func TestLoadErrorNamesTableAndRow(t *testing.T) {
	g := shardGraph(t)
	db := sqldb.NewDB()
	if err := CreateSchema(g.World, dbExecutor(db)); err != nil {
		t.Fatal(err)
	}
	plan, err := RoutedLoadPlan(g.Store, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-insert the third row of the first class table's statement of
	// three or more rows: a duplicate primary key (junctions have none).
	var victim RoutedStatement
	var each []testutil.RowInsert
	for _, st := range plan {
		if g.World.Classes[st.Table] == nil {
			continue
		}
		if each, err = testutil.RowInserts(st.SQL, st.Params); err != nil {
			t.Fatal(err)
		}
		if len(each) >= 3 {
			victim = st
			break
		}
	}
	if len(each) < 3 {
		t.Fatal("no class table statement of three rows or more to break")
	}
	db.MustExec(each[2].SQL, each[2].Params)
	_, err = Load(g.Store, dbExecutor(db))
	want := fmt.Sprintf("sqlgen: loading %s: sqldb: INSERT INTO %s row 3 of %d: ", victim.Table, victim.Table, len(each))
	if err == nil || !strings.HasPrefix(err.Error(), want) || strings.Contains(err.Error(), "VALUES") {
		t.Fatalf("load error = %v, want it to start %q and quote no SQL", err, want)
	}
}

// TestRoutedLoadPlanAttribution: every INSERT of a partitioned class (and of
// its junction memberships) carries its owning run id, and everything else
// broadcasts.
func TestRoutedLoadPlanAttribution(t *testing.T) {
	g := shardGraph(t)
	part := model.RunPartitioned()
	routed, err := RoutedLoadPlan(g.Store, part)
	if err != nil {
		t.Fatal(err)
	}
	planRows(t, routed) // every statement inserts into its Table
	runIDs := make(map[int64]bool)
	for _, run := range g.Dataset.Versions[0].Runs {
		runIDs[g.Runs[run].ID] = true
	}
	partitionedSeen, broadcastSeen := 0, 0
	for i, rs := range routed {
		// Junction rows of a partitioned class route with their element.
		partitionedTable := part[rs.Table] ||
			rs.Table == "Region_TypTimes" || rs.Table == "FunctionCall_Sums"
		switch {
		case partitionedTable && rs.Broadcast():
			t.Fatalf("statement %d (%s) not routed", i, rs.Table)
		case !partitionedTable && !rs.Broadcast():
			t.Fatalf("statement %d (%s) routed to run %d", i, rs.Table, rs.RunID)
		case rs.Broadcast():
			broadcastSeen++
		default:
			if !runIDs[rs.RunID] {
				t.Fatalf("statement %d routed to unknown run %d", i, rs.RunID)
			}
			partitionedSeen++
		}
	}
	if partitionedSeen == 0 || broadcastSeen == 0 {
		t.Fatalf("degenerate plan: %d partitioned, %d broadcast", partitionedSeen, broadcastSeen)
	}
}

// countingExec is an in-memory shard double recording executed statements.
type countingExec struct {
	db    *sqldb.DB
	stmts int
}

func (c *countingExec) Exec(q string, p *sqldb.Params) (int, error) {
	res, err := c.db.Exec(q, p)
	if err != nil {
		return 0, err
	}
	c.stmts++
	return res.Affected, nil
}

func tableCount(t *testing.T, db *sqldb.DB, table string) int64 {
	t.Helper()
	res, err := db.Exec("SELECT COUNT(*) FROM "+table, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Set.Rows[0][0].Int()
}

// TestLoadShardedPartitionsAndReplicates loads a two-run dataset across two
// shards and verifies the placement invariants: partitioned tables split
// with nothing lost, replicated tables are identical everywhere.
func TestLoadShardedPartitionsAndReplicates(t *testing.T) {
	g := shardGraph(t)
	shards := []*countingExec{{db: sqldb.NewDB()}, {db: sqldb.NewDB()}}
	var execs []Executor
	for _, s := range shards {
		if err := CreateSchema(g.World, s); err != nil {
			t.Fatal(err)
		}
		s.stmts = 0
		execs = append(execs, s)
	}
	shardFor := func(runID int64) int { return int(runID % 2) }
	counts, err := LoadSharded(g.Store, model.RunPartitioned(), shardFor, execs...)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0]+counts[1] != shards[0].stmts+shards[1].stmts {
		t.Fatalf("reported counts %v, executed %d+%d", counts, shards[0].stmts, shards[1].stmts)
	}

	// A single-node load is the reference row census.
	single := &countingExec{db: sqldb.NewDB()}
	if err := CreateSchema(g.World, single); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(g.Store, single); err != nil {
		t.Fatal(err)
	}

	for _, table := range []string{"TypedTiming", "CallTiming", "Region_TypTimes", "FunctionCall_Sums"} {
		a, b := tableCount(t, shards[0].db, table), tableCount(t, shards[1].db, table)
		want := tableCount(t, single.db, table)
		if a+b != want {
			t.Errorf("%s: shards hold %d+%d rows, single node %d", table, a, b, want)
		}
		if a == 0 || b == 0 {
			t.Errorf("%s: lopsided partition %d/%d (both runs on one shard?)", table, a, b)
		}
	}
	for _, table := range []string{"TotalTiming", "TestRun", "Region", "Function", "Region_TotTimes", "Program"} {
		a, b := tableCount(t, shards[0].db, table), tableCount(t, shards[1].db, table)
		want := tableCount(t, single.db, table)
		if a != want || b != want {
			t.Errorf("%s: shards hold %d/%d rows, single node %d (must replicate)", table, a, b, want)
		}
	}
}

// TestLoadShardedRejectsBadRouting: a policy that routes outside the shard
// range is an error, not a crash or silent drop.
func TestLoadShardedRejectsBadRouting(t *testing.T) {
	g := shardGraph(t)
	s := &countingExec{db: sqldb.NewDB()}
	if err := CreateSchema(g.World, s); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSharded(g.Store, model.RunPartitioned(),
		func(int64) int { return 7 }, s); err == nil {
		t.Fatal("out-of-range routing accepted")
	}
	if _, err := LoadSharded(g.Store, model.RunPartitioned(), func(int64) int { return 0 }); err == nil {
		t.Fatal("zero shards accepted")
	}
}
