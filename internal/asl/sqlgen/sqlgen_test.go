package sqlgen

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/asl/object"
	"repro/internal/asl/parser"
	"repro/internal/asl/sem"
	"repro/internal/sqldb"
)

const testSpec = `
class Run { int NoPe; DateTime Start; }
class Timing { Run R; float T; Kind K; Bool Valid; }
class Region { String Name; Region Parent; setof Timing Ts; }
enum Kind { Alpha, Beta }

float Limit = 0.5;

float Total(Region r, Run t) = SUM(x.T WHERE x IN r.Ts AND x.R == t);

property Hot(Region r, Run t) {
  LET float Tot = Total(r, t);
  IN
  CONDITION: (big) Tot > Limit;
  CONFIDENCE: MAX((big) -> 0.8);
  SEVERITY: Tot;
}

property UsesUnique(Region r, Run t) {
  LET Timing x = UNIQUE({c IN r.Ts WITH c.R == t});
  IN
  CONDITION: x.T > 0.0;
  CONFIDENCE: 1;
  SEVERITY: x.T;
}

property UniqueAsScalar(Region r, Run t) {
  LET Timing x = UNIQUE({c IN r.Ts WITH c.K == Alpha});
  IN
  CONDITION: x != null AND x.R == t;
  CONFIDENCE: 1;
  SEVERITY: x.T;
}

property UsesNAry(Region r, Run t) {
  CONDITION: MAX(Total(r, t), 1.0) > 2.0;
  CONFIDENCE: 1;
  SEVERITY: 1;
}
`

func testWorld(t *testing.T) *sem.World {
	t.Helper()
	spec, err := parser.Parse(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sem.Check(spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func dbExecutor(db *sqldb.DB) ExecutorFunc {
	return func(q string, p *sqldb.Params) (int, error) {
		res, err := db.Exec(q, p)
		if err != nil {
			return 0, err
		}
		return res.Affected, nil
	}
}

func TestSchemaGeneration(t *testing.T) {
	w := testWorld(t)
	ddl, err := Schema(w)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(ddl, "\n")
	for _, want := range []string{
		"CREATE TABLE Region (id INTEGER PRIMARY KEY, Name TEXT, Parent_id INTEGER)",
		"CREATE TABLE Region_Ts (owner_id INTEGER NOT NULL, elem_id INTEGER NOT NULL)",
		"CREATE INDEX idx_Region_Ts_owner ON Region_Ts (owner_id)",
		"CREATE TABLE Timing (id INTEGER PRIMARY KEY, R_id INTEGER, T REAL, K TEXT, Valid BOOLEAN)",
		"CREATE INDEX idx_Timing_R_id ON Timing (R_id)",
		"CREATE TABLE Run (id INTEGER PRIMARY KEY, NoPe INTEGER, Start INTEGER)",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("DDL lacks %q:\n%s", want, joined)
		}
	}
	// The DDL must actually execute.
	db := sqldb.NewDB()
	if err := CreateSchema(w, dbExecutor(db)); err != nil {
		t.Fatal(err)
	}
}

func buildStore(t *testing.T, w *sem.World) (*object.Store, *object.Object, *object.Object) {
	t.Helper()
	store := object.NewStore()
	run := store.New(w.Classes["Run"])
	run.Set("NoPe", object.Int(4))
	run.Set("Start", object.DateTime(945424800))
	region := store.New(w.Classes["Region"])
	region.Set("Name", object.Str("main"))
	kind := w.Enums["Kind"]
	for i, v := range []float64{1.0, 2.0} {
		tm := store.New(w.Classes["Timing"])
		tm.Set("R", run)
		tm.Set("T", object.Float(v))
		tm.Set("Valid", object.Bool(true))
		member := "Alpha"
		if i == 1 {
			member = "Beta"
		}
		tm.Set("K", object.Enum{Type: kind, Member: member})
		region.Append("Ts", tm)
	}
	return store, region, run
}

func TestLoadPlanAndLoad(t *testing.T) {
	w := testWorld(t)
	store, _, _ := buildStore(t, w)
	plan, err := RoutedLoadPlan(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 objects + 2 junction rows, each table's in walk order.
	rows, _ := planRows(t, plan)
	if len(rows) != 6 || !reflect.DeepEqual(groupRows(rows, byTable), groupRows(storeWalk(t, store, nil), byTable)) {
		t.Fatalf("plan rows %v differ from the store walk", rows)
	}
	db := sqldb.NewDB()
	exec := dbExecutor(db)
	if err := CreateSchema(w, exec); err != nil {
		t.Fatal(err)
	}
	n, err := Load(store, exec)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(plan) {
		t.Fatalf("loaded %d statements of %d", n, len(plan))
	}
	res := db.MustExec("SELECT COUNT(*) FROM Timing", nil)
	if res.Set.Rows[0][0].Int() != 2 {
		t.Fatalf("timing rows: %v", res.Set.Rows)
	}
	res = db.MustExec("SELECT K FROM Timing ORDER BY id", nil)
	if res.Set.Rows[0][0].Text() != "Alpha" || res.Set.Rows[1][0].Text() != "Beta" {
		t.Fatalf("enum storage: %v", res.Set.Rows)
	}
}

func TestCompileHotProperty(t *testing.T) {
	w := testWorld(t)
	cp, err := CompileProperty(w, "Hot")
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.CondLabels) != 1 || cp.CondLabels[0] != "big" {
		t.Fatalf("labels: %v", cp.CondLabels)
	}
	if len(cp.ConfGuards) != 1 || cp.ConfGuards[0] != "big" {
		t.Fatalf("guards: %v", cp.ConfGuards)
	}
	for _, want := range []string{"COALESCE(", "SUM(", "$r", "$t", "0.5"} {
		if !strings.Contains(cp.SQL, want) {
			t.Errorf("SQL lacks %q: %s", want, cp.SQL)
		}
	}

	// Execute it against loaded data.
	store, region, run := buildStore(t, w)
	db := sqldb.NewDB()
	exec := dbExecutor(db)
	if err := CreateSchema(w, exec); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(store, exec); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(cp.SQL, &sqldb.Params{Named: map[string]sqldb.Value{
		"r": sqldb.NewInt(region.ID),
		"t": sqldb.NewInt(run.ID),
	}})
	if err != nil {
		t.Fatal(err)
	}
	row := res.Set.Rows[0]
	if !row[0].Bool() {
		t.Errorf("condition: %v", row[0])
	}
	if row[1].Float() != 0.8 {
		t.Errorf("confidence: %v", row[1])
	}
	if row[2].Float() != 3.0 {
		t.Errorf("severity: %v", row[2])
	}
}

func TestCompileUniqueCardinality(t *testing.T) {
	w := testWorld(t)
	cp, err := CompileProperty(w, "UsesUnique")
	if err != nil {
		t.Fatal(err)
	}
	store, region, run := buildStore(t, w)
	db := sqldb.NewDB()
	exec := dbExecutor(db)
	if err := CreateSchema(w, exec); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(store, exec); err != nil {
		t.Fatal(err)
	}
	// Two timings match the run: UNIQUE must fail as a multi-row scalar
	// subquery, matching the object evaluator's error.
	_, err = db.Exec(cp.SQL, &sqldb.Params{Named: map[string]sqldb.Value{
		"r": sqldb.NewInt(region.ID),
		"t": sqldb.NewInt(run.ID),
	}})
	if err == nil || !strings.Contains(err.Error(), "scalar subquery") {
		t.Fatalf("want cardinality error, got %v", err)
	}
	// No timing matches an unknown run: UNIQUE over the empty set has no
	// attribute to read, which SQL spells NULL.
	res, err := db.Exec(cp.SQL, &sqldb.Params{Named: map[string]sqldb.Value{
		"r": sqldb.NewInt(region.ID),
		"t": sqldb.NewInt(run.ID + 1000),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if row := res.Set.Rows[0]; !row[0].IsNull() || !row[2].IsNull() {
		t.Errorf("empty UNIQUE: condition %v, severity %v, want NULL", row[0], row[2])
	}
}

// TestCompileUniqueAsScalar: a UNIQUE value used as a scalar is the id its
// set query selects; its attributes, object-valued ones included, are further
// columns of that same query.
func TestCompileUniqueAsScalar(t *testing.T) {
	w := testWorld(t)
	cp, err := CompileProperty(w, "UniqueAsScalar")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"(SELECT a1.id FROM Region_Ts j2 JOIN Timing a1 ON a1.id = j2.elem_id WHERE j2.owner_id = $r AND (a1.K = 'Alpha')) IS NOT NULL",
		"(SELECT a1.R_id FROM Region_Ts j2 JOIN Timing a1 ON a1.id = j2.elem_id WHERE j2.owner_id = $r AND (a1.K = 'Alpha')) = $t",
		"(SELECT a1.T FROM Region_Ts j2 JOIN Timing a1 ON a1.id = j2.elem_id WHERE j2.owner_id = $r AND (a1.K = 'Alpha')) AS s0",
	} {
		if !strings.Contains(cp.SQL, want) {
			t.Errorf("SQL lacks %q:\n%s", want, cp.SQL)
		}
	}
	store, region, run := buildStore(t, w)
	db := sqldb.NewDB()
	exec := dbExecutor(db)
	if err := CreateSchema(w, exec); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(store, exec); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(cp.SQL, &sqldb.Params{Named: map[string]sqldb.Value{
		"r": sqldb.NewInt(region.ID),
		"t": sqldb.NewInt(run.ID),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if row := res.Set.Rows[0]; !row[0].Bool() || row[2].Float() != 1.0 {
		t.Errorf("condition %v, severity %v, want TRUE and 1", row[0], row[2])
	}
}

func TestCompileNAryUnsupported(t *testing.T) {
	w := testWorld(t)
	if _, err := CompileProperty(w, "UsesNAry"); err == nil {
		t.Fatal("NAry MAX must be rejected by the SQL translator")
	}
	compiled, errs := CompileAll(w)
	if _, ok := compiled["Hot"]; !ok {
		t.Error("Hot missing from CompileAll")
	}
	if _, ok := errs["UsesNAry"]; !ok {
		t.Error("UsesNAry missing from CompileAll errors")
	}
}

func TestCompileUnknownProperty(t *testing.T) {
	w := testWorld(t)
	if _, err := CompileProperty(w, "Nope"); err == nil {
		t.Fatal("expected error")
	}
}

func TestReadStoreRoundTrip(t *testing.T) {
	w := testWorld(t)
	store, region, run := buildStore(t, w)
	db := sqldb.NewDB()
	exec := dbExecutor(db)
	if err := CreateSchema(w, exec); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(store, exec); err != nil {
		t.Fatal(err)
	}
	qexec := queryFunc(func(q string, p *sqldb.Params) (*sqldb.ResultSet, error) {
		res, err := db.Exec(q, p)
		if err != nil {
			return nil, err
		}
		return res.Set, nil
	})
	got, err := ReadStore(w, qexec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != store.Len() {
		t.Fatalf("store size %d, want %d", got.Len(), store.Len())
	}
	// The fetched region must have the same name, the same number of
	// timings, and timing values must match by ID.
	var fetched *object.Object
	for _, o := range got.OfClass("Region") {
		if o.ID == region.ID {
			fetched = o
		}
	}
	if fetched == nil {
		t.Fatal("region missing after round trip")
	}
	if name := fetched.Get("Name"); !object.Equal(name, object.Str("main")) {
		t.Fatalf("name: %s", name)
	}
	set := fetched.Get("Ts").(*object.Set)
	if len(set.Elems) != 2 {
		t.Fatalf("timings: %d", len(set.Elems))
	}
	for _, e := range set.Elems {
		tm := e.(*object.Object)
		r := tm.Get("R").(*object.Object)
		if r.ID != run.ID {
			t.Fatalf("timing run id %d, want %d", r.ID, run.ID)
		}
		if k := tm.Get("K").(object.Enum); k.Type != w.Enums["Kind"] {
			t.Fatal("enum type not restored")
		}
		if v := tm.Get("Valid"); !object.Equal(v, object.Bool(true)) {
			t.Fatalf("bool not restored: %s", v)
		}
	}
}

type queryFunc func(q string, p *sqldb.Params) (*sqldb.ResultSet, error)

func (f queryFunc) ExecQuery(q string, p *sqldb.Params) (*sqldb.ResultSet, error) { return f(q, p) }

func TestColumnNaming(t *testing.T) {
	w := testWorld(t)
	region := w.Classes["Region"]
	parent, _ := region.Lookup("Parent")
	if ColumnFor(parent) != "Parent_id" {
		t.Errorf("class attr column: %s", ColumnFor(parent))
	}
	name, _ := region.Lookup("Name")
	if ColumnFor(name) != "Name" {
		t.Errorf("scalar attr column: %s", ColumnFor(name))
	}
	if JunctionFor(region, "Ts") != "Region_Ts" {
		t.Errorf("junction: %s", JunctionFor(region, "Ts"))
	}
}

func TestStringEscaping(t *testing.T) {
	w := testWorld(t)
	store := object.NewStore()
	r := store.New(w.Classes["Region"])
	r.Set("Name", object.Str("o'brien"))
	db := sqldb.NewDB()
	exec := dbExecutor(db)
	if err := CreateSchema(w, exec); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(store, exec); err != nil {
		t.Fatal(err)
	}
	res := db.MustExec("SELECT Name FROM Region", nil)
	if res.Set.Rows[0][0].Text() != "o'brien" {
		t.Fatalf("got %v", res.Set.Rows[0][0])
	}
}
