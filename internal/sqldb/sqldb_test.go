package sqldb

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// mustQuery runs a SELECT and fails the test on error.
func mustQuery(t *testing.T, db *DB, q string, params *Params) *ResultSet {
	t.Helper()
	res, err := db.Exec(q, params)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	if res.Set == nil {
		t.Fatalf("query %q: no result set", q)
	}
	return res.Set
}

func testDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	stmts := []string{
		`CREATE TABLE emp (id INTEGER PRIMARY KEY, name TEXT NOT NULL, dept INTEGER, salary REAL)`,
		`CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT)`,
		`INSERT INTO dept (id, name) VALUES (1, 'eng'), (2, 'ops'), (3, 'empty')`,
		`INSERT INTO emp (id, name, dept, salary) VALUES
			(1, 'ada', 1, 100.0),
			(2, 'bob', 1, 80.0),
			(3, 'cyd', 2, 90.0),
			(4, 'dee', 2, 90.0),
			(5, 'eve', NULL, NULL)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s, nil); err != nil {
			t.Fatalf("setup %q: %v", s, err)
		}
	}
	return db
}

func TestCreateTableDuplicate(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`CREATE TABLE emp (id INTEGER)`, nil); err == nil {
		t.Fatal("duplicate CREATE TABLE succeeded")
	}
}

func TestInsertTypeCoercion(t *testing.T) {
	db := testDB(t)
	// Integer into REAL column and float-with-integral-value into INTEGER.
	if _, err := db.Exec(`INSERT INTO emp (id, name, dept, salary) VALUES (6, 'fay', 1, 70)`, nil); err != nil {
		t.Fatalf("int into REAL: %v", err)
	}
	set := mustQuery(t, db, `SELECT salary FROM emp WHERE id = 6`, nil)
	if got := set.Rows[0][0]; !got.IsNumeric() || got.Float() != 70 {
		t.Fatalf("salary = %v, want 70", got)
	}
}

func TestInsertErrors(t *testing.T) {
	db := testDB(t)
	cases := []string{
		`INSERT INTO emp (id, name) VALUES (1, 'dup')`,          // duplicate PK
		`INSERT INTO emp (id, name) VALUES (9, NULL)`,           // NOT NULL
		`INSERT INTO emp (id, name) VALUES (9, 'x'), (9, 'y')`,  // dup within batch
		`INSERT INTO emp (id, name, bogus) VALUES (9, 'x', 1)`,  // unknown column
		`INSERT INTO nosuch (id) VALUES (1)`,                    // unknown table
		`INSERT INTO emp (id, name, dept) VALUES (9, 'x')`,      // arity
		`INSERT INTO emp (id, name) VALUES (9, 'x'), (10, 3.5)`, // type error
	}
	for _, q := range cases {
		if _, err := db.Exec(q, nil); err == nil {
			t.Errorf("%q: expected error", q)
		}
	}
}

func TestSelectWhere(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `SELECT name FROM emp WHERE salary > 85 ORDER BY name`, nil)
	var names []string
	for _, r := range set.Rows {
		names = append(names, r[0].Text())
	}
	if got := strings.Join(names, ","); got != "ada,cyd,dee" {
		t.Fatalf("names = %s, want ada,cyd,dee", got)
	}
}

func TestSelectNullComparisonExcluded(t *testing.T) {
	db := testDB(t)
	// eve has NULL salary: neither > nor <= matches under 3VL.
	a := mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE salary > 0`, nil)
	b := mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE salary <= 0`, nil)
	if a.Rows[0][0].Int()+b.Rows[0][0].Int() != 4 {
		t.Fatalf("3VL violated: %v + %v != 4", a.Rows[0][0], b.Rows[0][0])
	}
	c := mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE salary IS NULL`, nil)
	if c.Rows[0][0].Int() != 1 {
		t.Fatalf("IS NULL count = %v, want 1", c.Rows[0][0])
	}
}

func TestJoin(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `
		SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept = d.id
		ORDER BY e.name`, nil)
	if len(set.Rows) != 4 {
		t.Fatalf("join rows = %d, want 4 (NULL dept must not match)", len(set.Rows))
	}
	if set.Rows[0][0].Text() != "ada" || set.Rows[0][1].Text() != "eng" {
		t.Fatalf("row0 = %v", set.Rows[0])
	}
}

func TestJoinNestedLoopFallback(t *testing.T) {
	db := testDB(t)
	// Non-equi join exercises the nested-loop path.
	set := mustQuery(t, db, `
		SELECT COUNT(*) FROM emp e JOIN dept d ON e.dept < d.id`, nil)
	// dept 1 matches d.id 2,3 (2 emps * 2) ; dept 2 matches 3 (2 emps * 1).
	if got := set.Rows[0][0].Int(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
}

func TestGroupBy(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `
		SELECT d.name, COUNT(*), AVG(e.salary), SUM(e.salary), MIN(e.salary), MAX(e.salary)
		FROM emp e JOIN dept d ON e.dept = d.id
		GROUP BY d.name ORDER BY d.name`, nil)
	if len(set.Rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(set.Rows))
	}
	eng := set.Rows[0]
	if eng[0].Text() != "eng" || eng[1].Int() != 2 || eng[2].Float() != 90 || eng[3].Float() != 180 {
		t.Fatalf("eng = %v", eng)
	}
	ops := set.Rows[1]
	if ops[0].Text() != "ops" || ops[4].Float() != 90 || ops[5].Float() != 90 {
		t.Fatalf("ops = %v", ops)
	}
}

func TestHaving(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `
		SELECT dept, COUNT(*) AS n FROM emp WHERE dept IS NOT NULL
		GROUP BY dept HAVING COUNT(*) >= 2 ORDER BY dept`, nil)
	if len(set.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(set.Rows))
	}
}

func TestAggregatesOverEmptyInput(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `SELECT COUNT(*), SUM(salary), MIN(salary), AVG(salary) FROM emp WHERE id > 100`, nil)
	r := set.Rows[0]
	if r[0].Int() != 0 {
		t.Fatalf("COUNT = %v, want 0", r[0])
	}
	for i := 1; i < 4; i++ {
		if !r[i].IsNull() {
			t.Fatalf("aggregate %d = %v, want NULL", i, r[i])
		}
	}
}

func TestCountIgnoresNulls(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `SELECT COUNT(salary), COUNT(*) FROM emp`, nil)
	if set.Rows[0][0].Int() != 4 || set.Rows[0][1].Int() != 5 {
		t.Fatalf("counts = %v", set.Rows[0])
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `SELECT name, salary FROM emp WHERE salary IS NOT NULL ORDER BY salary DESC, name LIMIT 2`, nil)
	if len(set.Rows) != 2 || set.Rows[0][0].Text() != "ada" || set.Rows[1][0].Text() != "cyd" {
		t.Fatalf("rows = %v", set.Rows)
	}
}

func TestOrderByAlias(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `SELECT name, salary * 2 AS double FROM emp WHERE salary IS NOT NULL ORDER BY double DESC LIMIT 1`, nil)
	if set.Rows[0][0].Text() != "ada" {
		t.Fatalf("row = %v", set.Rows[0])
	}
}

func TestOrderByNullsLast(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `SELECT name FROM emp ORDER BY salary ASC`, nil)
	if got := set.Rows[len(set.Rows)-1][0].Text(); got != "eve" {
		t.Fatalf("last = %s, want eve (NULLS LAST)", got)
	}
	set = mustQuery(t, db, `SELECT name FROM emp ORDER BY salary DESC`, nil)
	if got := set.Rows[len(set.Rows)-1][0].Text(); got != "eve" {
		t.Fatalf("last = %s, want eve (NULLS LAST)", got)
	}
}

func TestPositionalAndNamedParams(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `SELECT name FROM emp WHERE dept = ? AND salary >= ?`,
		&Params{Positional: []Value{NewInt(1), NewFloat(90)}})
	if len(set.Rows) != 1 || set.Rows[0][0].Text() != "ada" {
		t.Fatalf("rows = %v", set.Rows)
	}
	set = mustQuery(t, db, `SELECT name FROM emp WHERE dept = $d ORDER BY name`,
		&Params{Named: map[string]Value{"d": NewInt(2)}})
	if len(set.Rows) != 2 {
		t.Fatalf("rows = %v", set.Rows)
	}
	if _, err := db.Exec(`SELECT name FROM emp WHERE dept = $missing`, &Params{Named: map[string]Value{}}); err == nil {
		t.Fatal("missing named param: expected error")
	}
}

func TestScalarSubquery(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `
		SELECT name FROM emp
		WHERE salary = (SELECT MAX(salary) FROM emp)`, nil)
	if len(set.Rows) != 1 || set.Rows[0][0].Text() != "ada" {
		t.Fatalf("rows = %v", set.Rows)
	}
}

func TestCorrelatedSubquery(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `
		SELECT d.name, (SELECT COUNT(*) FROM emp e WHERE e.dept = d.id) AS n
		FROM dept d ORDER BY d.name`, nil)
	want := map[string]int64{"empty": 0, "eng": 2, "ops": 2}
	for _, r := range set.Rows {
		if r[1].Int() != want[r[0].Text()] {
			t.Fatalf("%s -> %v, want %d", r[0].Text(), r[1], want[r[0].Text()])
		}
	}
}

func TestScalarSubqueryCardinality(t *testing.T) {
	db := testDB(t)
	// Zero rows -> NULL.
	set := mustQuery(t, db, `SELECT (SELECT salary FROM emp WHERE id = 999)`, nil)
	if !set.Rows[0][0].IsNull() {
		t.Fatalf("empty scalar subquery = %v, want NULL", set.Rows[0][0])
	}
	// More than one row -> error.
	if _, err := db.Exec(`SELECT (SELECT salary FROM emp WHERE dept = 1)`, nil); err == nil {
		t.Fatal("multi-row scalar subquery: expected error")
	}
}

func TestInListAndSubquery(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE dept IN (1, 2)`, nil)
	if set.Rows[0][0].Int() != 4 {
		t.Fatalf("IN list = %v", set.Rows[0][0])
	}
	set = mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE dept IN (SELECT id FROM dept WHERE name = 'eng')`, nil)
	if set.Rows[0][0].Int() != 2 {
		t.Fatalf("IN subquery = %v", set.Rows[0][0])
	}
	set = mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE dept NOT IN (1)`, nil)
	if set.Rows[0][0].Int() != 2 { // eve's NULL dept is neither in nor not-in
		t.Fatalf("NOT IN = %v", set.Rows[0][0])
	}
}

func TestExists(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `
		SELECT d.name FROM dept d
		WHERE EXISTS (SELECT 1 FROM emp e WHERE e.dept = d.id)
		ORDER BY d.name`, nil)
	if len(set.Rows) != 2 {
		t.Fatalf("rows = %v", set.Rows)
	}
}

func TestUpdate(t *testing.T) {
	db := testDB(t)
	res, err := db.Exec(`UPDATE emp SET salary = salary + 10 WHERE dept = 1`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	set := mustQuery(t, db, `SELECT SUM(salary) FROM emp WHERE dept = 1`, nil)
	if set.Rows[0][0].Float() != 200 {
		t.Fatalf("sum = %v, want 200", set.Rows[0][0])
	}
}

func TestDelete(t *testing.T) {
	db := testDB(t)
	res, err := db.Exec(`DELETE FROM emp WHERE dept = 2`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	set := mustQuery(t, db, `SELECT COUNT(*) FROM emp`, nil)
	if set.Rows[0][0].Int() != 3 {
		t.Fatalf("count = %v, want 3", set.Rows[0][0])
	}
	// The primary-key index must be consistent after the rebuild.
	set = mustQuery(t, db, `SELECT name FROM emp WHERE id = 5`, nil)
	if len(set.Rows) != 1 || set.Rows[0][0].Text() != "eve" {
		t.Fatalf("index lookup after delete = %v", set.Rows)
	}
}

func TestIndexLookupMatchesScan(t *testing.T) {
	db := testDB(t)
	db.MustExec(`CREATE INDEX idx_dept ON emp (dept)`, nil)
	a := mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE dept = 1`, nil)
	if a.Rows[0][0].Int() != 2 {
		t.Fatalf("indexed count = %v", a.Rows[0][0])
	}
}

func TestScalarFunctions(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		q    string
		want string
	}{
		{`SELECT ABS(-3)`, "3"},
		{`SELECT ABS(-3.5)`, "3.5"},
		{`SELECT SQRT(9.0)`, "3"},
		{`SELECT COALESCE(NULL, NULL, 7)`, "7"},
		{`SELECT NULLIF(3, 3)`, "NULL"},
		{`SELECT NULLIF(3, 4)`, "3"},
		{`SELECT LENGTH('abc')`, "3"},
		{`SELECT UPPER('abc')`, "'ABC'"},
		{`SELECT LOWER('ABC')`, "'abc'"},
		{`SELECT 'a' || 'b'`, "'ab'"},
		{`SELECT 7 % 3`, "1"},
		{`SELECT 1 + 2 * 3`, "7"},
		{`SELECT (1 + 2) * 3`, "9"},
		{`SELECT 10 / 4`, "2.5"},
		{`SELECT -(-5)`, "5"},
		{`SELECT NOT TRUE`, "FALSE"},
		{`SELECT TRUE AND NULL IS NULL`, "TRUE"},
	}
	for _, c := range cases {
		set := mustQuery(t, db, c.q, nil)
		if got := set.Rows[0][0].String(); got != c.want {
			t.Errorf("%s = %s, want %s", c.q, got, c.want)
		}
	}
}

func TestDivisionByZero(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`SELECT 1 / 0`, nil); err == nil {
		t.Fatal("division by zero: expected error")
	}
	if _, err := db.Exec(`SELECT 1 % 0`, nil); err == nil {
		t.Fatal("modulo by zero: expected error")
	}
}

// TestDivisionOverflow: a quotient too large for a REAL is an arithmetic
// overflow, as a product is, on both engines; it never reaches a result as
// an infinity.
func TestDivisionOverflow(t *testing.T) {
	db := testDB(t)
	db.SetResultCacheSize(0)
	for _, engine := range []string{EngineVector, EngineRow} {
		if err := db.SetEngine(engine); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			`SELECT 1e300 / 1e-300`,
			`SELECT -1e300 / 1e-300`,
			`SELECT salary / 1e-307 FROM emp WHERE id = 1`,
			`SELECT id FROM emp WHERE salary / 1e-307 > 0`,
		} {
			_, err := db.Exec(q, nil)
			if err == nil || !strings.Contains(err.Error(), "arithmetic overflow") {
				t.Errorf("%s: %s: err = %v, want arithmetic overflow", engine, q, err)
			}
		}
		if got := mustQuery(t, db, `SELECT salary / 0.0625 FROM emp WHERE id = 1`, nil).Rows[0][0].String(); got != "1600" {
			t.Errorf("%s: 100.0 / 0.0625 = %s, want 1600", engine, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	db := testDB(t)
	cases := []string{
		`SELEC 1`,
		`SELECT FROM emp`,
		`SELECT * FROM`,
		`SELECT * FROM emp WHERE`,
		`INSERT INTO emp VALUES`,
		`CREATE TABLE t (x NOPETYPE)`,
		`SELECT 'unterminated`,
		`SELECT $`,
		`SELECT * FROM emp GROUP`,
		`UPDATE emp SET`,
	}
	for _, q := range cases {
		if _, err := db.Exec(q, nil); err == nil {
			t.Errorf("%q: expected parse error", q)
		}
	}
}

func TestUnknownColumnAndAmbiguity(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`SELECT bogus FROM emp`, nil); err == nil {
		t.Fatal("unknown column: expected error")
	}
	if _, err := db.Exec(`SELECT id FROM emp e JOIN dept d ON e.dept = d.id`, nil); err == nil {
		t.Fatal("ambiguous column: expected error")
	}
}

func TestTableLessSelect(t *testing.T) {
	db := NewDB()
	set := mustQuery(t, db, `SELECT 2 + 3 AS five`, nil)
	if set.Columns[0] != "five" || set.Rows[0][0].Int() != 5 {
		t.Fatalf("got %v %v", set.Columns, set.Rows)
	}
}

func TestStarExpansion(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db, `SELECT * FROM dept ORDER BY id`, nil)
	if len(set.Columns) != 2 || len(set.Rows) != 3 {
		t.Fatalf("star: %v %d rows", set.Columns, len(set.Rows))
	}
}

func TestDropTable(t *testing.T) {
	db := testDB(t)
	if _, err := db.Exec(`DROP TABLE dept`, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`SELECT * FROM dept`, nil); err == nil {
		t.Fatal("select from dropped table: expected error")
	}
	if _, err := db.Exec(`DROP TABLE dept`, nil); err == nil {
		t.Fatal("double drop: expected error")
	}
}

func TestGroupByExpressionKeyUnifiesIntAndFloat(t *testing.T) {
	db := NewDB()
	db.MustExec(`CREATE TABLE t (x REAL)`, nil)
	db.MustExec(`INSERT INTO t (x) VALUES (1.0), (1.0), (2.0)`, nil)
	set := mustQuery(t, db, `SELECT x, COUNT(*) FROM t GROUP BY x ORDER BY x`, nil)
	if len(set.Rows) != 2 || set.Rows[0][1].Int() != 2 {
		t.Fatalf("rows = %v", set.Rows)
	}
}

// TestQuickSumMatchesManual is a property test: for random datasets, SQL SUM
// and a manual Go summation agree, and indexed equality lookups agree with
// full scans.
func TestQuickSumMatchesManual(t *testing.T) {
	f := func(vals []int16, filter uint8) bool {
		db := NewDB()
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, k INTEGER)`, nil)
		var want int64
		k := int64(filter % 4)
		for i, v := range vals {
			key := int64(i % 4)
			db.MustExec(`INSERT INTO t (id, v, k) VALUES (?, ?, ?)`,
				&Params{Positional: []Value{NewInt(int64(i)), NewInt(int64(v)), NewInt(key)}})
			if key == k {
				want += int64(v)
			}
		}
		res, err := db.Exec(`SELECT COALESCE(SUM(v), 0) FROM t WHERE k = ?`, &Params{Positional: []Value{NewInt(k)}})
		if err != nil {
			t.Log(err)
			return false
		}
		if res.Set.Rows[0][0].Int() != want {
			return false
		}
		// Same with an index on the filter column.
		db.MustExec(`CREATE INDEX idx ON t (k)`, nil)
		res2, err := db.Exec(`SELECT COALESCE(SUM(v), 0) FROM t WHERE k = ?`, &Params{Positional: []Value{NewInt(k)}})
		if err != nil {
			return false
		}
		return res2.Set.Rows[0][0].Int() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOrderBySorted checks that ORDER BY output is sorted for random
// inputs.
func TestQuickOrderBySorted(t *testing.T) {
	f := func(vals []int8) bool {
		db := NewDB()
		db.MustExec(`CREATE TABLE t (v INTEGER)`, nil)
		for _, v := range vals {
			db.MustExec(`INSERT INTO t (v) VALUES (?)`, &Params{Positional: []Value{NewInt(int64(v))}})
		}
		res, err := db.Exec(`SELECT v FROM t ORDER BY v`, nil)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Set.Rows); i++ {
			if res.Set.Rows[i-1][0].Int() > res.Set.Rows[i][0].Int() {
				return false
			}
		}
		return len(res.Set.Rows) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestValueKeyIntFloatUnification(t *testing.T) {
	if NewInt(3).Key() != NewFloat(3.0).Key() {
		t.Fatal("3 and 3.0 must share a grouping key")
	}
	if NewFloat(3.5).Key() == NewInt(3).Key() {
		t.Fatal("3.5 must not collide with 3")
	}
}

func TestCompareErrors(t *testing.T) {
	if _, err := Compare(NewInt(1), NewText("a")); err == nil {
		t.Fatal("comparing int and text must fail")
	}
	if _, err := Compare(NewBool(true), NewBool(false)); err != nil {
		t.Fatal("bool comparison should work")
	}
}

func ExampleDB_Exec() {
	db := NewDB()
	db.MustExec(`CREATE TABLE runs (id INTEGER PRIMARY KEY, nope INTEGER)`, nil)
	db.MustExec(`INSERT INTO runs (id, nope) VALUES (1, 2), (2, 16)`, nil)
	res, _ := db.Exec(`SELECT MIN(nope) FROM runs`, nil)
	fmt.Println(res.Set.Rows[0][0])
	// Output: 2
}
