package sqldb

import (
	"reflect"
	"strings"
	"testing"
)

// These tests cover the syntax extensions that make the ansi and oracle7
// renderings of internal/sqlast/build executable on the embedded engine:
// double-quoted identifiers, :name parameter markers, explicit NULLS
// FIRST/LAST ordering, and FETCH FIRST n ROWS ONLY.

func TestQuotedIdentifiers(t *testing.T) {
	db := testDB(t)
	set := mustQuery(t, db,
		`SELECT "e"."name" AS "who" FROM "emp" "e" WHERE "e"."id" = 1`, nil)
	if len(set.Rows) != 1 || set.Rows[0][0].Text() != "ada" {
		t.Fatalf("quoted-identifier query returned %v", set.Rows)
	}
	if set.Columns[0] != "who" {
		t.Fatalf("quoted alias = %q, want who", set.Columns[0])
	}
	// A quoted identifier is never a keyword or literal.
	if _, err := db.Exec(`SELECT "SELECT" FROM emp`, nil); err == nil ||
		!strings.Contains(err.Error(), "SELECT") {
		t.Fatalf(`"SELECT" should resolve (and fail) as a column name, got %v`, err)
	}
	for _, bad := range []string{`SELECT "unterminated FROM emp`, `SELECT "" FROM emp`} {
		if _, err := ParseSQL(bad); err == nil {
			t.Errorf("parse accepted %q", bad)
		}
	}
}

func TestColonParamMarkers(t *testing.T) {
	db := testDB(t)
	p := &Params{Named: map[string]Value{"d": NewInt(1)}}
	set := mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE dept = :d`, p)
	if set.Rows[0][0].Int() != 2 {
		t.Fatalf("colon-marker count = %v, want 2", set.Rows[0][0])
	}
	// $d and :d address the same binding.
	set2 := mustQuery(t, db, `SELECT COUNT(*) FROM emp WHERE dept = $d`, p)
	if set2.Rows[0][0].Int() != set.Rows[0][0].Int() {
		t.Fatal("$name and :name resolved differently")
	}
	if _, err := ParseSQL(`SELECT : FROM emp`); err == nil {
		t.Error("bare : accepted")
	}
}

func TestOrderByNullsFirst(t *testing.T) {
	db := testDB(t)
	first := mustQuery(t, db, `SELECT id FROM emp ORDER BY salary NULLS FIRST, id`, nil)
	if first.Rows[0][0].Int() != 5 {
		t.Fatalf("NULLS FIRST put id %v first, want 5 (the NULL salary)", first.Rows[0][0])
	}
	// NULLS LAST spells out the engine default: same rows, same order.
	last := mustQuery(t, db, `SELECT id FROM emp ORDER BY salary NULLS LAST, id`, nil)
	plain := mustQuery(t, db, `SELECT id FROM emp ORDER BY salary, id`, nil)
	for i := range plain.Rows {
		if last.Rows[i][0].Int() != plain.Rows[i][0].Int() {
			t.Fatalf("NULLS LAST diverged from default at row %d", i)
		}
	}
	// DESC still keeps NULLs where the modifier says, not where DESC would.
	descFirst := mustQuery(t, db, `SELECT id FROM emp ORDER BY salary DESC NULLS FIRST, id`, nil)
	if descFirst.Rows[0][0].Int() != 5 {
		t.Fatalf("DESC NULLS FIRST put id %v first, want 5", descFirst.Rows[0][0])
	}
	if _, err := ParseSQL(`SELECT id FROM emp ORDER BY salary NULLS SOMETIMES`); err == nil {
		t.Error("NULLS SOMETIMES accepted")
	}
}

func TestFetchFirstEquivalentToLimit(t *testing.T) {
	db := testDB(t)
	fetch := mustQuery(t, db, `SELECT id FROM emp ORDER BY id FETCH FIRST 2 ROWS ONLY`, nil)
	limit := mustQuery(t, db, `SELECT id FROM emp ORDER BY id LIMIT 2`, nil)
	if len(fetch.Rows) != 2 || len(limit.Rows) != 2 {
		t.Fatalf("row counts: fetch=%d limit=%d, want 2", len(fetch.Rows), len(limit.Rows))
	}
	for i := range fetch.Rows {
		if fetch.Rows[i][0].Int() != limit.Rows[i][0].Int() {
			t.Fatalf("FETCH FIRST diverged from LIMIT at row %d", i)
		}
	}
	one := mustQuery(t, db, `SELECT id FROM emp ORDER BY id FETCH FIRST 1 ROW ONLY`, nil)
	if len(one.Rows) != 1 {
		t.Fatalf("FETCH FIRST 1 ROW ONLY returned %d rows", len(one.Rows))
	}
	for _, bad := range []string{
		`SELECT id FROM emp FETCH 2 ROWS ONLY`,
		`SELECT id FROM emp FETCH FIRST 2 ROWS`,
		`SELECT id FROM emp FETCH FIRST 2 COLUMNS ONLY`,
	} {
		if _, err := ParseSQL(bad); err == nil {
			t.Errorf("parse accepted %q", bad)
		}
	}
}

// TestNullsFirstCanonicalization pins the parse: NULLS LAST spells out the
// default and parses to the bare key, FETCH FIRST n ROWS ONLY to LIMIT n,
// and NULLS FIRST survives.
func TestNullsFirstCanonicalization(t *testing.T) {
	cases := []struct{ in, same string }{
		{`SELECT id FROM emp ORDER BY salary NULLS LAST`, `SELECT id FROM emp ORDER BY salary`},
		{`SELECT id FROM emp ORDER BY salary DESC NULLS LAST`, `SELECT id FROM emp ORDER BY salary DESC`},
		{`SELECT id FROM emp FETCH FIRST 2 ROWS ONLY`, `SELECT id FROM emp LIMIT 2`},
		{`SELECT id FROM emp FETCH FIRST 1 ROW ONLY`, `SELECT id FROM emp LIMIT 1`},
	}
	parse := func(sql string) *SelectStmt {
		t.Helper()
		stmt, err := ParseSQL(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		return stmt.(*SelectStmt)
	}
	for _, c := range cases {
		got, want := parse(c.in), parse(c.same)
		if !reflect.DeepEqual(got.OrderBy, want.OrderBy) || !reflect.DeepEqual(got.Limit, want.Limit) {
			t.Errorf("%q parses to ORDER BY %+v LIMIT %+v, want those of %q: %+v %+v",
				c.in, got.OrderBy, got.Limit, c.same, want.OrderBy, want.Limit)
		}
	}
	for _, sql := range []string{
		`SELECT id FROM emp ORDER BY salary NULLS FIRST`,
		`SELECT id FROM emp ORDER BY salary DESC NULLS FIRST`,
	} {
		if o := parse(sql).OrderBy[0]; !o.NullsFirst {
			t.Errorf("%q lost NULLS FIRST: %+v", sql, o)
		}
	}
}
