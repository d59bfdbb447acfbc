package build

import (
	"strings"
	"testing"

	"repro/internal/sqldb"
)

func col(qual, name string) *sqldb.EColumn { return &sqldb.EColumn{Qual: qual, Name: name} }

func param(name string) *sqldb.EParam { return &sqldb.EParam{Ordinal: -1, Name: name} }

func lit(v sqldb.Value) *sqldb.ELit { return &sqldb.ELit{Value: v} }

func one() *sqldb.ELit { return lit(sqldb.NewInt(1)) }

// propertyShapedSelect builds a tree shaped like a compiled ASL property:
// a scalar aggregate subquery over a junction join, with named parameters.
func propertyShapedSelect() *sqldb.SelectStmt {
	inner := &sqldb.SelectStmt{
		Items: []sqldb.SelectItem{{Expr: &sqldb.ECall{Name: "SUM", Args: []sqldb.Expr{col("a1", "Time")}}}},
		From:  &sqldb.TableRef{Table: "Region_TypTimes", Alias: "j2"},
		Joins: []sqldb.Join{{
			Table: sqldb.TableRef{Table: "TypedTiming", Alias: "a1"},
			On:    &sqldb.EBinary{Op: sqldb.OpEq, L: col("a1", "id"), R: col("j2", "elem_id")},
		}},
		Where: &sqldb.EBinary{Op: sqldb.OpAnd,
			L: &sqldb.EBinary{Op: sqldb.OpEq, L: col("j2", "owner_id"), R: param("r")},
			R: &sqldb.EBinary{Op: sqldb.OpEq, L: col("a1", "Run_id"), R: param("t"), Paren: true},
		},
	}
	return &sqldb.SelectStmt{Items: []sqldb.SelectItem{
		{Expr: &sqldb.EBinary{Op: sqldb.OpGt,
			L:     &sqldb.ECall{Name: "COALESCE", Args: []sqldb.Expr{&sqldb.ESubquery{Select: inner}, lit(sqldb.NewInt(0))}},
			R:     lit(sqldb.NewInt(0)),
			Paren: true}, Alias: "c0"},
		{Expr: one(), Alias: "f0"},
	}}
}

func TestKojakdbCanonicalSpelling(t *testing.T) {
	r, err := Kojakdb.Render(propertyShapedSelect())
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT (COALESCE((SELECT SUM(a1.Time) FROM Region_TypTimes j2 JOIN TypedTiming a1 " +
		"ON a1.id = j2.elem_id WHERE j2.owner_id = $r AND (a1.Run_id = $t)), 0) > 0) AS c0, 1 AS f0"
	if r.SQL != want {
		t.Errorf("kojakdb spelling:\n got: %s\nwant: %s", r.SQL, want)
	}
	if r.ParamOrder != nil {
		t.Errorf("named-marker dialect returned ParamOrder %v", r.ParamOrder)
	}
}

func TestANSISpelling(t *testing.T) {
	r, err := ANSI.Render(propertyShapedSelect())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Region_TypTimes" "j2"`, `"a1"."Run_id"`, `owner_id" = ?`} {
		if !strings.Contains(r.SQL, want) {
			t.Errorf("ansi spelling lacks %q:\n%s", want, r.SQL)
		}
	}
	if strings.Contains(r.SQL, "$") {
		t.Errorf("ansi spelling leaked a $ marker:\n%s", r.SQL)
	}
	if len(r.ParamOrder) != 2 || r.ParamOrder[0] != "r" || r.ParamOrder[1] != "t" {
		t.Errorf("ParamOrder = %v, want [r t]", r.ParamOrder)
	}
}

func TestOracle7Spelling(t *testing.T) {
	r, err := Oracle7.Render(propertyShapedSelect())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"REGION_TYPTIMES J2", "A1.RUN_ID = :t", "J2.OWNER_ID = :r"} {
		if !strings.Contains(r.SQL, want) {
			t.Errorf("oracle7 spelling lacks %q:\n%s", want, r.SQL)
		}
	}
	// Function names are builtins, not schema objects: never case-folded.
	if !strings.Contains(r.SQL, "SUM(") || !strings.Contains(r.SQL, "COALESCE(") {
		t.Errorf("oracle7 spelling mangled function names:\n%s", r.SQL)
	}
	if r.ParamOrder != nil {
		t.Errorf("named-marker dialect returned ParamOrder %v", r.ParamOrder)
	}
}

func TestDialectDivergenceMatrix(t *testing.T) {
	sel := &sqldb.SelectStmt{
		Items:   []sqldb.SelectItem{{Expr: col("", "x")}, {Expr: lit(sqldb.NewBool(true)), Alias: "b"}},
		From:    &sqldb.TableRef{Table: "T"},
		OrderBy: []sqldb.OrderItem{{Expr: col("", "x"), Desc: true}},
		Limit:   lit(sqldb.NewInt(5)),
	}
	kj, err := Kojakdb.Render(sel)
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT x, TRUE AS b FROM T ORDER BY x DESC LIMIT 5"; kj.SQL != want {
		t.Errorf("kojakdb:\n got: %s\nwant: %s", kj.SQL, want)
	}
	an, err := ANSI.Render(sel)
	if err != nil {
		t.Fatal(err)
	}
	if want := `SELECT "x", TRUE AS "b" FROM "T" ORDER BY "x" DESC NULLS LAST FETCH FIRST 5 ROWS ONLY`; an.SQL != want {
		t.Errorf("ansi:\n got: %s\nwant: %s", an.SQL, want)
	}
	// Oracle 7 has no LIMIT spelling at all.
	if _, err := Oracle7.Render(sel); err == nil {
		t.Error("oracle7 rendered a LIMIT without error")
	}
	sel.Limit = nil
	or, err := Oracle7.Render(sel)
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT X, 1 AS B FROM T ORDER BY X DESC NULLS LAST"; or.SQL != want {
		t.Errorf("oracle7:\n got: %s\nwant: %s", or.SQL, want)
	}
	// NULLS FIRST spells out in every dialect (the engine default is last).
	sel.OrderBy[0].NullsFirst = true
	kj2, err := Kojakdb.Render(sel)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(kj2.SQL, "ORDER BY x DESC NULLS FIRST") {
		t.Errorf("kojakdb NULLS FIRST missing: %s", kj2.SQL)
	}
}

// TestInjectionRejected is the astql-style suite: hostile identifiers and
// parameter names must fail the render, in every dialect — quoting is not an
// escape hatch.
func TestInjectionRejected(t *testing.T) {
	hostile := []string{
		"", "1abc", "a b", "a;DROP TABLE T", `a"b`, "a'b", "a--", "a.b", "Schüler", "a\x00b",
	}
	for _, name := range Names() {
		d, _ := Lookup(name)
		for _, h := range hostile {
			cases := []sqldb.Stmt{
				&sqldb.SelectStmt{Items: []sqldb.SelectItem{{Expr: col("", h)}}},
				&sqldb.SelectStmt{Items: []sqldb.SelectItem{{Star: true}}, From: &sqldb.TableRef{Table: h}},
				&sqldb.SelectStmt{Items: []sqldb.SelectItem{{Expr: &sqldb.ECall{Name: h, Star: true}}}},
				&sqldb.InsertStmt{Table: h, Cols: []string{"c"}, Rows: [][]sqldb.Expr{{one()}}},
				&sqldb.InsertStmt{Table: "T", Cols: []string{h}, Rows: [][]sqldb.Expr{{one()}}},
				&sqldb.CreateTableStmt{Name: h, Cols: []sqldb.Column{{Name: "id", Type: sqldb.TInt}}},
				&sqldb.CreateTableStmt{Name: "T", Cols: []sqldb.Column{{Name: h, Type: sqldb.TInt}}},
				&sqldb.CreateIndexStmt{Name: h, Table: "T", Column: "c"},
				&sqldb.CreateIndexStmt{Name: "i", Table: h, Column: "c"},
				&sqldb.CreateIndexStmt{Name: "i", Table: "T", Column: h},
			}
			// Parameter name, table qualifier, item alias, and table alias
			// are optional: empty means absent there (an empty parameter
			// name is a positional marker), so only non-empty hostiles
			// apply.
			if h != "" {
				cases = append(cases,
					&sqldb.SelectStmt{Items: []sqldb.SelectItem{{Expr: param(h)}}},
					&sqldb.SelectStmt{Items: []sqldb.SelectItem{{Expr: col(h, "ok")}}},
					&sqldb.SelectStmt{Items: []sqldb.SelectItem{{Expr: one(), Alias: h}}},
					&sqldb.SelectStmt{Items: []sqldb.SelectItem{{Star: true}}, From: &sqldb.TableRef{Table: "T", Alias: h}})
			}
			for i, s := range cases {
				if _, err := d.Render(s); err == nil {
					t.Errorf("dialect %s case %d: hostile identifier %q rendered without error", name, i, h)
				}
			}
		}
	}
	// Hostile string *values* are fine — they are escaped, not rejected.
	r, err := Kojakdb.Render(&sqldb.SelectStmt{Items: []sqldb.SelectItem{{Expr: lit(sqldb.NewText("'; DROP TABLE T; --"))}}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT '''; DROP TABLE T; --'"; r.SQL != want {
		t.Errorf("string escaping:\n got: %s\nwant: %s", r.SQL, want)
	}
}

func TestMixedMarkersRejectedWhenPositional(t *testing.T) {
	sel := &sqldb.SelectStmt{Items: []sqldb.SelectItem{
		{Expr: param("p")},
		{Expr: &sqldb.EParam{Ordinal: 0}},
	}}
	if _, err := ANSI.Render(sel); err == nil {
		t.Error("ansi rendered mixed named+ordinal markers without error")
	}
	if _, err := Kojakdb.Render(sel); err != nil {
		t.Errorf("kojakdb rejects mixed markers: %v", err)
	}
}

func TestFloatAndStringLiterals(t *testing.T) {
	r, err := Kojakdb.Render(&sqldb.SelectStmt{Items: []sqldb.SelectItem{
		{Expr: lit(sqldb.NewFloat(0.25))},
		{Expr: lit(sqldb.NewFloat(1e21))},
		{Expr: lit(sqldb.NewFloat(1000))},
		{Expr: lit(sqldb.NewInt(1000))},
		{Expr: lit(sqldb.NewText("it's"))},
		{Expr: lit(sqldb.Null)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if want := "SELECT 0.25, 1e+21, 1000.0, 1000, 'it''s', NULL"; r.SQL != want {
		t.Errorf("literals:\n got: %s\nwant: %s", r.SQL, want)
	}
}

// TestUnaryMinusNeverOpensComment: a unary minus before an operand that
// itself starts with '-' is spaced, or the two would lex as a "--" comment.
func TestUnaryMinusNeverOpensComment(t *testing.T) {
	neg := func(x sqldb.Expr) sqldb.Expr { return &sqldb.EUnary{Neg: true, X: x} }
	for _, tc := range []struct {
		x    sqldb.Expr
		want string
	}{
		{neg(neg(one())), "SELECT - -1"},
		{neg(lit(sqldb.NewInt(-1))), "SELECT - -1"},
		{neg(&sqldb.EUnary{Neg: true, X: one(), Paren: true}), "SELECT -(-1)"},
		{neg(one()), "SELECT -1"},
	} {
		r, err := Kojakdb.Render(&sqldb.SelectStmt{Items: []sqldb.SelectItem{{Expr: tc.x}}})
		if err != nil {
			t.Fatal(err)
		}
		if r.SQL != tc.want {
			t.Errorf("got %s, want %s", r.SQL, tc.want)
		}
	}
}
