package sqlgen

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// TestCanonicalSpecFullyTranslates pins the paper's future-work claim: every
// property of the canonical COSY specification compiles to SQL, and the
// generated schema covers every class.
func TestCanonicalSpecFullyTranslates(t *testing.T) {
	w := model.MustCompileSpec()
	compiled, errs := CompileAll(w)
	for name, err := range errs {
		t.Errorf("property %s not translatable: %v", name, err)
	}
	if len(compiled) != len(model.AllProperties) {
		t.Fatalf("compiled %d of %d properties", len(compiled), len(model.AllProperties))
	}
	for _, name := range model.AllProperties {
		cp, ok := compiled[name]
		if !ok {
			t.Errorf("property %s missing", name)
			continue
		}
		if _, err := sqldb.ParseSQL(cp.SQL); err != nil {
			t.Errorf("property %s: generated SQL does not parse: %v", name, err)
		}
		if len(cp.Params) != 3 {
			t.Errorf("property %s: %d params", name, len(cp.Params))
		}
	}

	ddl, err := Schema(w)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(ddl, ";")
	for cls := range w.Classes {
		if !strings.Contains(joined, "CREATE TABLE "+cls+" ") {
			t.Errorf("schema lacks table for class %s", cls)
		}
	}
	// Junction tables for every setof attribute of the COSY model.
	for _, j := range []string{"Program_Versions", "ProgVersion_Functions", "ProgVersion_Runs", "Function_Calls", "Function_Regions", "Region_TotTimes", "Region_TypTimes", "FunctionCall_Sums"} {
		if !strings.Contains(joined, "CREATE TABLE "+j+" ") {
			t.Errorf("schema lacks junction table %s", j)
		}
	}
	// The whole DDL executes on a fresh engine.
	db := sqldb.NewDB()
	for _, stmt := range ddl {
		if _, err := db.Exec(stmt, nil); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
}

// TestGeneratedSQLShapes pins characteristic fragments of the translation
// so regressions in the compiler are visible in review.
func TestGeneratedSQLShapes(t *testing.T) {
	w := model.MustCompileSpec()
	syncCost, err := CompileProperty(w, "SyncCost")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"COALESCE(",          // ASL SUM over empty selection is 0
		"Region_TypTimes",    // junction traversal
		"= 'Barrier'",        // enum member as text literal
		"$r", "$t", "$Basis", // the property parameters
		"AS c0", "AS f0", "AS s0",
	} {
		if !strings.Contains(syncCost.SQL, want) {
			t.Errorf("SyncCost SQL lacks %q:\n%s", want, syncCost.SQL)
		}
	}
	sub, err := CompileProperty(w, "SublinearSpeedup")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sub.SQL, "MIN(") {
		t.Errorf("SublinearSpeedup SQL lacks the MIN aggregate:\n%s", sub.SQL)
	}
	imb, err := CompileProperty(w, "LoadImbalance")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(imb.SQL, "0.25") {
		t.Errorf("LoadImbalance SQL does not inline ImbalanceThreshold:\n%s", imb.SQL)
	}
}

// subqueriesProjecting returns the text of every parenthesized subquery of
// sql, nested ones included, whose one select item is the named column of
// some alias — "(SELECT a1.MeanTime FROM ...)" for col "MeanTime" — in any
// dialect's spelling.
func subqueriesProjecting(sql, col string) []string {
	var out []string
	const open = "(SELECT "
	for i := 0; i+len(open) <= len(sql); i++ {
		if sql[i:i+len(open)] != open {
			continue
		}
		depth, end := 0, -1
		for j := i; j < len(sql) && end < 0; j++ {
			switch sql[j] {
			case '(':
				depth++
			case ')':
				if depth--; depth == 0 {
					end = j + 1
				}
			}
		}
		if end < 0 {
			continue
		}
		item, _, _ := strings.Cut(sql[i+len(open):end], " FROM ")
		if _, name, ok := strings.Cut(strings.ReplaceAll(item, `"`, ""), "."); ok && strings.EqualFold(name, col) {
			out = append(out, sql[i:end])
		}
	}
	return out
}

// TestUniqueAttributeFusion pins how an attribute of a UNIQUE value is read:
// by the set query itself, which projects the column, and never by a
// "FROM <Class> dN WHERE dN.id = (SELECT ...)" dereference around the set
// query — that shape executes two SELECTs to read one cell of a row the inner
// one already holds. Every use of one LET-bound value must render the same
// bytes, in every dialect, because the engine's subquery caches are keyed by
// text. The alias dereference (an attribute of a class-typed column of a
// bound row) keeps the dN shape; the engine serves it with an index probe.
func TestUniqueAttributeFusion(t *testing.T) {
	w := model.MustCompileSpec()
	wrapper := regexp.MustCompile(`(?i)FROM "?\w+"? "?d\d+"? WHERE "?d\d+"?\."?id"? = \(SELECT`)
	for _, name := range model.AllProperties {
		cp, err := CompileProperty(w, name)
		if err != nil {
			t.Fatal(err)
		}
		for _, dialect := range build.Names() {
			r, err := cp.Render(dialect)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, dialect, err)
			}
			if m := wrapper.FindString(r.SQL); m != "" {
				t.Errorf("%s/%s: dereference wrapper %q around a set query:\n%s", name, dialect, m, r.SQL)
			}
		}
	}

	// FrequentFineGrainedCalls reads two attributes of one LET-bound UNIQUE
	// value twice each.
	cp, err := CompileProperty(w, "FrequentFineGrainedCalls")
	if err != nil {
		t.Fatal(err)
	}
	for _, dialect := range build.Names() {
		r, err := cp.Render(dialect)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range []string{"MeanCalls", "MeanTime"} {
			uses := subqueriesProjecting(r.SQL, col)
			if len(uses) != 2 || uses[0] != uses[1] {
				t.Errorf("%s: want two byte-identical reads of %s, got %q", dialect, col, uses)
			}
		}
	}

	sub, err := CompileProperty(w, "SublinearSpeedup")
	if err != nil {
		t.Fatal(err)
	}
	if want := "(SELECT d2.NoPe FROM TestRun d2 WHERE d2.id = a1.Run_id)"; !strings.Contains(sub.SQL, want) {
		t.Errorf("alias dereference changed shape; want %s in:\n%s", want, sub.SQL)
	}
}
