package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/asl/ast"
	"repro/internal/asl/object"
	"repro/internal/asl/parser"
	"repro/internal/asl/sem"
)

const testSpec = `
class Run { int NoPe; }
class Timing { Run R; float T; TType Kind; }
class Region { String Name; setof Timing Ts; }
enum TType { Alpha, Beta }

float Threshold = 0.5;

float Total(Region r, Run t) = SUM(x.T WHERE x IN r.Ts AND x.R == t);
Timing Pick(Region r, Run t) = UNIQUE({x IN r.Ts WITH x.R == t});

property Hot(Region r, Run t) {
  LET float Tot = Total(r, t);
  IN
  CONDITION: (big) Tot > Threshold OR (huge) Tot > 10.0;
  CONFIDENCE: MAX((big) -> 0.5, (huge) -> 0.9);
  SEVERITY: MAX((big) -> Tot, (huge) -> Tot * 2.0);
}

property Never(Region r, Run t) {
  CONDITION: Total(r, t) < 0.0;
  CONFIDENCE: 1;
  SEVERITY: 99.0;
}
`

// world builds the test world plus a tiny object graph:
// region with timings 1.0 and 2.0 on run A (NoPe 2), 0.25 on run B (NoPe 4).
func world(t *testing.T) (*sem.World, *Evaluator, map[string]object.Value) {
	t.Helper()
	spec, err := parser.Parse(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sem.Check(spec)
	if err != nil {
		t.Fatal(err)
	}
	store := object.NewStore()
	runA := store.New(w.Classes["Run"])
	runA.Set("NoPe", object.Int(2))
	runB := store.New(w.Classes["Run"])
	runB.Set("NoPe", object.Int(4))
	region := store.New(w.Classes["Region"])
	region.Set("Name", object.Str("main"))
	tt := w.Enums["TType"]
	mk := func(run *object.Object, v float64, kind string) {
		timing := store.New(w.Classes["Timing"])
		timing.Set("R", run)
		timing.Set("T", object.Float(v))
		timing.Set("Kind", object.Enum{Type: tt, Member: kind})
		region.Append("Ts", timing)
	}
	mk(runA, 1.0, "Alpha")
	mk(runA, 2.0, "Beta")
	mk(runB, 0.25, "Alpha")
	ev := New(w)
	return w, ev, map[string]object.Value{"region": region, "runA": runA, "runB": runB}
}

// evalStr evaluates an expression source under the given bindings.
func evalStr(t *testing.T, ev *Evaluator, src string, bind map[string]object.Value) (object.Value, error) {
	t.Helper()
	e, err := parser.ParseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	env := NewEnv(nil)
	for k, v := range bind {
		env.Bind(k, v)
	}
	return ev.Eval(e, env)
}

func mustEval(t *testing.T, ev *Evaluator, src string, bind map[string]object.Value) object.Value {
	t.Helper()
	v, err := evalStr(t, ev, src, bind)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	_, ev, _ := world(t)
	cases := []struct {
		src  string
		want object.Value
	}{
		{"1 + 2 * 3", object.Int(7)},
		{"(1 + 2) * 3", object.Int(9)},
		{"10 / 4", object.Float(2.5)},
		{"7 % 3", object.Int(1)},
		{"1.5 + 1", object.Float(2.5)},
		{"-5 + 2", object.Int(-3)},
		{"2 < 3", object.Bool(true)},
		{"2 >= 3", object.Bool(false)},
		{"1 == 1.0", object.Bool(true)},
		{"true AND false", object.Bool(false)},
		{"true OR false", object.Bool(true)},
		{"NOT true", object.Bool(false)},
		{`"a" + "b"`, object.Str("ab")},
		{`"a" < "b"`, object.Bool(true)},
		{"null == null", object.Bool(true)},
		{"MAX(1, 5, 3)", object.Int(5)},
		{"MIN(2.5, 1.0)", object.Float(1)},
	}
	for _, c := range cases {
		got := mustEval(t, ev, c.src, nil)
		if !object.Equal(got, c.want) {
			t.Errorf("%s = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestShortCircuit(t *testing.T) {
	_, ev, bind := world(t)
	// The right operand would fail (attribute on int); AND must not reach it.
	if v := mustEval(t, ev, "false AND runA.NoPe.Bogus > 0", bind); v != object.Bool(false) {
		t.Fatalf("got %s", v)
	}
	if v := mustEval(t, ev, "true OR runA.NoPe.Bogus > 0", bind); v != object.Bool(true) {
		t.Fatalf("got %s", v)
	}
}

func TestErrors(t *testing.T) {
	_, ev, bind := world(t)
	cases := []struct{ src, frag string }{
		{"1 / 0", "division by zero"},
		{"1 % 0", "modulo by zero"},
		{"1 + true", "operator"},
		{"undefined_name", "undefined identifier"},
		{"runA.Bogus.X", "attribute"},
		{"UNIQUE({x IN region.Ts WITH x.T > 100.0})", "empty set"},
		{"UNIQUE({x IN region.Ts WITH x.T > 0.0})", "3 elements"},
		{"MIN(x.T WHERE x IN region.Ts AND x.T > 100.0)", "empty selection"},
		{"-true", "unary"},
		{"NOT 1", "NOT on"},
		{`"a" < 1`, "operator"},
	}
	for _, c := range cases {
		_, err := evalStr(t, ev, c.src, bind)
		if err == nil {
			t.Errorf("%s: expected error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q lacks %q", c.src, err, c.frag)
		}
	}
}

func TestComprehensionAndAggregates(t *testing.T) {
	_, ev, bind := world(t)
	cases := []struct {
		src  string
		want object.Value
	}{
		{"SUM(x.T WHERE x IN region.Ts AND x.R == runA)", object.Float(3.0)},
		{"SUM(x.T WHERE x IN region.Ts AND x.R == runB)", object.Float(0.25)},
		{"SUM(x.T WHERE x IN region.Ts AND x.R == runA AND x.Kind == Beta)", object.Float(2.0)},
		{"SUM(x.T WHERE x IN region.Ts AND x.T > 100.0)", object.Float(0)}, // empty: zero
		{"COUNT(region.Ts)", object.Int(3)},
		{"COUNT(x.T WHERE x IN region.Ts AND x.R == runA)", object.Int(2)},
		{"MIN(x.T WHERE x IN region.Ts)", object.Float(0.25)},
		{"MAX(x.T WHERE x IN region.Ts)", object.Float(2.0)},
		{"AVG(x.T WHERE x IN region.Ts AND x.R == runA)", object.Float(1.5)},
		{"MIN(x.R.NoPe WHERE x IN region.Ts)", object.Int(2)},
		{"UNIQUE({x IN region.Ts WITH x.R == runB}).T", object.Float(0.25)},
	}
	for _, c := range cases {
		got := mustEval(t, ev, c.src, bind)
		if !object.Equal(got, c.want) {
			t.Errorf("%s = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestFunctions(t *testing.T) {
	_, ev, bind := world(t)
	v, err := ev.CallFunc("Total", bind["region"], bind["runA"])
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(v, object.Float(3.0)) {
		t.Fatalf("Total = %s", v)
	}
	if _, err := ev.CallFunc("Total", bind["region"]); err == nil {
		t.Fatal("arity error expected")
	}
	if _, err := ev.CallFunc("Nope"); err == nil {
		t.Fatal("unknown function expected")
	}
}

func TestPropertySemantics(t *testing.T) {
	_, ev, bind := world(t)
	// Run A: Tot = 3.0 > 0.5 (big) but not > 10 (huge).
	res, err := ev.EvalProperty("Hot", bind["region"], bind["runA"])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatal("Hot must hold for run A")
	}
	if res.Confidence != 0.5 {
		t.Errorf("confidence = %g, want 0.5 (huge guard must not apply)", res.Confidence)
	}
	if res.Severity != 3.0 {
		t.Errorf("severity = %g, want 3.0", res.Severity)
	}
	if len(res.Conditions) != 2 || res.Conditions[0].Label != "big" || !res.Conditions[0].Value || res.Conditions[1].Value {
		t.Errorf("conditions: %+v", res.Conditions)
	}

	// Run B: Tot = 0.25 < 0.5: property does not hold; severity zero.
	res, err = ev.EvalProperty("Hot", bind["region"], bind["runB"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds || res.Severity != 0 || res.Confidence != 0 {
		t.Fatalf("run B: %+v", res)
	}

	// Never: condition is false everywhere.
	res, err = ev.EvalProperty("Never", bind["region"], bind["runA"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("Never must not hold")
	}
}

func TestPropertyErrors(t *testing.T) {
	_, ev, bind := world(t)
	if _, err := ev.EvalProperty("Unknown", bind["region"], bind["runA"]); err == nil {
		t.Fatal("unknown property expected error")
	}
	if _, err := ev.EvalProperty("Hot", bind["region"]); err == nil {
		t.Fatal("arity error expected")
	}
}

// TestConstOverride: the evaluator reads a constant from its declaration, so
// an override is a declaration of another value.
func TestConstOverride(t *testing.T) {
	w, _, bind := world(t)
	w.ConstDecls["Threshold"].Value = &ast.FloatLit{Value: 5.0}
	res, err := New(w).EvalProperty("Hot", bind["region"], bind["runA"])
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("Hot must not hold with Threshold=5 (Tot=3)")
	}
}

func TestRecursionLimit(t *testing.T) {
	spec, err := parser.Parse(`float Loop(int n) = Loop(n);`)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sem.Check(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev := New(w)
	if _, err := ev.CallFunc("Loop", object.Int(1)); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Fatalf("want depth error, got %v", err)
	}
}

func TestOverflowIsError(t *testing.T) {
	_, ev, _ := world(t)
	if _, err := evalStr(t, ev, "1e308 * 1e308", nil); err == nil {
		t.Fatal("overflow must be an error")
	}
}

// TestQuickArithmeticMatchesGo drives random integer expressions through the
// evaluator and compares against direct Go computation.
func TestQuickArithmeticMatchesGo(t *testing.T) {
	_, ev, _ := world(t)
	f := func(a, b int16, c uint8) bool {
		env := NewEnv(nil)
		env.Bind("a", object.Int(int64(a)))
		env.Bind("b", object.Int(int64(b)))
		env.Bind("c", object.Int(int64(c%7)+1))
		e, err := parser.ParseExpr("(a + b) * 2 - a % c")
		if err != nil {
			return false
		}
		got, err := ev.Eval(e, env)
		if err != nil {
			return false
		}
		want := (int64(a)+int64(b))*2 - int64(a)%(int64(c%7)+1)
		return object.Equal(got, object.Int(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSumMatchesGo checks SUM over randomized object sets.
func TestQuickSumMatchesGo(t *testing.T) {
	spec, err := parser.Parse(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sem.Check(spec)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vals []float32) bool {
		store := object.NewStore()
		run := store.New(w.Classes["Run"])
		region := store.New(w.Classes["Region"])
		region.Set("Name", object.Str("r"))
		want := 0.0
		for _, v := range vals {
			fv := float64(v)
			if math.IsNaN(fv) || math.IsInf(fv, 0) {
				continue
			}
			timing := store.New(w.Classes["Timing"])
			timing.Set("R", run)
			timing.Set("T", object.Float(fv))
			region.Append("Ts", timing)
			want += fv
		}
		ev := New(w)
		env := NewEnv(nil)
		env.Bind("region", region)
		e, err := parser.ParseExpr("SUM(x.T WHERE x IN region.Ts)")
		if err != nil {
			return false
		}
		got, err := ev.Eval(e, env)
		if err != nil {
			return false
		}
		gf, _ := object.AsFloat(got)
		return math.Abs(gf-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEnvShadowing(t *testing.T) {
	outer := NewEnv(nil)
	outer.Bind("x", object.Int(1))
	inner := NewEnv(outer)
	inner.Bind("x", object.Int(2))
	if v, _ := inner.Lookup("x"); !object.Equal(v, object.Int(2)) {
		t.Fatal("inner binding must shadow outer")
	}
	if v, _ := outer.Lookup("x"); !object.Equal(v, object.Int(1)) {
		t.Fatal("outer binding clobbered")
	}
	if _, ok := inner.Lookup("y"); ok {
		t.Fatal("unbound name found")
	}
}

func TestDateTimeComparison(t *testing.T) {
	_, ev, _ := world(t)
	v := mustEval(t, ev, "@1999-12-17T10:30:00@ < @1999-12-18T00:00:00@", nil)
	if v != object.Bool(true) {
		t.Fatalf("got %s", v)
	}
}
