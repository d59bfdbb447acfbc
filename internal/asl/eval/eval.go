// Package eval implements the reference interpreter for ASL: expressions,
// auxiliary functions, and performance properties are evaluated directly
// over the runtime object graph. This is the "client-side evaluation" path
// of the paper's Section 5; the SQL path in asl/sqlgen must agree with it.
package eval

import (
	"fmt"
	"math"

	"repro/internal/asl/ast"
	"repro/internal/asl/object"
	"repro/internal/asl/sem"
	"repro/internal/asl/token"
)

// Error is an evaluation error with position information.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Pos.Valid() {
		return fmt.Sprintf("asl eval: %s: %s", e.Pos, e.Msg)
	}
	return "asl eval: " + e.Msg
}

func errf(pos token.Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// maxCallDepth bounds user-function recursion.
const maxCallDepth = 64

// Env is a lexical environment binding names to runtime values.
type Env struct {
	parent *Env
	vars   map[string]object.Value
}

// NewEnv returns an environment with the given parent (which may be nil).
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent, vars: make(map[string]object.Value)}
}

// Bind sets a name in this scope.
func (e *Env) Bind(name string, v object.Value) { e.vars[name] = v }

// Lookup finds a name in this scope or any ancestor.
func (e *Env) Lookup(name string) (object.Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// ConditionResult records the outcome of one CONDITION alternative.
type ConditionResult struct {
	Label string
	Value bool
}

// PropertyResult is the outcome of evaluating one property instance.
type PropertyResult struct {
	Property string
	// Args are the actual parameters defining the property context.
	Args []object.Value
	// Holds reports whether any condition was true.
	Holds bool
	// Confidence in [0,1]; zero when the property does not hold.
	Confidence float64
	// Severity; zero when the property does not hold. A property with
	// severity above the analysis threshold is a performance problem.
	Severity   float64
	Conditions []ConditionResult
}

// Evaluator interprets ASL over an object graph.
type Evaluator struct {
	world  *sem.World
	consts map[string]object.Value
	depth  int
}

// New returns an evaluator for the checked world.
func New(w *sem.World) *Evaluator {
	return &Evaluator{world: w, consts: make(map[string]object.Value)}
}

// constValue resolves a specification constant from its declaration, caching
// the result. A "user- or tool-defined threshold" in the paper's words is a
// world that declares the constant with the user's value.
func (ev *Evaluator) constValue(name string) (object.Value, bool, error) {
	if v, ok := ev.consts[name]; ok {
		return v, true, nil
	}
	decl, ok := ev.world.ConstDecls[name]
	if !ok {
		return nil, false, nil
	}
	v, err := ev.Eval(decl.Value, NewEnv(nil))
	if err != nil {
		return nil, false, err
	}
	ev.consts[name] = v
	return v, true, nil
}

// EvalProperty evaluates the named property for the given actual parameters
// and returns its full result.
func (ev *Evaluator) EvalProperty(name string, args ...object.Value) (*PropertyResult, error) {
	decl, ok := ev.world.PropDecls[name]
	if !ok {
		return nil, errf(token.Pos{}, "unknown property %s", name)
	}
	if len(args) != len(decl.Params) {
		return nil, errf(decl.Pos(), "property %s expects %d arguments, got %d", name, len(decl.Params), len(args))
	}
	env := NewEnv(nil)
	for i, p := range decl.Params {
		env.Bind(p.Name, args[i])
	}
	for _, l := range decl.Lets {
		v, err := ev.Eval(l.Value, env)
		if err != nil {
			return nil, err
		}
		env.Bind(l.Name, v)
	}

	res := &PropertyResult{Property: name, Args: args}
	condByLabel := make(map[string]bool)
	for _, c := range decl.Conditions {
		v, err := ev.Eval(c.Expr, env)
		if err != nil {
			return nil, err
		}
		b, ok := v.(object.Bool)
		if !ok {
			return nil, errf(c.Expr.Pos(), "condition evaluated to %s, want Bool", v.TypeName())
		}
		res.Conditions = append(res.Conditions, ConditionResult{Label: c.Label, Value: bool(b)})
		if c.Label != "" {
			condByLabel[c.Label] = bool(b)
		}
		res.Holds = res.Holds || bool(b)
	}
	if !res.Holds {
		return res, nil
	}

	evalGuarded := func(gs []ast.Guarded) (float64, error) {
		best := 0.0
		for _, g := range gs {
			if g.Guard != "" && !condByLabel[g.Guard] {
				continue
			}
			v, err := ev.Eval(g.Expr, env)
			if err != nil {
				return 0, err
			}
			f, ok := object.AsFloat(v)
			if !ok {
				return 0, errf(g.Expr.Pos(), "expression evaluated to %s, want numeric", v.TypeName())
			}
			if f > best {
				best = f
			}
		}
		return best, nil
	}
	var err error
	if res.Confidence, err = evalGuarded(decl.Confidence); err != nil {
		return nil, err
	}
	if res.Severity, err = evalGuarded(decl.Severity); err != nil {
		return nil, err
	}
	return res, nil
}

// CallFunc invokes a declared ASL function with the given arguments.
func (ev *Evaluator) CallFunc(name string, args ...object.Value) (object.Value, error) {
	decl, ok := ev.world.FuncDecls[name]
	if !ok {
		return nil, errf(token.Pos{}, "unknown function %s", name)
	}
	if len(args) != len(decl.Params) {
		return nil, errf(decl.Pos(), "function %s expects %d arguments, got %d", name, len(decl.Params), len(args))
	}
	if ev.depth >= maxCallDepth {
		return nil, errf(decl.Pos(), "function %s: call depth exceeds %d", name, maxCallDepth)
	}
	env := NewEnv(nil)
	for i, p := range decl.Params {
		env.Bind(p.Name, args[i])
	}
	ev.depth++
	defer func() { ev.depth-- }()
	return ev.Eval(decl.Body, env)
}

// Eval evaluates an expression in the given environment.
func (ev *Evaluator) Eval(e ast.Expr, env *Env) (object.Value, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return object.Int(x.Value), nil
	case *ast.FloatLit:
		return object.Float(x.Value), nil
	case *ast.StringLit:
		return object.Str(x.Value), nil
	case *ast.BoolLit:
		return object.Bool(x.Value), nil
	case *ast.NullLit:
		return object.Null{}, nil
	case *ast.DateTimeLit:
		return object.DateTime(x.Value), nil
	case *ast.Ident:
		if v, ok := env.Lookup(x.Name); ok {
			return v, nil
		}
		if v, ok, err := ev.constValue(x.Name); err != nil {
			return nil, err
		} else if ok {
			return v, nil
		}
		if enum, ok := ev.world.EnumMembers[x.Name]; ok {
			return object.Enum{Type: enum, Member: x.Name}, nil
		}
		return nil, errf(x.Pos(), "undefined identifier %s", x.Name)
	case *ast.Member:
		recv, err := ev.Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		obj, ok := recv.(*object.Object)
		if !ok {
			return nil, errf(x.Pos(), "attribute .%s on %s value", x.Name, recv.TypeName())
		}
		if obj == nil {
			return nil, errf(x.Pos(), "attribute .%s on null object", x.Name)
		}
		return obj.Get(x.Name), nil
	case *ast.Unary:
		v, err := ev.Eval(x.X, env)
		if err != nil {
			return nil, err
		}
		if x.Op == token.MINUS {
			switch n := v.(type) {
			case object.Int:
				return object.Int(-n), nil
			case object.Float:
				return object.Float(-n), nil
			}
			return nil, errf(x.Pos(), "unary - on %s value", v.TypeName())
		}
		b, ok := v.(object.Bool)
		if !ok {
			return nil, errf(x.Pos(), "NOT on %s value", v.TypeName())
		}
		return object.Bool(!b), nil
	case *ast.Binary:
		return ev.evalBinary(x, env)
	case *ast.Call:
		args := make([]object.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := ev.Eval(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return ev.CallFunc(x.Name, args...)
	case *ast.SetCompr:
		src, err := ev.evalSet(x.Source, env)
		if err != nil {
			return nil, err
		}
		out := &object.Set{}
		inner := NewEnv(env)
		for _, elem := range src.Elems {
			inner.Bind(x.Var, elem)
			if x.Cond != nil {
				cv, err := ev.Eval(x.Cond, inner)
				if err != nil {
					return nil, err
				}
				cb, ok := cv.(object.Bool)
				if !ok {
					return nil, errf(x.Cond.Pos(), "WITH condition evaluated to %s, want Bool", cv.TypeName())
				}
				if !cb {
					continue
				}
			}
			out.Elems = append(out.Elems, elem)
		}
		return out, nil
	case *ast.Unique:
		set, err := ev.evalSet(x.Set, env)
		if err != nil {
			return nil, err
		}
		switch len(set.Elems) {
		case 1:
			return set.Elems[0], nil
		case 0:
			return nil, errf(x.Pos(), "UNIQUE over empty set")
		default:
			return nil, errf(x.Pos(), "UNIQUE over set of %d elements", len(set.Elems))
		}
	case *ast.NAry:
		return ev.evalNAry(x, env)
	case *ast.Agg:
		return ev.evalAgg(x, env)
	}
	return nil, errf(e.Pos(), "internal: unhandled expression %T", e)
}

func (ev *Evaluator) evalSet(e ast.Expr, env *Env) (*object.Set, error) {
	v, err := ev.Eval(e, env)
	if err != nil {
		return nil, err
	}
	set, ok := v.(*object.Set)
	if !ok {
		return nil, errf(e.Pos(), "expected a set, found %s", v.TypeName())
	}
	return set, nil
}

func (ev *Evaluator) evalNAry(x *ast.NAry, env *Env) (object.Value, error) {
	if x.Kind != ast.AggMax && x.Kind != ast.AggMin {
		return nil, errf(x.Pos(), "%s does not take an argument list", x.Kind)
	}
	var best float64
	isFloat := false
	for i, a := range x.Args {
		v, err := ev.Eval(a, env)
		if err != nil {
			return nil, err
		}
		f, ok := object.AsFloat(v)
		if !ok {
			return nil, errf(a.Pos(), "%s argument evaluated to %s, want numeric", x.Kind, v.TypeName())
		}
		if _, fl := v.(object.Float); fl {
			isFloat = true
		}
		if i == 0 || (x.Kind == ast.AggMax && f > best) || (x.Kind == ast.AggMin && f < best) {
			best = f
		}
	}
	if isFloat {
		return object.Float(best), nil
	}
	return object.Int(int64(best)), nil
}

// evalAgg evaluates quantified aggregates. Over an empty selection SUM and
// COUNT return zero; MIN, MAX and AVG are errors (the relational engine
// would return NULL, and the analysis layer treats both identically).
func (ev *Evaluator) evalAgg(x *ast.Agg, env *Env) (object.Value, error) {
	var values []object.Value
	if x.Binder == "" {
		set, err := ev.evalSet(x.Value, env)
		if err != nil {
			return nil, err
		}
		values = set.Elems
	} else {
		src, err := ev.evalSet(x.Source, env)
		if err != nil {
			return nil, err
		}
		inner := NewEnv(env)
		for _, elem := range src.Elems {
			inner.Bind(x.Binder, elem)
			keep := true
			for _, cond := range x.Conds {
				cv, err := ev.Eval(cond, inner)
				if err != nil {
					return nil, err
				}
				cb, ok := cv.(object.Bool)
				if !ok {
					return nil, errf(cond.Pos(), "filter evaluated to %s, want Bool", cv.TypeName())
				}
				if !cb {
					keep = false
					break
				}
			}
			if !keep {
				continue
			}
			v, err := ev.Eval(x.Value, inner)
			if err != nil {
				return nil, err
			}
			values = append(values, v)
		}
	}

	if x.Kind == ast.AggCount {
		return object.Int(int64(len(values))), nil
	}

	if len(values) == 0 {
		if x.Kind == ast.AggSum {
			if t, ok := ev.world.Types[x]; ok && sem.Identical(t, sem.IntType) {
				return object.Int(0), nil
			}
			return object.Float(0), nil
		}
		return nil, errf(x.Pos(), "%s over empty selection", x.Kind)
	}

	sum := 0.0
	best := 0.0
	allInt := true
	for i, v := range values {
		f, ok := object.AsFloat(v)
		if !ok {
			return nil, errf(x.Value.Pos(), "%s element evaluated to %s, want numeric", x.Kind, v.TypeName())
		}
		if _, isInt := v.(object.Int); !isInt {
			allInt = false
		}
		sum += f
		if i == 0 || (x.Kind == ast.AggMax && f > best) || (x.Kind == ast.AggMin && f < best) {
			best = f
		}
	}
	switch x.Kind {
	case ast.AggSum:
		if allInt {
			return object.Int(int64(sum)), nil
		}
		return object.Float(sum), nil
	case ast.AggAvg:
		return object.Float(sum / float64(len(values))), nil
	case ast.AggMax, ast.AggMin:
		if allInt {
			return object.Int(int64(best)), nil
		}
		return object.Float(best), nil
	}
	return nil, errf(x.Pos(), "internal: unhandled aggregate %s", x.Kind)
}

func (ev *Evaluator) evalBinary(x *ast.Binary, env *Env) (object.Value, error) {
	// AND/OR short-circuit.
	if x.Op == token.AND || x.Op == token.OR {
		lv, err := ev.Eval(x.L, env)
		if err != nil {
			return nil, err
		}
		lb, ok := lv.(object.Bool)
		if !ok {
			return nil, errf(x.L.Pos(), "operator %s on %s value", x.Op, lv.TypeName())
		}
		if x.Op == token.AND && !lb {
			return object.Bool(false), nil
		}
		if x.Op == token.OR && bool(lb) {
			return object.Bool(true), nil
		}
		rv, err := ev.Eval(x.R, env)
		if err != nil {
			return nil, err
		}
		rb, ok := rv.(object.Bool)
		if !ok {
			return nil, errf(x.R.Pos(), "operator %s on %s value", x.Op, rv.TypeName())
		}
		return rb, nil
	}

	lv, err := ev.Eval(x.L, env)
	if err != nil {
		return nil, err
	}
	rv, err := ev.Eval(x.R, env)
	if err != nil {
		return nil, err
	}

	switch x.Op {
	case token.EQ:
		return object.Bool(object.Equal(lv, rv)), nil
	case token.NEQ:
		return object.Bool(!object.Equal(lv, rv)), nil
	case token.LT, token.LEQ, token.GT, token.GEQ:
		cmp, err := compare(x, lv, rv)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case token.LT:
			return object.Bool(cmp < 0), nil
		case token.LEQ:
			return object.Bool(cmp <= 0), nil
		case token.GT:
			return object.Bool(cmp > 0), nil
		default:
			return object.Bool(cmp >= 0), nil
		}
	case token.PLUS:
		if ls, ok := lv.(object.Str); ok {
			rs, ok := rv.(object.Str)
			if !ok {
				return nil, errf(x.Pos(), "operator + on String and %s", rv.TypeName())
			}
			return ls + rs, nil
		}
		fallthrough
	case token.MINUS, token.STAR, token.SLASH, token.PERCENT:
		return arith(x, lv, rv)
	}
	return nil, errf(x.Pos(), "internal: unhandled binary operator %s", x.Op)
}

// compare returns -1, 0, or +1 for ordered values.
func compare(x *ast.Binary, lv, rv object.Value) (int, error) {
	if lf, ok := object.AsFloat(lv); ok {
		rf, ok := object.AsFloat(rv)
		if !ok {
			return 0, errf(x.Pos(), "operator %s on %s and %s", x.Op, lv.TypeName(), rv.TypeName())
		}
		switch {
		case lf < rf:
			return -1, nil
		case lf > rf:
			return 1, nil
		}
		return 0, nil
	}
	switch l := lv.(type) {
	case object.Str:
		r, ok := rv.(object.Str)
		if !ok {
			break
		}
		switch {
		case l < r:
			return -1, nil
		case l > r:
			return 1, nil
		}
		return 0, nil
	case object.DateTime:
		r, ok := rv.(object.DateTime)
		if !ok {
			break
		}
		switch {
		case l < r:
			return -1, nil
		case l > r:
			return 1, nil
		}
		return 0, nil
	}
	return 0, errf(x.Pos(), "operator %s on %s and %s", x.Op, lv.TypeName(), rv.TypeName())
}

func arith(x *ast.Binary, lv, rv object.Value) (object.Value, error) {
	li, lIsInt := lv.(object.Int)
	ri, rIsInt := rv.(object.Int)

	if x.Op == token.PERCENT {
		if !lIsInt || !rIsInt {
			return nil, errf(x.Pos(), "operator %% on %s and %s", lv.TypeName(), rv.TypeName())
		}
		if ri == 0 {
			return nil, errf(x.Pos(), "modulo by zero")
		}
		return li % ri, nil
	}

	lf, lok := object.AsFloat(lv)
	rf, rok := object.AsFloat(rv)
	if !lok || !rok {
		return nil, errf(x.Pos(), "operator %s on %s and %s", x.Op, lv.TypeName(), rv.TypeName())
	}

	if lIsInt && rIsInt && x.Op != token.SLASH {
		switch x.Op {
		case token.PLUS:
			return li + ri, nil
		case token.MINUS:
			return li - ri, nil
		case token.STAR:
			return li * ri, nil
		}
	}
	var f float64
	switch x.Op {
	case token.PLUS:
		f = lf + rf
	case token.MINUS:
		f = lf - rf
	case token.STAR:
		f = lf * rf
	case token.SLASH:
		if rf == 0 {
			return nil, errf(x.Pos(), "division by zero")
		}
		f = lf / rf
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, errf(x.Pos(), "arithmetic overflow in operator %s", x.Op)
	}
	return object.Float(f), nil
}
