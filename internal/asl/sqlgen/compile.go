package sqlgen

import (
	"fmt"
	"strings"

	"repro/internal/asl/ast"
	"repro/internal/asl/sem"
	"repro/internal/asl/token"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// CompiledProperty is an ASL property translated into a single SQL SELECT,
// in one of two forms.
//
// The per-context form (CompileProperty) produces one row with one boolean
// column per condition ("c0".."cN"), one numeric column per confidence entry
// ("f0"..) and one per severity entry ("s0".."sM"). Property parameters become
// typed named SQL parameters carrying object ids for class-typed parameters
// and plain values otherwise.
//
// The set form (CompilePropertySet) evaluates the property over every context
// of a test run at once: the first — context — parameter is not a marker but
// the key column of a context relation the statement selects from, and each
// row is one context's, its object id in a leading "ctx" column before the
// same c/f/s columns.
//
// NULL columns arise where the object evaluator would raise an evaluation
// error (UNIQUE over an empty set, MIN over an empty selection, and so on);
// the analyzer treats both as "instance not evaluable".
//
// The query is compiled to a typed AST and rendered per dialect; SQL holds
// the canonical kojakdb rendering, which is what plan-cache and result-cache
// keys are built from.
type CompiledProperty struct {
	Name string
	// Params are the ASL property parameters the statement binds, in order:
	// all of them in the per-context form, all but the first in the set form.
	Params []sem.Attr
	// Context names, in the set form, the parameter the context relation
	// stands for; every row leads with that object's id. Empty in the
	// per-context form.
	Context string
	// AST is the compiled query; Render spells it for a dialect.
	AST *build.Select
	// SQL is the complete SELECT statement in the canonical kojakdb dialect.
	SQL string
	// CondLabels holds the condition label (or "") per condition column.
	CondLabels []string
	// ConfGuards and SevGuards hold the guard label (or "") per confidence
	// and severity column.
	ConfGuards []string
	SevGuards  []string

	// refs are the named parameters the query references, with their
	// declared kinds, in first-occurrence order.
	refs []build.Param
}

// Render spells the property query for the named dialect. The kojakdb
// rendering equals SQL byte for byte.
func (cp *CompiledProperty) Render(dialect string) (build.Rendered, error) {
	d, ok := build.Lookup(dialect)
	if !ok {
		return build.Rendered{}, fmt.Errorf("sqlgen: unknown SQL dialect %q (have %s)", dialect, strings.Join(build.Names(), ", "))
	}
	return d.Render(cp.AST)
}

// CheckBinding validates a parameter binding against the property's declared
// parameters: every parameter the query references must be bound under
// Params.Named with a value of the declared kind (NULL is always accepted),
// and every bound name must be a declared parameter.
func (cp *CompiledProperty) CheckBinding(p *sqldb.Params) error {
	var named map[string]sqldb.Value
	if p != nil {
		named = p.Named
	}
	for _, ref := range cp.refs {
		v, ok := named[ref.Name]
		if !ok {
			return fmt.Errorf("sqlgen: property %s: no value bound for parameter $%s", cp.Name, ref.Name)
		}
		if !kindAccepts(ref.Kind, v) {
			return fmt.Errorf("sqlgen: property %s: parameter $%s wants %s, bound %s", cp.Name, ref.Name, ref.Kind, v)
		}
	}
	if len(named) > len(cp.Params) {
		declared := make(map[string]bool, len(cp.Params))
		for _, p := range cp.Params {
			declared[p.Name] = true
		}
		for name := range named {
			if !declared[name] {
				return fmt.Errorf("sqlgen: property %s: bound parameter $%s is not declared", cp.Name, name)
			}
		}
	}
	return nil
}

// kindAccepts reports whether a bound value satisfies a declared parameter
// kind. NULL is a legitimate binding for every kind.
func kindAccepts(k build.ParamKind, v sqldb.Value) bool {
	if v.IsNull() {
		return true
	}
	switch k {
	case build.KindInt:
		return v.IsInt()
	case build.KindFloat:
		return v.IsNumeric()
	case build.KindText:
		return v.IsText()
	case build.KindBool:
		return v.IsBool()
	}
	return true
}

// FillPositional populates p.Positional with the named values in marker
// order — the binding conversion for positional-marker dialects. Named stays
// populated: sharded routing and binding checks read it.
func FillPositional(p *sqldb.Params, order []string) error {
	vals := make([]sqldb.Value, len(order))
	for i, name := range order {
		v, ok := p.Named[name]
		if !ok {
			return fmt.Errorf("sqlgen: positional binding: no value for parameter $%s", name)
		}
		vals[i] = v
	}
	p.Positional = vals
	return nil
}

// paramKindFor maps an ASL parameter type to the SQL parameter kind its
// bindings are checked against. Class-typed parameters carry object ids.
func paramKindFor(t sem.Type) build.ParamKind {
	switch x := t.(type) {
	case *sem.Class:
		return build.KindInt
	case *sem.Enum:
		return build.KindText
	case *sem.Basic:
		switch x.Kind {
		case sem.Int, sem.DateTime:
			return build.KindInt
		case sem.Float:
			return build.KindFloat
		case sem.String:
			return build.KindText
		case sem.Bool:
			return build.KindBool
		}
	}
	return build.KindAny
}

// maxInlineDepth bounds ASL function inlining.
const maxInlineDepth = 32

// CompileError reports a property that cannot be translated to SQL.
type CompileError struct {
	Property string
	Pos      token.Pos
	Msg      string
}

// Error implements the error interface.
func (e *CompileError) Error() string {
	return fmt.Sprintf("sqlgen: property %s: %s: %s", e.Property, e.Pos, e.Msg)
}

// compiler carries translation state for one property.
type compiler struct {
	w      *sem.World
	prop   string
	aliasN int
	depth  int
}

// cval is a compiled ASL expression.
//
// Exactly one representation applies:
//   - ex != nil    — a SQL scalar expression; for class-typed values the
//     expression yields the object id;
//   - alias != ""  — a bound table row (set-comprehension or aggregate
//     binder variable), whose columns are directly addressable;
//   - set != nil   — a set-valued expression (only legal inside UNIQUE,
//     aggregates, and comprehensions);
//   - unique != nil — the one element UNIQUE selects from that set, read
//     through the set query itself: as a scalar it is the element's id, and
//     an attribute of it is that column of the same query (uniqueCol).
type cval struct {
	ex     build.Expr
	alias  string
	class  *sem.Class // non-nil for object-valued ex/alias values
	set    *setDesc
	unique *setDesc
	// isNull marks the ASL null literal.
	isNull bool
}

// setDesc describes a compiled set expression: the elements of a junction
// attribute, optionally filtered.
type setDesc struct {
	elem      *sem.Class
	junction  string
	ownerEx   build.Expr   // expression for the owning object id
	elemAlias string       // alias bound for the element rows
	juncAlias string       // alias bound for the junction rows, set by setQuery
	conds     []build.Expr // predicates over elemAlias
	// cols memoizes, for the set of a UNIQUE value, the query reading each
	// column of the selected element (uniqueCol).
	cols map[string]build.Expr
}

func (c *compiler) errf(pos token.Pos, format string, args ...any) *CompileError {
	return &CompileError{Property: c.prop, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (c *compiler) newAlias(prefix string) string {
	c.aliasN++
	return fmt.Sprintf("%s%d", prefix, c.aliasN)
}

// env maps ASL names to compiled values.
type cenv struct {
	parent *cenv
	vars   map[string]cval
}

func newCEnv(parent *cenv) *cenv { return &cenv{parent: parent, vars: make(map[string]cval)} }

func (e *cenv) lookup(name string) (cval, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return cval{}, false
}

// CompileProperty translates the named property of the world into SQL, in the
// per-context form: one execution evaluates one instance.
func CompileProperty(w *sem.World, name string) (*CompiledProperty, error) {
	return compileProperty(w, name, nil)
}

// ContextPath names the containment path an analysis walks from a test run to
// the contexts of a property: the runs of a root object (the program version),
// then the set attributes leading from that root down to the context class.
// For the canonical model Region contexts are reached by ProgVersion.Runs and
// ProgVersion.Functions → Function.Regions.
type ContextPath struct {
	// Root is the class owning both the run set and the first step.
	Root string
	// Runs is Root's set attribute holding the test runs.
	Runs string
	// Steps are the set attributes walked from Root to the context class.
	Steps []string
}

// CompilePropertySet translates the property into its set form: one statement
// whose contexts are a relation. The junction tables along the path join into
//
//	FROM Root_Runs x1 JOIN Root_Step1 x2 ON x2.owner_id = x1.owner_id
//	                  JOIN ..._StepN xN ON xN.owner_id = x(N-1).elem_id
//	WHERE x1.elem_id = $run
//
// — every object the path reaches from the root that owns the bound run — and
// the property's first parameter compiles to xN.elem_id wherever the
// per-context form has its marker, so each subquery of the property becomes
// correlated with the context relation's row. The remaining parameters stay
// markers; the statement is parameterized by the run (and whatever else the
// property declares, the ranking basis) alone.
func CompilePropertySet(w *sem.World, name string, path ContextPath) (*CompiledProperty, error) {
	return compileProperty(w, name, &path)
}

// contextRelation builds the FROM/JOIN/WHERE of a set-form statement into sel
// and returns the column holding the context object's id. The path must lead
// from a set of the run parameter's class to the context parameter's class.
func (c *compiler) contextRelation(sel *build.Select, path *ContextPath, params []sem.Attr) (*build.Col, error) {
	fail := func(format string, args ...any) (*build.Col, error) {
		return nil, fmt.Errorf("sqlgen: property %s: context path: %s", c.prop, fmt.Sprintf(format, args...))
	}
	setOf := func(cls *sem.Class, attr string) (*sem.Class, error) {
		a, ok := cls.Lookup(attr)
		if !ok {
			return nil, fmt.Errorf("class %s has no attribute %s", cls.Name, attr)
		}
		set, _ := a.Type.(*sem.Set)
		if set == nil {
			return nil, fmt.Errorf("%s.%s is not a set", cls.Name, attr)
		}
		elem, _ := set.Elem.(*sem.Class)
		if elem == nil {
			return nil, fmt.Errorf("%s.%s is not a set of objects", cls.Name, attr)
		}
		return elem, nil
	}
	if len(params) == 0 {
		return fail("the property has no parameter to stand for the context")
	}
	ctxClass, _ := params[0].Type.(*sem.Class)
	if ctxClass == nil {
		return fail("first parameter %s is not class typed", params[0].Name)
	}
	root, ok := c.w.Classes[path.Root]
	if !ok {
		return fail("unknown class %s", path.Root)
	}
	runClass, err := setOf(root, path.Runs)
	if err != nil {
		return fail("%v", err)
	}
	var run *sem.Attr
	for i := range params[1:] {
		if params[1+i].Type == sem.Type(runClass) {
			run = &params[1+i]
			break
		}
	}
	if run == nil {
		return fail("no %s parameter to select the run by", runClass.Name)
	}
	if len(path.Steps) == 0 {
		return fail("no step from %s to %s", root.Name, ctxClass.Name)
	}

	runs := c.newAlias("x")
	sel.From = &build.Table{Name: JunctionFor(root, path.Runs), Alias: runs}
	sel.Where = []build.Expr{&build.Bin{Op: build.OpEq,
		L: &build.Col{Table: runs, Name: "elem_id"},
		R: &build.Param{Name: run.Name, Kind: build.KindInt}}}
	owner, prev := root, &build.Col{Table: runs, Name: "owner_id"}
	for _, step := range path.Steps {
		elem, err := setOf(owner, step)
		if err != nil {
			return fail("%v", err)
		}
		alias := c.newAlias("x")
		sel.Joins = append(sel.Joins, build.Join{
			Table: build.Table{Name: JunctionFor(owner, step), Alias: alias},
			On: &build.Bin{Op: build.OpEq,
				L: &build.Col{Table: alias, Name: "owner_id"},
				R: prev},
		})
		owner, prev = elem, &build.Col{Table: alias, Name: "elem_id"}
	}
	if owner != ctxClass {
		return fail("leads to %s, the context parameter %s is a %s", owner.Name, params[0].Name, ctxClass.Name)
	}
	return prev, nil
}

// compileProperty is the one translation behind both forms; path selects the
// set form.
func compileProperty(w *sem.World, name string, path *ContextPath) (*CompiledProperty, error) {
	decl, ok := w.PropDecls[name]
	if !ok {
		return nil, fmt.Errorf("sqlgen: unknown property %s", name)
	}
	sig := w.Props[name]
	c := &compiler{w: w, prop: name}

	out := &CompiledProperty{Name: name, Params: sig.Params}
	sel := &build.Select{}
	env := newCEnv(nil)
	for _, p := range sig.Params {
		v := cval{ex: &build.Param{Name: p.Name, Kind: paramKindFor(p.Type)}}
		if cls, isClass := p.Type.(*sem.Class); isClass {
			v.class = cls
		}
		env.vars[p.Name] = v
	}
	if path != nil {
		ctx, err := c.contextRelation(sel, path, sig.Params)
		if err != nil {
			return nil, err
		}
		first := sig.Params[0]
		env.vars[first.Name] = cval{ex: ctx, class: env.vars[first.Name].class}
		sel.Items = append(sel.Items, build.Item{Expr: ctx, As: "ctx"})
		out.Context, out.Params = first.Name, sig.Params[1:]
	}
	for _, l := range decl.Lets {
		v, err := c.compile(l.Value, env)
		if err != nil {
			return nil, err
		}
		env.vars[l.Name] = v
	}

	for i, cond := range decl.Conditions {
		ex, err := c.compileScalar(cond.Expr, env)
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, build.Item{Expr: ex, As: fmt.Sprintf("c%d", i)})
		out.CondLabels = append(out.CondLabels, cond.Label)
	}
	for i, g := range decl.Confidence {
		ex, err := c.compileScalar(g.Expr, env)
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, build.Item{Expr: ex, As: fmt.Sprintf("f%d", i)})
		out.ConfGuards = append(out.ConfGuards, g.Guard)
	}
	for i, g := range decl.Severity {
		ex, err := c.compileScalar(g.Expr, env)
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, build.Item{Expr: ex, As: fmt.Sprintf("s%d", i)})
		out.SevGuards = append(out.SevGuards, g.Guard)
	}
	out.AST = sel
	refs, err := build.NamedParams(sel)
	if err != nil {
		return nil, fmt.Errorf("sqlgen: property %s: %w", name, err)
	}
	out.refs = refs
	r, err := build.Kojakdb.Render(sel)
	if err != nil {
		return nil, fmt.Errorf("sqlgen: property %s: %w", name, err)
	}
	out.SQL = r.SQL
	return out, nil
}

// compileScalar compiles an expression that must yield a SQL scalar.
func (c *compiler) compileScalar(e ast.Expr, env *cenv) (build.Expr, error) {
	v, err := c.compile(e, env)
	if err != nil {
		return nil, err
	}
	if v.set != nil {
		return nil, c.errf(e.Pos(), "set-valued expression where a scalar is required")
	}
	return c.scalarOf(v, e.Pos())
}

// idExpr returns an expression for the object id of a class-typed value.
func (c *compiler) idExpr(v cval, pos token.Pos) (build.Expr, error) {
	if v.alias == "" && v.class == nil {
		return nil, c.errf(pos, "expected an object value")
	}
	return c.scalarOf(v, pos)
}

func (c *compiler) compile(e ast.Expr, env *cenv) (cval, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return cval{ex: &build.Int{V: x.Value}}, nil
	case *ast.FloatLit:
		return cval{ex: &build.Float{V: x.Value}}, nil
	case *ast.StringLit:
		return cval{ex: &build.Str{V: x.Value}}, nil
	case *ast.BoolLit:
		return cval{ex: &build.Bool{V: x.Value}}, nil
	case *ast.NullLit:
		return cval{isNull: true}, nil
	case *ast.DateTimeLit:
		return cval{ex: &build.Int{V: x.Value}}, nil
	case *ast.Ident:
		if v, ok := env.lookup(x.Name); ok {
			return v, nil
		}
		if decl, ok := c.w.ConstDecls[x.Name]; ok {
			return c.compile(decl.Value, newCEnv(nil))
		}
		if _, ok := c.w.EnumMembers[x.Name]; ok {
			return cval{ex: &build.Str{V: x.Name}}, nil
		}
		return cval{}, c.errf(x.Pos(), "undefined identifier %s", x.Name)
	case *ast.Member:
		return c.compileMember(x, env)
	case *ast.Unary:
		sub, err := c.compileScalar(x.X, env)
		if err != nil {
			return cval{}, err
		}
		if x.Op == token.MINUS {
			return cval{ex: &build.Paren{X: &build.Un{Op: build.OpNeg, X: sub}}}, nil
		}
		return cval{ex: &build.Paren{X: &build.Un{Op: build.OpNot, X: sub}}}, nil
	case *ast.Binary:
		return c.compileBinary(x, env)
	case *ast.Call:
		return c.compileCall(x, env)
	case *ast.SetCompr:
		src, err := c.compileSet(x.Source, env)
		if err != nil {
			return cval{}, err
		}
		inner := newCEnv(env)
		inner.vars[x.Var] = cval{alias: src.elemAlias, class: src.elem}
		if x.Cond != nil {
			cond, err := c.compileScalar(x.Cond, inner)
			if err != nil {
				return cval{}, err
			}
			src.conds = append(src.conds, cond)
		}
		return cval{set: src}, nil
	case *ast.Unique:
		src, err := c.compileSet(x.Set, env)
		if err != nil {
			return cval{}, err
		}
		// The value keeps its own copy of the set: a later aggregate over the
		// same LET-bound set appends conditions to the shared descriptor.
		u := *src
		u.conds = append([]build.Expr(nil), src.conds...)
		return cval{unique: &u, class: u.elem}, nil
	case *ast.Agg:
		return c.compileAgg(x, env)
	case *ast.NAry:
		return cval{}, c.errf(x.Pos(), "scalar %s(...) argument lists are not supported in SQL translation", x.Kind)
	}
	return cval{}, c.errf(e.Pos(), "internal: unhandled expression %T", e)
}

// compileSet compiles an expression that must denote a set.
func (c *compiler) compileSet(e ast.Expr, env *cenv) (*setDesc, error) {
	v, err := c.compile(e, env)
	if err != nil {
		return nil, err
	}
	if v.set == nil {
		return nil, c.errf(e.Pos(), "expected a set-valued expression")
	}
	return v.set, nil
}

// setQuery builds a setDesc into a scalar subquery computing value.
func (c *compiler) setQuery(s *setDesc, value build.Expr) build.Expr {
	if s.juncAlias == "" {
		s.juncAlias = c.newAlias("j")
	}
	j := s.juncAlias
	sel := &build.Select{
		Items: []build.Item{{Expr: value}},
		From:  &build.Table{Name: s.junction, Alias: j},
		Joins: []build.Join{{
			Table: build.Table{Name: s.elem.Name, Alias: s.elemAlias},
			On: &build.Bin{Op: build.OpEq,
				L: &build.Col{Table: s.elemAlias, Name: "id"},
				R: &build.Col{Table: j, Name: "elem_id"}},
		}},
		Where: append([]build.Expr{&build.Bin{Op: build.OpEq,
			L: &build.Col{Table: j, Name: "owner_id"},
			R: s.ownerEx}}, s.conds...),
	}
	return &build.Subquery{Sel: sel}
}

// uniqueCol returns the scalar subquery reading one column of the element a
// UNIQUE selects from a set: the set query projecting that column. The set
// query already holds the element's row, so an attribute is read from it
// rather than by dereferencing the id it would yield — id is the element
// table's primary key, so both read the same cell of the same row (no element
// → NULL, several → the same cardinality error). The query is built once per
// column: every use of a LET-bound value is the same node and so renders the
// same text, which the engine's text-keyed subquery caches rely on.
func (c *compiler) uniqueCol(u *setDesc, col string) build.Expr {
	if u.cols[col] == nil {
		if u.cols == nil {
			u.cols = make(map[string]build.Expr)
		}
		u.cols[col] = c.setQuery(u, &build.Col{Table: u.elemAlias, Name: col})
	}
	return u.cols[col]
}

func (c *compiler) compileMember(x *ast.Member, env *cenv) (cval, error) {
	base, err := c.compile(x.X, env)
	if err != nil {
		return cval{}, err
	}
	if base.set != nil {
		return cval{}, c.errf(x.Pos(), "attribute access on a set")
	}
	if base.class == nil {
		return cval{}, c.errf(x.Pos(), "attribute access on a non-object value")
	}
	attr, ok := base.class.Lookup(x.Name)
	if !ok {
		return cval{}, c.errf(x.Pos(), "class %s has no attribute %s", base.class.Name, x.Name)
	}

	if set, isSet := attr.Type.(*sem.Set); isSet {
		elem, ok := set.Elem.(*sem.Class)
		if !ok {
			return cval{}, c.errf(x.Pos(), "setof %s is not a class set", set.Elem)
		}
		owner, err := c.idExpr(base, x.Pos())
		if err != nil {
			return cval{}, err
		}
		return cval{set: &setDesc{
			elem:      elem,
			junction:  JunctionFor(base.class, x.Name),
			ownerEx:   owner,
			elemAlias: c.newAlias("a"),
		}}, nil
	}

	col := ColumnFor(attr)
	var out cval
	if cls, isClass := attr.Type.(*sem.Class); isClass {
		out.class = cls
	}
	if base.alias != "" {
		out.ex = &build.Col{Table: base.alias, Name: col}
		return out, nil
	}
	if base.unique != nil {
		out.ex = c.uniqueCol(base.unique, col)
		return out, nil
	}
	// Dereference via a scalar subquery on the base class table.
	a := c.newAlias("d")
	out.ex = &build.Subquery{Sel: &build.Select{
		Items: []build.Item{{Expr: &build.Col{Table: a, Name: col}}},
		From:  &build.Table{Name: base.class.Name, Alias: a},
		Where: []build.Expr{&build.Bin{Op: build.OpEq,
			L: &build.Col{Table: a, Name: "id"},
			R: base.ex}},
	}}
	return out, nil
}

func (c *compiler) compileBinary(x *ast.Binary, env *cenv) (cval, error) {
	l, err := c.compile(x.L, env)
	if err != nil {
		return cval{}, err
	}
	r, err := c.compile(x.R, env)
	if err != nil {
		return cval{}, err
	}
	// Comparisons against the null literal become IS NULL tests.
	if l.isNull || r.isNull {
		other := l
		if l.isNull {
			other = r
		}
		ex, err := c.scalarOf(other, x.Pos())
		if err != nil {
			return cval{}, err
		}
		switch x.Op {
		case token.EQ:
			return cval{ex: &build.Paren{X: &build.IsNull{X: ex}}}, nil
		case token.NEQ:
			return cval{ex: &build.Paren{X: &build.IsNull{X: ex, Not: true}}}, nil
		}
		return cval{}, c.errf(x.Pos(), "null may only be compared with == or !=")
	}
	lt, err := c.scalarOf(l, x.L.Pos())
	if err != nil {
		return cval{}, err
	}
	rt, err := c.scalarOf(r, x.R.Pos())
	if err != nil {
		return cval{}, err
	}
	var op build.BinOp
	switch x.Op {
	case token.PLUS:
		op = build.OpAdd
	case token.MINUS:
		op = build.OpSub
	case token.STAR:
		op = build.OpMul
	case token.SLASH:
		op = build.OpDiv
	case token.PERCENT:
		op = build.OpMod
	case token.EQ:
		op = build.OpEq
	case token.NEQ:
		op = build.OpNeq
	case token.LT:
		op = build.OpLt
	case token.LEQ:
		op = build.OpLeq
	case token.GT:
		op = build.OpGt
	case token.GEQ:
		op = build.OpGeq
	case token.AND:
		op = build.OpAnd
	case token.OR:
		op = build.OpOr
	default:
		return cval{}, c.errf(x.Pos(), "operator %s is not supported in SQL translation", x.Op)
	}
	return cval{ex: &build.Paren{X: &build.Bin{Op: op, L: lt, R: rt}}}, nil
}

// scalarOf renders a compiled value as a SQL scalar (object values render as
// their id).
func (c *compiler) scalarOf(v cval, pos token.Pos) (build.Expr, error) {
	switch {
	case v.set != nil:
		return nil, c.errf(pos, "set value used as a scalar")
	case v.alias != "":
		return &build.Col{Table: v.alias, Name: "id"}, nil
	case v.unique != nil:
		return c.uniqueCol(v.unique, "id"), nil
	case v.isNull:
		return &build.Null{}, nil
	}
	return v.ex, nil
}

func (c *compiler) compileCall(x *ast.Call, env *cenv) (cval, error) {
	decl, ok := c.w.FuncDecls[x.Name]
	if !ok {
		return cval{}, c.errf(x.Pos(), "call of unknown function %s", x.Name)
	}
	if len(x.Args) != len(decl.Params) {
		return cval{}, c.errf(x.Pos(), "function %s expects %d arguments, got %d", x.Name, len(decl.Params), len(x.Args))
	}
	if c.depth >= maxInlineDepth {
		return cval{}, c.errf(x.Pos(), "function inlining exceeds depth %d (recursive functions cannot be translated)", maxInlineDepth)
	}
	inner := newCEnv(nil)
	for i, p := range decl.Params {
		av, err := c.compile(x.Args[i], env)
		if err != nil {
			return cval{}, err
		}
		inner.vars[p.Name] = av
	}
	c.depth++
	defer func() { c.depth-- }()
	return c.compile(decl.Body, inner)
}

func (c *compiler) compileAgg(x *ast.Agg, env *cenv) (cval, error) {
	var src *setDesc
	inner := env
	if x.Binder != "" {
		var err error
		src, err = c.compileSet(x.Source, env)
		if err != nil {
			return cval{}, err
		}
		inner = newCEnv(env)
		inner.vars[x.Binder] = cval{alias: src.elemAlias, class: src.elem}
		for _, cond := range x.Conds {
			ex, err := c.compileScalar(cond, inner)
			if err != nil {
				return cval{}, err
			}
			src.conds = append(src.conds, ex)
		}
	} else {
		var err error
		src, err = c.compileSet(x.Value, env)
		if err != nil {
			return cval{}, err
		}
		if x.Kind != ast.AggCount {
			return cval{}, c.errf(x.Pos(), "%s over a bare set is only supported for COUNT", x.Kind)
		}
		return cval{ex: c.setQuery(src, &build.Call{Name: "COUNT", Star: true})}, nil
	}

	if x.Kind == ast.AggCount {
		return cval{ex: c.setQuery(src, &build.Call{Name: "COUNT", Star: true})}, nil
	}
	valEx, err := c.compileScalar(x.Value, inner)
	if err != nil {
		return cval{}, err
	}
	agg := c.setQuery(src, &build.Call{Name: fmt.Sprint(x.Kind), Args: []build.Expr{valEx}})
	if x.Kind == ast.AggSum {
		// ASL defines SUM over an empty selection as zero; SQL yields NULL.
		agg = &build.Call{Name: "COALESCE", Args: []build.Expr{agg, &build.Int{V: 0}}}
	}
	return cval{ex: agg}, nil
}

// CompileAll compiles every property of the world, returning them keyed by
// name. Properties that cannot be translated are reported in the errors map
// rather than failing the whole batch, mirroring COSY's per-property
// fallback to client-side evaluation.
func CompileAll(w *sem.World) (map[string]*CompiledProperty, map[string]error) {
	out := make(map[string]*CompiledProperty)
	errs := make(map[string]error)
	for name := range w.PropDecls {
		cp, err := CompileProperty(w, name)
		if err != nil {
			errs[name] = err
			continue
		}
		out[name] = cp
	}
	return out, errs
}
