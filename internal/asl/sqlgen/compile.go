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
// same c/f/s columns. Restrict narrows it to the context bound under Context.
//
// NULL columns arise where the object evaluator would raise an evaluation
// error (UNIQUE over an empty set, MIN over an empty selection, and so on);
// the analyzer treats both as "instance not evaluable".
//
// The query is compiled to the engine's own SQL AST and rendered per
// dialect; SQL holds the canonical kojakdb rendering, which is what
// plan-cache and result-cache keys are built from.
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
	AST *sqldb.SelectStmt
	// SQL is the complete SELECT statement in the canonical kojakdb dialect.
	SQL string
	// CondLabels holds the condition label (or "") per condition column.
	CondLabels []string
	// ConfGuards and SevGuards hold the guard label (or "") per confidence
	// and severity column.
	ConfGuards []string
	SevGuards  []string
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

// Restrict returns the set form restricted to one context: the same tree with
// one more conjunct, "<context column> = $<Context>", so the statement answers
// with the row of the context bound under Context alone, its ctx column
// included. It binds Context besides Params; in a positional-marker dialect
// that marker comes last.
func (cp *CompiledProperty) Restrict() (*CompiledProperty, error) {
	if cp.Context == "" {
		return nil, fmt.Errorf("sqlgen: property %s: only the set form restricts to a context", cp.Name)
	}
	sel := *cp.AST
	sel.Where = and(sel.Where, eq(sel.Items[0].Expr, param(cp.Context)))
	r, err := build.Kojakdb.Render(&sel)
	if err != nil {
		return nil, fmt.Errorf("sqlgen: property %s: %w", cp.Name, err)
	}
	out := *cp
	out.AST, out.SQL = &sel, r.SQL
	return &out, nil
}

// FillPositional populates p.Positional with the named values in marker
// order — the binding conversion for positional-marker dialects. Named stays
// populated: sharded routing reads it.
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
	ex     sqldb.Expr
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
	ownerEx   sqldb.Expr   // expression for the owning object id
	elemAlias string       // alias bound for the element rows
	juncAlias string       // alias bound for the junction rows, set by setQuery
	conds     []sqldb.Expr // predicates over elemAlias
	// cols memoizes, for the set of a UNIQUE value, the query reading each
	// column of the selected element (uniqueCol).
	cols map[string]sqldb.Expr
}

// Node constructors for the shapes the compiler emits.

func col(qual, name string) *sqldb.EColumn { return sqldb.NewEColumn(qual, name) }

func param(name string) *sqldb.EParam { return &sqldb.EParam{Ordinal: -1, Name: name} }

func lit(v sqldb.Value) *sqldb.ELit { return &sqldb.ELit{Value: v} }

func eq(l, r sqldb.Expr) *sqldb.EBinary { return &sqldb.EBinary{Op: sqldb.OpEq, L: l, R: r} }

// and joins predicates with AND, left-deep and ungrouped: the tree the
// engine parses "p AND q AND r" into.
func and(first sqldb.Expr, rest ...sqldb.Expr) sqldb.Expr {
	for _, p := range rest {
		first = &sqldb.EBinary{Op: sqldb.OpAnd, L: first, R: p}
	}
	return first
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
func (c *compiler) contextRelation(sel *sqldb.SelectStmt, path *ContextPath, params []sem.Attr) (*sqldb.EColumn, error) {
	fail := func(format string, args ...any) (*sqldb.EColumn, error) {
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
	sel.From = &sqldb.TableRef{Table: JunctionFor(root, path.Runs), Alias: runs}
	sel.Where = eq(col(runs, "elem_id"), param(run.Name))
	owner, prev := root, col(runs, "owner_id")
	for _, step := range path.Steps {
		elem, err := setOf(owner, step)
		if err != nil {
			return fail("%v", err)
		}
		alias := c.newAlias("x")
		sel.Joins = append(sel.Joins, sqldb.Join{
			Table: sqldb.TableRef{Table: JunctionFor(owner, step), Alias: alias},
			On:    eq(col(alias, "owner_id"), prev),
		})
		owner, prev = elem, col(alias, "elem_id")
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
	sel := &sqldb.SelectStmt{}
	env := newCEnv(nil)
	for _, p := range sig.Params {
		v := cval{ex: param(p.Name)}
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
		sel.Items = append(sel.Items, sqldb.SelectItem{Expr: ctx, Alias: "ctx"})
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
		sel.Items = append(sel.Items, sqldb.SelectItem{Expr: ex, Alias: fmt.Sprintf("c%d", i)})
		out.CondLabels = append(out.CondLabels, cond.Label)
	}
	for i, g := range decl.Confidence {
		ex, err := c.compileScalar(g.Expr, env)
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, sqldb.SelectItem{Expr: ex, Alias: fmt.Sprintf("f%d", i)})
		out.ConfGuards = append(out.ConfGuards, g.Guard)
	}
	for i, g := range decl.Severity {
		ex, err := c.compileScalar(g.Expr, env)
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, sqldb.SelectItem{Expr: ex, Alias: fmt.Sprintf("s%d", i)})
		out.SevGuards = append(out.SevGuards, g.Guard)
	}
	out.AST = sel
	r, err := build.Kojakdb.Render(sel)
	if err != nil {
		return nil, fmt.Errorf("sqlgen: property %s: %w", name, err)
	}
	out.SQL = r.SQL
	return out, nil
}

// compileScalar compiles an expression that must yield a SQL scalar.
func (c *compiler) compileScalar(e ast.Expr, env *cenv) (sqldb.Expr, error) {
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
func (c *compiler) idExpr(v cval, pos token.Pos) (sqldb.Expr, error) {
	if v.alias == "" && v.class == nil {
		return nil, c.errf(pos, "expected an object value")
	}
	return c.scalarOf(v, pos)
}

func (c *compiler) compile(e ast.Expr, env *cenv) (cval, error) {
	switch x := e.(type) {
	case *ast.IntLit:
		return cval{ex: lit(sqldb.NewInt(x.Value))}, nil
	case *ast.FloatLit:
		return cval{ex: lit(sqldb.NewFloat(x.Value))}, nil
	case *ast.StringLit:
		return cval{ex: lit(sqldb.NewText(x.Value))}, nil
	case *ast.BoolLit:
		return cval{ex: lit(sqldb.NewBool(x.Value))}, nil
	case *ast.NullLit:
		return cval{isNull: true}, nil
	case *ast.DateTimeLit:
		return cval{ex: lit(sqldb.NewInt(x.Value))}, nil
	case *ast.Ident:
		if v, ok := env.lookup(x.Name); ok {
			return v, nil
		}
		if decl, ok := c.w.ConstDecls[x.Name]; ok {
			return c.compile(decl.Value, newCEnv(nil))
		}
		if _, ok := c.w.EnumMembers[x.Name]; ok {
			return cval{ex: lit(sqldb.NewText(x.Name))}, nil
		}
		return cval{}, c.errf(x.Pos(), "undefined identifier %s", x.Name)
	case *ast.Member:
		return c.compileMember(x, env)
	case *ast.Unary:
		sub, err := c.compileScalar(x.X, env)
		if err != nil {
			return cval{}, err
		}
		return cval{ex: &sqldb.EUnary{Neg: x.Op == token.MINUS, X: sub, Paren: true}}, nil
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
		u.conds = append([]sqldb.Expr(nil), src.conds...)
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
func (c *compiler) setQuery(s *setDesc, value sqldb.Expr) sqldb.Expr {
	if s.juncAlias == "" {
		s.juncAlias = c.newAlias("j")
	}
	j := s.juncAlias
	return &sqldb.ESubquery{Select: &sqldb.SelectStmt{
		Items: []sqldb.SelectItem{{Expr: value}},
		From:  &sqldb.TableRef{Table: s.junction, Alias: j},
		Joins: []sqldb.Join{{
			Table: sqldb.TableRef{Table: s.elem.Name, Alias: s.elemAlias},
			On:    eq(col(s.elemAlias, "id"), col(j, "elem_id")),
		}},
		Where: and(eq(col(j, "owner_id"), s.ownerEx), s.conds...),
	}}
}

// uniqueCol returns the scalar subquery reading one column of the element a
// UNIQUE selects from a set: the set query projecting that column. The set
// query already holds the element's row, so an attribute is read from it
// rather than by dereferencing the id it would yield — id is the element
// table's primary key, so both read the same cell of the same row (no element
// → NULL, several → the same cardinality error). The query is built once per
// column: every use of a LET-bound value is the same node and so renders the
// same text, which the engine's text-keyed subquery caches rely on.
func (c *compiler) uniqueCol(u *setDesc, name string) sqldb.Expr {
	if u.cols[name] == nil {
		if u.cols == nil {
			u.cols = make(map[string]sqldb.Expr)
		}
		u.cols[name] = c.setQuery(u, col(u.elemAlias, name))
	}
	return u.cols[name]
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

	name := ColumnFor(attr)
	var out cval
	if cls, isClass := attr.Type.(*sem.Class); isClass {
		out.class = cls
	}
	if base.alias != "" {
		out.ex = col(base.alias, name)
		return out, nil
	}
	if base.unique != nil {
		out.ex = c.uniqueCol(base.unique, name)
		return out, nil
	}
	// Dereference via a scalar subquery on the base class table.
	a := c.newAlias("d")
	out.ex = &sqldb.ESubquery{Select: &sqldb.SelectStmt{
		Items: []sqldb.SelectItem{{Expr: col(a, name)}},
		From:  &sqldb.TableRef{Table: base.class.Name, Alias: a},
		Where: eq(col(a, "id"), base.ex),
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
		if x.Op != token.EQ && x.Op != token.NEQ {
			return cval{}, c.errf(x.Pos(), "null may only be compared with == or !=")
		}
		return cval{ex: &sqldb.EIsNull{X: ex, Not: x.Op == token.NEQ, Paren: true}}, nil
	}
	lt, err := c.scalarOf(l, x.L.Pos())
	if err != nil {
		return cval{}, err
	}
	rt, err := c.scalarOf(r, x.R.Pos())
	if err != nil {
		return cval{}, err
	}
	var op sqldb.BinOp
	switch x.Op {
	case token.PLUS:
		op = sqldb.OpAdd
	case token.MINUS:
		op = sqldb.OpSub
	case token.STAR:
		op = sqldb.OpMul
	case token.SLASH:
		op = sqldb.OpDiv
	case token.PERCENT:
		op = sqldb.OpMod
	case token.EQ:
		op = sqldb.OpEq
	case token.NEQ:
		op = sqldb.OpNeq
	case token.LT:
		op = sqldb.OpLt
	case token.LEQ:
		op = sqldb.OpLeq
	case token.GT:
		op = sqldb.OpGt
	case token.GEQ:
		op = sqldb.OpGeq
	case token.AND:
		op = sqldb.OpAnd
	case token.OR:
		op = sqldb.OpOr
	default:
		return cval{}, c.errf(x.Pos(), "operator %s is not supported in SQL translation", x.Op)
	}
	return cval{ex: &sqldb.EBinary{Op: op, L: lt, R: rt, Paren: true}}, nil
}

// scalarOf renders a compiled value as a SQL scalar (object values render as
// their id).
func (c *compiler) scalarOf(v cval, pos token.Pos) (sqldb.Expr, error) {
	switch {
	case v.set != nil:
		return nil, c.errf(pos, "set value used as a scalar")
	case v.alias != "":
		return col(v.alias, "id"), nil
	case v.unique != nil:
		return c.uniqueCol(v.unique, "id"), nil
	case v.isNull:
		return lit(sqldb.Null), nil
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
		return cval{ex: c.setQuery(src, &sqldb.ECall{Name: "COUNT", Star: true})}, nil
	}

	if x.Kind == ast.AggCount {
		return cval{ex: c.setQuery(src, &sqldb.ECall{Name: "COUNT", Star: true})}, nil
	}
	valEx, err := c.compileScalar(x.Value, inner)
	if err != nil {
		return cval{}, err
	}
	agg := c.setQuery(src, &sqldb.ECall{Name: fmt.Sprint(x.Kind), Args: []sqldb.Expr{valEx}})
	if x.Kind == ast.AggSum {
		// ASL defines SUM over an empty selection as zero; SQL yields NULL.
		agg = &sqldb.ECall{Name: "COALESCE", Args: []sqldb.Expr{agg, lit(sqldb.NewInt(0))}}
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
