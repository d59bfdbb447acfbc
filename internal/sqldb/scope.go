package sqldb

import (
	"fmt"
	"slices"
	"strings"
)

// Name resolution. A column reference resolves by SQL's rule: the innermost
// scope — the SELECT it appears in, then each enclosing SELECT outward — that
// carries it wins. A qualified reference names the innermost binding of its
// qualifier; when that table lacks the column, the reference is an unknown
// column and never falls through to an outer namesake. Within one scope, two
// tables carrying the reference make it ambiguous. A scope shows the tables
// its clause runs with: join ON k the first k+2, every other clause all of
// them.
//
// The rule is written twice, here only. The planner binds every reference
// once (planner.bind), and everything decided at prepare time — access
// paths, join keys, vectorized column loads, outer references, decorrelation
// and the invariant-subquery memo — reads those bindings (stmtPlan.cols) and
// the summaries derived from them (stmtPlan.reads, selectPlan.outer). The row
// interpreter resolves by name at run time (frame.resolve): the independent
// reference the package's tests hold the bindings against (checkBinder).

// colRef is the planner's binding of one column reference: column col, of
// declared type typ, of the tab-th bound table of the SELECT at nesting level
// level (0 is the statement's outermost scope; frame.level). tab is -1 for a
// reference that binds nothing: evaluating it raises unboundErr.
type colRef struct {
	level, tab, col int
	typ             ColType
	ambiguous       bool
}

// tabRef names the tab-th bound table of the SELECT at nesting level level.
type tabRef struct{ level, tab int }

// reads is what an expression reads of the scopes around it: the tables it
// reads a column of, each once, and whether it holds a reference that binds
// nothing.
type reads struct {
	tabs    []tabRef
	unbound bool
}

func (r *reads) add(t tabRef) {
	if !slices.Contains(r.tabs, t) {
		r.tabs = append(r.tabs, t)
	}
}

// at reports whether r reads a table of the SELECT at level.
func (r reads) at(level int) bool {
	return slices.ContainsFunc(r.tabs, func(t tabRef) bool { return t.level == level })
}

// within reports whether r reads tables of the SELECT at level only, and
// binds every reference.
func (r reads) within(level int) bool {
	return !r.unbound && !slices.ContainsFunc(r.tabs, func(t tabRef) bool { return t.level != level })
}

// scope is one SELECT around the expression being bound, and the number of
// its tables the clause being bound runs with.
type scope struct {
	sp    *selectPlan
	width int
}

// planner is the state of one buildPlan: the scopes around the expression
// being planned, innermost last.
type planner struct {
	db     *DB
	p      *stmtPlan
	scopes []scope
}

// bind resolves a column reference against the scopes being planned.
func (pl *planner) bind(x *EColumn) colRef {
	lqual, lname := x.keys()
	for i := len(pl.scopes) - 1; i >= 0; i-- {
		sc := pl.scopes[i]
		ref := colRef{tab: -1}
		named := false
		for t := range sc.width {
			binding, tab := sc.sp.table(t)
			if lqual != "" {
				if binding != lqual {
					continue
				}
				named = true
			}
			c, has := tab.colIdx[lname]
			if !has {
				continue
			}
			if ref.tab >= 0 {
				return colRef{tab: -1, ambiguous: true}
			}
			ref = colRef{level: sc.sp.level, tab: t, col: c, typ: tab.Columns[c].Type}
		}
		if ref.tab >= 0 || named {
			return ref
		}
	}
	return colRef{tab: -1}
}

// planExpr binds the column references of an expression, plans the SELECTs
// nested in it, and adds what it reads outside the innermost scope to that
// scope's SELECT (selectPlan.outer).
func (pl *planner) planExpr(e Expr) error {
	var err error
	walkExpr(e, func(e Expr) {
		var sub *SelectStmt
		switch x := e.(type) {
		case *EColumn:
			ref := pl.bind(x)
			pl.p.cols[x] = ref
			var r reads
			if ref.tab < 0 {
				r.unbound = true
			} else {
				r.tabs = []tabRef{{ref.level, ref.tab}}
			}
			pl.reach(r)
			return
		case *ESubquery:
			sub, pl.p.shapes = x.Select, max(pl.p.shapes, x.Shape+1)
		case *EExists:
			sub, pl.p.shapes = x.Select, max(pl.p.shapes, x.Shape+1)
		case *EIn:
			sub = x.Sub
		}
		if sub != nil && err == nil {
			if err = pl.planSelect(sub); err == nil {
				pl.reach(pl.p.selects[sub].outer)
			}
		}
	})
	return err
}

// reach adds the part of r outside the innermost scope to what its SELECT
// reads of the scopes around it.
func (pl *planner) reach(r reads) {
	if len(pl.scopes) == 0 {
		return
	}
	sp := pl.scopes[len(pl.scopes)-1].sp
	for _, t := range r.tabs {
		if t.level < sp.level {
			sp.outer.add(t)
		}
	}
	sp.outer.unbound = sp.outer.unbound || r.unbound
}

// reads is what an expression of the statement reads, by the bindings.
func (p *stmtPlan) reads(e Expr) reads {
	var r reads
	union := func(o reads) {
		for _, t := range o.tabs {
			r.add(t)
		}
		r.unbound = r.unbound || o.unbound
	}
	walkExpr(e, func(e Expr) {
		switch x := e.(type) {
		case *EColumn:
			if ref := p.cols[x]; ref.tab >= 0 {
				r.add(tabRef{ref.level, ref.tab})
			} else {
				r.unbound = true
			}
		case *ESubquery:
			union(p.selects[x.Select].outer)
		case *EExists:
			union(p.selects[x.Select].outer)
		case *EIn:
			if x.Sub != nil {
				union(p.selects[x.Sub].outer)
			}
		}
	})
	return r
}

// local returns the binding of x when it reads a table of sp itself.
func (p *stmtPlan) local(sp *selectPlan, x *EColumn) (colRef, bool) {
	ref := p.cols[x]
	return ref, ref.tab >= 0 && ref.level == sp.level
}

// walkExpr calls f on e and on each of its operands, depth first; it does not
// enter the SELECT of a subquery node.
func walkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *EBinary:
		walkExpr(x.L, f)
		walkExpr(x.R, f)
	case *EUnary:
		walkExpr(x.X, f)
	case *EIsNull:
		walkExpr(x.X, f)
	case *ECall:
		for _, a := range x.Args {
			walkExpr(a, f)
		}
	case *EIn:
		walkExpr(x.X, f)
		for _, a := range x.List {
			walkExpr(a, f)
		}
	}
}

// eachClause calls f on every expression clause of a SELECT over full bound
// tables, with the number of them bound while the clause runs. An ORDER BY
// key naming one of the aliases reads the output row, not a scope: it is
// left out.
func eachClause(st *SelectStmt, full int, aliases map[string]int, f func(e Expr, width int)) {
	for _, item := range st.Items {
		if !item.Star {
			f(item.Expr, full)
		}
	}
	for k, j := range st.Joins {
		f(j.On, k+2)
	}
	for _, e := range []Expr{st.Where, st.Having, st.Limit} {
		if e != nil {
			f(e, full)
		}
	}
	for _, g := range st.GroupBy {
		f(g, full)
	}
	for _, o := range st.OrderBy {
		if col, ok := o.Expr.(*EColumn); ok && col.Qual == "" {
			if _, alias := aliases[strings.ToLower(col.Name)]; alias {
				continue
			}
		}
		f(o.Expr, full)
	}
}

// frame is a lexical scope of bound tables at run time, the SELECT at
// nesting level level; parent scopes make correlated subqueries work. Levels
// fall along the parent chain, and a level may be missing — the decorrelated
// form of a subquery nested in another's correlation key runs with the
// compiling SELECT's frame as its parent — where nothing reads it.
type frame struct {
	parent *frame
	level  int
	tables []*boundTable
}

// resolve finds the bound table and column position of a column reference
// by name, as the row interpreter evaluates it.
func (fr *frame) resolve(ref *EColumn) (*boundTable, int, error) {
	lqual, lname := ref.keys()
	for scope := fr; scope != nil; scope = scope.parent {
		var found *boundTable
		col, named := -1, false
		for _, bt := range scope.tables {
			if lqual != "" {
				if bt.binding != lqual {
					continue
				}
				named = true
			}
			c, ok := bt.table.colIdx[lname]
			if !ok {
				continue
			}
			if found != nil {
				return nil, 0, unboundErr(ref, true)
			}
			found, col = bt, c
		}
		if found != nil {
			return found, col, nil
		}
		if named {
			break
		}
	}
	return nil, 0, unboundErr(ref, false)
}

// unboundErr is the error a reference that binds nothing raises.
func unboundErr(ref *EColumn, ambiguous bool) error {
	switch {
	case ambiguous:
		return fmt.Errorf("sqldb: ambiguous column %s", ref.Name)
	case ref.Qual != "":
		return fmt.Errorf("sqldb: unknown column %s.%s", ref.Qual, ref.Name)
	}
	return fmt.Errorf("sqldb: unknown column %s", ref.Name)
}

// checkBinder, set by the package's tests, makes every run-time resolution
// compare itself with the plan's binding, and panic where they part.
var checkBinder bool

// column evaluates a column reference on the row interpreter.
func (ec *execCtx) column(x *EColumn, fr *frame) (Value, error) {
	bt, col, err := fr.resolve(x)
	if checkBinder {
		ec.plan.check(x, fr, bt, col, err)
	}
	if err != nil {
		return Null, err
	}
	return bt.value(col), nil
}

// check panics unless frame.resolve's outcome for x is the plan's binding.
func (p *stmtPlan) check(x *EColumn, fr *frame, bt *boundTable, col int, err error) {
	ref, ok := p.cols[x]
	if !ok {
		panic(fmt.Sprintf("sqldb: column %s.%s has no binding", x.Qual, x.Name))
	}
	if err != nil {
		if ref.tab >= 0 || err.Error() != unboundErr(x, ref.ambiguous).Error() {
			panic(fmt.Sprintf("sqldb: %s.%s bound to %+v, resolved to %v", x.Qual, x.Name, ref, err))
		}
		return
	}
	for fr != nil && fr.level > ref.level {
		fr = fr.parent
	}
	if ref.tab < 0 || fr == nil || fr.level != ref.level || ref.tab >= len(fr.tables) || fr.tables[ref.tab] != bt || ref.col != col {
		panic(fmt.Sprintf("sqldb: %s.%s bound to %+v, resolved to table %s column %d", x.Qual, x.Name, ref, bt.binding, col))
	}
}
