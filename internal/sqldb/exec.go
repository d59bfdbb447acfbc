package sqldb

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Params carries the actual parameters of a statement: positional values for
// "?" markers and named values for "$name" markers.
type Params struct {
	Positional []Value
	Named      map[string]Value
}

// lookup returns the value bound to a parameter marker, or false when the
// set (which may be nil) does not bind it.
func (p *Params) lookup(x *EParam) (Value, bool) {
	switch {
	case p == nil:
		return Null, false
	case x.Name != "":
		v, ok := p.Named[x.Name]
		return v, ok
	case x.Ordinal < len(p.Positional):
		return p.Positional[x.Ordinal], true
	}
	return Null, false
}

// ResultSet is the outcome of a SELECT.
type ResultSet struct {
	Columns []string
	Rows    []Row
}

// Result is the outcome of executing any statement.
type Result struct {
	// Set is non-nil for SELECT statements.
	Set *ResultSet
	// Affected counts inserted, updated, or deleted rows.
	Affected int
	// Cached reports that Set was served from the result cache instead of
	// being executed (see resultcache.go). Cached sets are shared; treat
	// them as read-only.
	Cached bool
}

// Exec executes one SQL statement. Statement plans are cached by query text
// (see prepare.go), so repeated ad-hoc executions of the same SQL skip the
// parse and plan phases. Planning validates every referenced table, so Exec
// refuses what Prepare refuses, with the same error.
func (db *DB) Exec(query string, params *Params) (*Result, error) {
	ps, err := db.cachedStmt(query)
	if err != nil {
		return nil, err
	}
	return ps.Execute(params)
}

// MustExec executes a statement and panics on error; intended for schema
// setup in tests and loaders where failure is a programming error.
func (db *DB) MustExec(query string, params *Params) *Result {
	res, err := db.Exec(query, params)
	if err != nil {
		panic(err)
	}
	return res
}

// execDDL runs a schema statement. DDL reads no plan: each statement takes
// the exclusive statement lock itself and looks its table up under it.
func (db *DB) execDDL(stmt Stmt) (*Result, error) {
	var err error
	switch st := stmt.(type) {
	case *CreateTableStmt:
		err = db.createTable(st.Name, st.Cols)
	case *DropTableStmt:
		err = db.dropTable(st.Name)
	case *CreateIndexStmt:
		err = db.createIndex(st.Table, st.Column)
	}
	if err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// execInsertLocked is the INSERT core; db.mu must be held exclusively.
func (db *DB) execInsertLocked(st *InsertStmt, params *Params, plan *stmtPlan) (*Result, error) {
	t := db.tables[strings.ToLower(st.Table)]
	if t == nil {
		return nil, fmt.Errorf("sqldb: no table %s", st.Table)
	}
	// Column mapping: listed columns or all columns in order.
	var colPos []int
	if len(st.Cols) > 0 {
		colPos = make([]int, len(st.Cols))
		for i, c := range st.Cols {
			pos := t.ColumnIndex(c)
			if pos < 0 {
				return nil, fmt.Errorf("sqldb: table %s has no column %s", st.Table, c)
			}
			colPos[i] = pos
		}
	} else {
		colPos = make([]int, len(t.Columns))
		for i := range t.Columns {
			colPos[i] = i
		}
	}
	ec := &execCtx{db: db, params: params, plan: plan}
	n := 0
	// A multi-row INSERT that fails midway leaves its earlier rows inserted,
	// so the data version must move whenever anything landed — error or not.
	defer func() {
		if n > 0 {
			db.bumpData(t)
		}
	}()
	for _, exprs := range st.Rows {
		if len(exprs) != len(colPos) {
			return nil, fmt.Errorf("sqldb: INSERT has %d values for %d columns", len(exprs), len(colPos))
		}
		row := make(Row, len(t.Columns))
		for i, e := range exprs {
			v, err := ec.eval(e, nil)
			if err != nil {
				return nil, err
			}
			row[colPos[i]] = v
		}
		if err := t.insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// execUpdateLocked is the UPDATE core; db.mu must be held exclusively.
func (db *DB) execUpdateLocked(st *UpdateStmt, params *Params, plan *stmtPlan) (*Result, error) {
	t := db.tables[strings.ToLower(st.Table)]
	if t == nil {
		return nil, fmt.Errorf("sqldb: no table %s", st.Table)
	}
	// Columnar path: a compiled DML plan evaluates WHERE/SET batch-at-a-time
	// over the column vectors (vecdml.go).
	if plan.dml != nil && db.vecOn.Load() {
		return db.vecExecUpdateLocked(params, plan, t)
	}
	ec := &execCtx{db: db, params: params, plan: plan}
	// Phase 1 (read): evaluate WHERE and the SET expressions against the
	// pre-update state, without holding the table write lock, so that
	// subqueries over the updated table itself can take read locks freely.
	bt := &boundTable{binding: strings.ToLower(st.Table), table: t}
	fr := &frame{tables: []*boundTable{bt}}
	cols := make([]int, len(st.Sets))
	for i, set := range st.Sets {
		cols[i] = t.ColumnIndex(set.Column)
		if cols[i] < 0 {
			return nil, fmt.Errorf("sqldb: table %s has no column %s", st.Table, set.Column)
		}
	}
	// pos lists the matched rows; vals holds their new values, one per SET
	// in declaration order, row after row.
	var pos []int
	var vals []Value
	for p := 0; p < t.nrows; p++ {
		bt.bind(p)
		if st.Where != nil {
			ok, err := ec.evalBool(st.Where, fr)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		for j, set := range st.Sets {
			v, err := ec.eval(set.Value, fr)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, t.Columns[cols[j]].Type)
			if err != nil {
				return nil, err
			}
			vals = append(vals, cv)
		}
		pos = append(pos, p)
	}
	// Phase 2 (write): shared with the columnar path.
	t.updateRows(db, cols, pos, vals)
	return &Result{Affected: len(pos)}, nil
}

// execDeleteLocked is the DELETE core; db.mu must be held exclusively.
func (db *DB) execDeleteLocked(st *DeleteStmt, params *Params, plan *stmtPlan) (*Result, error) {
	t := db.tables[strings.ToLower(st.Table)]
	if t == nil {
		return nil, fmt.Errorf("sqldb: no table %s", st.Table)
	}
	// Columnar path: see vecdml.go.
	if plan.dml != nil && db.vecOn.Load() {
		return db.vecExecDeleteLocked(params, plan, t)
	}
	ec := &execCtx{db: db, params: params, plan: plan}
	// Phase 1 (read): decide which rows survive without the write lock held.
	bt := &boundTable{binding: strings.ToLower(st.Table), table: t}
	fr := &frame{tables: []*boundTable{bt}}
	keep := make([]bool, t.nrows)
	n := 0
	for p := range keep {
		bt.bind(p)
		del := true
		if st.Where != nil {
			ok, err := ec.evalBool(st.Where, fr)
			if err != nil {
				return nil, err
			}
			del = ok
		}
		if del {
			n++
		} else {
			keep[p] = true
		}
	}
	// Phase 2 (write): shared with the columnar path.
	t.deleteRows(db, keep, n)
	return &Result{Affected: n}, nil
}

// ---------------------------------------------------------------------------
// SELECT execution
// ---------------------------------------------------------------------------

// boundTable is one table bound into the current query scope.
type boundTable struct {
	binding string // lower-cased alias or table name
	table   *Table
	// at is the position of the current row plus one, so that the zero
	// value binds no row: its columns read as NULL.
	at int
}

// bind makes the row at position pos the current row.
func (bt *boundTable) bind(pos int) { bt.at = pos + 1 }

// value reads a column of the current row, NULL when no row is bound.
func (bt *boundTable) value(col int) Value {
	if bt.at == 0 {
		return Null
	}
	return bt.table.cols[col].value(bt.at - 1)
}

// frame is a lexical scope of bound tables; parent scopes make correlated
// subqueries work.
type frame struct {
	parent *frame
	tables []*boundTable
}

// resolve finds the bound table and column position for a column reference.
func (fr *frame) resolve(ref *EColumn) (*boundTable, int, error) {
	lqual, lname := ref.keys()
	for scope := fr; scope != nil; scope = scope.parent {
		var foundBT *boundTable
		foundCol := -1
		for _, bt := range scope.tables {
			if lqual != "" && bt.binding != lqual {
				continue
			}
			col, ok := bt.table.colIdx[lname]
			if !ok {
				continue
			}
			if foundBT != nil {
				return nil, 0, fmt.Errorf("sqldb: ambiguous column %s", ref.Name)
			}
			foundBT, foundCol = bt, col
		}
		if foundBT != nil {
			return foundBT, foundCol, nil
		}
	}
	if ref.Qual != "" {
		return nil, 0, fmt.Errorf("sqldb: unknown column %s.%s", ref.Qual, ref.Name)
	}
	return nil, 0, fmt.Errorf("sqldb: unknown column %s", ref.Name)
}

// tuple is one joined row: the boundTable.at of each bound table, in binding
// order (0 binds no row).
type tuple []int

// execCtx carries the execution state of one statement.
type execCtx struct {
	db     *DB
	params *Params
	// plan is the immutable prepared plan of the statement: resolved tables,
	// access paths, join strategies, and the subquery analyses. Shared across
	// concurrent executions, never written.
	plan *stmtPlan
	// group is non-nil while evaluating expressions of a grouped query; it
	// holds the tuples of the current group.
	group *groupCtx
	// subCache holds the results of subqueries that are invariant for the
	// whole statement (no free columns; parameters only), keyed by the plan's
	// canonical text of the subquery, so textually identical subqueries share
	// one slot. The ASL property compiler emits the same
	// parameter-correlated subquery many times, so this cache is the
	// difference between linear and multiplicative cost.
	subCache map[string]Value
	// aggPre, when non-nil, maps aggregate call nodes to precomputed values:
	// the vectorized engine accumulates aggregates batch-at-a-time and then
	// evaluates the grouped projection/HAVING scalar parts through the row
	// evaluator with the aggregates already folded (see vecexec.go).
	aggPre map[*ECall]Value
	// aggLast is the last row of the group aggPre belongs to (empty for an
	// empty group): reading a prefolded aggregate binds it, as evaluating
	// the aggregate over the group's rows does (evalAggregate).
	aggLast tuple
}

// memoSub memoizes the value of an invariant subquery for this execution.
// Only values get here: a failed evaluation is not cached.
func (ec *execCtx) memoSub(key string, v Value) {
	if ec.subCache == nil {
		ec.subCache = make(map[string]Value)
	}
	ec.subCache[key] = v
}

// freeInfo summarizes what an expression may read from outside itself: outer
// bindings and statement parameters.
type freeInfo struct {
	// unqual is set when the expression contains an unqualified column (or
	// a star), which could resolve to any binding.
	unqual bool
	// quals holds the lower-cased table qualifiers referenced.
	quals []string
	// params holds every parameter marker the expression reads, nested
	// subqueries included (a marker may appear more than once).
	params []*EParam
}

func collectFree(e Expr, shadow map[string]bool, fi *freeInfo, seen map[string]bool) {
	switch x := e.(type) {
	case nil, *ELit:
	case *EParam:
		fi.params = append(fi.params, x)
	case *EColumn:
		lq, _ := x.keys()
		if lq == "" {
			fi.unqual = true
			return
		}
		if !shadow[lq] && !seen[lq] {
			seen[lq] = true
			fi.quals = append(fi.quals, lq)
		}
	case *EBinary:
		collectFree(x.L, shadow, fi, seen)
		collectFree(x.R, shadow, fi, seen)
	case *EUnary:
		collectFree(x.X, shadow, fi, seen)
	case *ECall:
		for _, a := range x.Args {
			collectFree(a, shadow, fi, seen)
		}
	case *EIsNull:
		collectFree(x.X, shadow, fi, seen)
	case *ESubquery:
		collectFreeSelect(x.Select, shadow, fi, seen)
	case *EExists:
		collectFreeSelect(x.Select, shadow, fi, seen)
	case *EIn:
		collectFree(x.X, shadow, fi, seen)
		if x.Sub != nil {
			collectFreeSelect(x.Sub, shadow, fi, seen)
		}
		for _, a := range x.List {
			collectFree(a, shadow, fi, seen)
		}
	default:
		fi.unqual = true // unknown node: be conservative
	}
}

func collectFreeSelect(st *SelectStmt, shadow map[string]bool, fi *freeInfo, seen map[string]bool) {
	inner := make(map[string]bool, len(shadow)+1+len(st.Joins))
	for k := range shadow {
		inner[k] = true
	}
	if st.From != nil {
		inner[strings.ToLower(st.From.Binding())] = true
	}
	for _, j := range st.Joins {
		inner[strings.ToLower(j.Table.Binding())] = true
	}
	for _, item := range st.Items {
		if item.Star {
			continue // expands only the subquery's own tables
		}
		collectFree(item.Expr, inner, fi, seen)
	}
	for _, j := range st.Joins {
		collectFree(j.On, inner, fi, seen)
	}
	collectFree(st.Where, inner, fi, seen)
	collectFree(st.Having, inner, fi, seen)
	collectFree(st.Limit, inner, fi, seen)
	for _, g := range st.GroupBy {
		collectFree(g, inner, fi, seen)
	}
	for _, o := range st.OrderBy {
		collectFree(o.Expr, inner, fi, seen)
	}
}

// invariant reports whether e cannot observe any binding of the frame
// chain, making its value constant for the whole statement execution.
func (ec *execCtx) invariant(e Expr, fr *frame) bool {
	fi := ec.plan.free[e]
	if fi.unqual && fr != nil {
		for scope := fr; scope != nil; scope = scope.parent {
			if len(scope.tables) > 0 {
				return false
			}
		}
	}
	for _, q := range fi.quals {
		for scope := fr; scope != nil; scope = scope.parent {
			for _, bt := range scope.tables {
				if bt.binding == q {
					return false
				}
			}
		}
	}
	return true
}

type groupCtx struct {
	fr     *frame
	tuples []tuple
}

// vecPlanFor returns the select's plan when the vectorized engine will run
// it: compiled, and the engine selected. Callers on scalar-position paths use
// it to skip ResultSet materialization (vecExecScalar et al.).
func (ec *execCtx) vecPlanFor(st *SelectStmt) *selectPlan {
	if !ec.db.vecOn.Load() {
		return nil
	}
	if sp := ec.plan.selects[st]; sp.vec != nil {
		return sp
	}
	return nil
}

func (ec *execCtx) execSelect(st *SelectStmt, parent *frame) (*ResultSet, error) {
	// sp is the precomputed strategy of this SELECT node.
	sp := ec.plan.selects[st]
	// Engine dispatch: a SELECT with a compiled vectorized form runs
	// batch-at-a-time when the vectorized engine is selected; shapes the
	// compiler refused stay on the row interpreter below.
	if ec.db.vecOn.Load() {
		if sp.vec != nil {
			ec.db.vecSelects.Add(1)
			return ec.vecExecSelect(st, sp, parent)
		}
		ec.db.countFallback(sp.vecReason)
	}
	fr := &frame{parent: parent}
	var tuples []tuple

	if st.From == nil {
		tuples = []tuple{{}}
	} else {
		bt := &boundTable{binding: sp.fromBinding, table: sp.from}
		fr.tables = append(fr.tables, bt)
		// Seed tuples from the first table, using an index if the WHERE
		// clause pins an indexed column of this table to a constant.
		seeds := ec.seedRows(sp, fr, bt)
		at := make([]int, len(seeds)) // one backing array for all seed tuples
		tuples = make([]tuple, len(seeds))
		for i, pos := range seeds {
			at[i] = pos + 1
			tuples[i] = at[i : i+1 : i+1]
		}
		for i := range sp.joins {
			jp := &sp.joins[i]
			jbt := &boundTable{binding: jp.binding, table: jp.table}
			fr.tables = append(fr.tables, jbt)
			joined, err := ec.join(fr, tuples, jbt, jp)
			if err != nil {
				return nil, err
			}
			tuples = joined
		}
	}

	// WHERE filter.
	if st.Where != nil {
		kept := tuples[:0]
		for _, tp := range tuples {
			setTuple(fr, tp)
			ok, err := ec.evalBool(st.Where, fr)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, tp)
			}
		}
		tuples = kept
	}

	// aliases maps select alias -> output column; read-only, shared across
	// concurrent executions.
	grouped, aliases := sp.grouped, sp.aliases

	set := &ResultSet{}
	{
		tables := make([]*Table, len(fr.tables))
		for i, bt := range fr.tables {
			tables[i] = bt.table
		}
		set.Columns = selectColumns(st, tables)
	}

	project := func(tp tuple) (Row, error) {
		setTuple(fr, tp)
		var out Row
		for _, item := range st.Items {
			if item.Star {
				for _, bt := range fr.tables {
					for col := range bt.table.cols {
						out = append(out, bt.value(col))
					}
				}
				continue
			}
			v, err := ec.eval(item.Expr, fr)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}

	var rows []sortableRow

	orderKeys := func(tp tuple, out Row) ([]Value, error) {
		if len(st.OrderBy) == 0 {
			return nil, nil
		}
		setTuple(fr, tp)
		keys := make([]Value, len(st.OrderBy))
		for i, item := range st.OrderBy {
			// ORDER BY may name a select alias or a 1-based column ordinal.
			if col, ok := item.Expr.(*EColumn); ok && col.Qual == "" {
				if idx, ok := aliases[strings.ToLower(col.Name)]; ok {
					keys[i] = out[idx]
					continue
				}
			}
			if lit, ok := item.Expr.(*ELit); ok && lit.Value.IsInt() {
				n := int(lit.Value.Int())
				if n >= 1 && n <= len(out) {
					keys[i] = out[n-1]
					continue
				}
			}
			v, err := ec.eval(item.Expr, fr)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		return keys, nil
	}

	if grouped {
		groups, order, err := ec.groupTuples(st, fr, tuples)
		if err != nil {
			return nil, err
		}
		for _, key := range order {
			g := groups[key]
			saved := ec.group
			ec.group = &groupCtx{fr: fr, tuples: g}
			rep := tuple(nil)
			if len(g) > 0 {
				rep = g[0]
			} else {
				rep = make(tuple, len(fr.tables))
			}
			if st.Having != nil {
				setTuple(fr, rep)
				ok, err := ec.evalBool(st.Having, fr)
				if err != nil {
					ec.group = saved
					return nil, err
				}
				if !ok {
					ec.group = saved
					continue
				}
			}
			out, err := project(rep)
			if err != nil {
				ec.group = saved
				return nil, err
			}
			keys, err := orderKeys(rep, out)
			if err != nil {
				ec.group = saved
				return nil, err
			}
			rows = append(rows, sortableRow{row: out, keys: keys})
			ec.group = saved
		}
	} else {
		for _, tp := range tuples {
			out, err := project(tp)
			if err != nil {
				return nil, err
			}
			keys, err := orderKeys(tp, out)
			if err != nil {
				return nil, err
			}
			rows = append(rows, sortableRow{row: out, keys: keys})
		}
	}

	if err := sortRows(rows, st.OrderBy); err != nil {
		return nil, err
	}

	if st.Limit != nil {
		lv, err := ec.eval(st.Limit, fr)
		if err != nil {
			return nil, err
		}
		if !lv.IsNumeric() {
			return nil, fmt.Errorf("sqldb: LIMIT is not numeric")
		}
		n := int(lv.Float())
		if n < 0 {
			n = 0
		}
		if n < len(rows) {
			rows = rows[:n]
		}
	}

	set.Rows = make([]Row, len(rows))
	for i := range rows {
		set.Rows[i] = rows[i].row
	}
	return set, nil
}

// groupTuples partitions tuples by the GROUP BY keys. Without GROUP BY all
// tuples form one group (which exists even when empty). Returns the groups
// and the deterministic iteration order of their keys.
func (ec *execCtx) groupTuples(st *SelectStmt, fr *frame, tuples []tuple) (map[string][]tuple, []string, error) {
	groups := make(map[string][]tuple)
	var order []string
	if len(st.GroupBy) == 0 {
		groups[""] = tuples
		return groups, []string{""}, nil
	}
	for _, tp := range tuples {
		setTuple(fr, tp)
		var key strings.Builder
		for _, e := range st.GroupBy {
			v, err := ec.eval(e, fr)
			if err != nil {
				return nil, nil, err
			}
			key.WriteString(v.Key())
			key.WriteByte(0)
		}
		k := key.String()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], tp)
	}
	return groups, order, nil
}

func setTuple(fr *frame, tp tuple) {
	for i, bt := range fr.tables {
		if i < len(tp) {
			bt.at = tp[i]
		} else {
			bt.at = 0
		}
	}
}

// seedRows returns the positions of the candidate rows of the first table:
// 0..nrows-1 for a full scan, or a hash index's positions when the WHERE
// clause contains a top-level "col = expr" conjunct on an indexed column of
// this table whose right-hand side is independent of the scanned table
// (literals, parameters, outer-scope correlations, and uncorrelated
// subqueries all qualify). This turns the nested dereference
// subqueries emitted by the ASL property compiler from full scans into O(1)
// point lookups. The candidate conjuncts were matched at prepare time;
// whether a column is indexed is still checked here so lazily built join
// indexes are picked up.
func (ec *execCtx) seedRows(sp *selectPlan, fr *frame, bt *boundTable) []int {
	for _, ap := range sp.access {
		idx := bt.table.index(ap.col)
		if idx == nil {
			continue
		}
		v, err := ec.eval(ap.val, fr)
		if err != nil {
			continue // not evaluable up front; fall back to a scan
		}
		return idx.get(v)
	}
	all := make([]int, bt.table.nrows)
	for i := range all {
		all[i] = i
	}
	return all
}

// conjuncts flattens a top-level AND tree.
func conjuncts(e Expr) []Expr { return appendConjuncts(nil, e) }

func appendConjuncts(dst []Expr, e Expr) []Expr {
	if bin, ok := e.(*EBinary); ok && bin.Op == OpAnd {
		return appendConjuncts(appendConjuncts(dst, bin.L), bin.R)
	}
	return append(dst, e)
}

// matchColConst matches "bt.col = expr" (either orientation) where expr does
// not reference the scanned table; returns (-1, nil) if no match.
func matchColConst(bin *EBinary, bt *boundTable) (int, Expr) {
	try := func(colE, constE Expr) (int, Expr) {
		col, ok := colE.(*EColumn)
		if !ok {
			return -1, nil
		}
		if col.Qual != "" && strings.ToLower(col.Qual) != bt.binding {
			return -1, nil
		}
		pos := bt.table.ColumnIndex(col.Name)
		if pos < 0 || exprRefsBinding(constE, bt.binding) {
			return -1, nil
		}
		return pos, constE
	}
	if col, c := try(bin.L, bin.R); col >= 0 {
		return col, c
	}
	return try(bin.R, bin.L)
}

// exprRefsBinding reports whether the expression might reference columns of
// the table bound under the given (lower-cased) name. Unqualified columns
// are treated as possible references. Subqueries are analyzed recursively;
// a subquery that rebinds the same name shadows the outer table, so its
// interior cannot reference it.
func exprRefsBinding(e Expr, binding string) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *ELit, *EParam:
		return false
	case *EColumn:
		return x.Qual == "" || strings.ToLower(x.Qual) == binding
	case *EBinary:
		return exprRefsBinding(x.L, binding) || exprRefsBinding(x.R, binding)
	case *EUnary:
		return exprRefsBinding(x.X, binding)
	case *ECall:
		for _, a := range x.Args {
			if exprRefsBinding(a, binding) {
				return true
			}
		}
		return false
	case *EIsNull:
		return exprRefsBinding(x.X, binding)
	case *ESubquery:
		return selectRefsBinding(x.Select, binding)
	case *EExists:
		return selectRefsBinding(x.Select, binding)
	case *EIn:
		if exprRefsBinding(x.X, binding) {
			return true
		}
		if x.Sub != nil && selectRefsBinding(x.Sub, binding) {
			return true
		}
		for _, a := range x.List {
			if exprRefsBinding(a, binding) {
				return true
			}
		}
		return false
	}
	return true // unknown node: be conservative
}

func selectRefsBinding(st *SelectStmt, binding string) bool {
	// If the subquery rebinds the name, outer references are shadowed.
	if st.From != nil && strings.ToLower(st.From.Binding()) == binding {
		return false
	}
	for _, j := range st.Joins {
		if strings.ToLower(j.Table.Binding()) == binding {
			return false
		}
	}
	for _, item := range st.Items {
		if item.Star {
			return true // star could expand the outer binding's columns
		}
		if exprRefsBinding(item.Expr, binding) {
			return true
		}
	}
	for _, j := range st.Joins {
		if exprRefsBinding(j.On, binding) {
			return true
		}
	}
	if exprRefsBinding(st.Where, binding) || exprRefsBinding(st.Having, binding) || exprRefsBinding(st.Limit, binding) {
		return true
	}
	for _, g := range st.GroupBy {
		if exprRefsBinding(g, binding) {
			return true
		}
	}
	for _, o := range st.OrderBy {
		if exprRefsBinding(o.Expr, binding) {
			return true
		}
	}
	return false
}

// join extends each tuple with matching rows of the newly bound table,
// using a hash join for equi-join conditions and a nested loop otherwise. The
// strategy (equi-join column, residual conjuncts) was chosen at prepare time.
func (ec *execCtx) join(fr *frame, tuples []tuple, jbt *boundTable, jp *joinPlan) ([]tuple, error) {
	eqCol, outerExpr, rest := jp.eqCol, jp.outer, jp.rest

	var out []tuple
	if eqCol >= 0 {
		jbt.table.createIndex(eqCol)
		idx := jbt.table.index(eqCol)
		for _, tp := range tuples {
			setTuple(fr, tp)
			jbt.at = 0
			key, err := ec.eval(outerExpr, fr)
			if err != nil {
				return nil, err
			}
			if key.IsNull() {
				continue
			}
			for _, pos := range idx.get(key) {
				ok, err := ec.checkConjuncts(rest, fr, tp, jbt, pos)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, append(append(tuple{}, tp...), pos+1))
				}
			}
		}
		return out, nil
	}

	// Nested-loop fallback: eqCol < 0 here, so rest holds every conjunct.
	for _, tp := range tuples {
		for pos := 0; pos < jbt.table.nrows; pos++ {
			ok, err := ec.checkConjuncts(rest, fr, tp, jbt, pos)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, append(append(tuple{}, tp...), pos+1))
			}
		}
	}
	return out, nil
}

func (ec *execCtx) checkConjuncts(conds []Expr, fr *frame, tp tuple, jbt *boundTable, pos int) (bool, error) {
	setTuple(fr, tp)
	jbt.bind(pos)
	for _, c := range conds {
		ok, err := ec.evalBool(c, fr)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// joinStrategy chooses how to execute one JOIN: it scans the ON conjuncts
// for a "jbt.col = outerExpr" condition usable as a hash join. eqCol is -1
// when none exists; rest holds the conjuncts still checked per candidate row
// (all of them in the nested-loop case). Called by the planner.
func joinStrategy(on Expr, jbt *boundTable) (eqCol int, outer Expr, rest []Expr) {
	eqCol = -1
	for _, conj := range conjuncts(on) {
		if eqCol < 0 {
			if bin, ok := conj.(*EBinary); ok && bin.Op == OpEq {
				if col, other := matchJoinCol(bin, jbt); col >= 0 {
					eqCol, outer = col, other
					continue
				}
			}
		}
		rest = append(rest, conj)
	}
	return eqCol, outer, rest
}

// selectShape derives the projection shape of a SELECT over its bound
// tables: whether the query is grouped, and the alias → output-column map
// used by ORDER BY. Called by the planner.
func selectShape(st *SelectStmt, tables []*Table) (grouped bool, aliases map[string]int) {
	grouped = len(st.GroupBy) > 0 || st.Having != nil
	aliases = map[string]int{}
	col := 0
	for _, item := range st.Items {
		if item.Star {
			for _, t := range tables {
				col += len(t.Columns)
			}
			continue
		}
		if !grouped && hasAggregate(item.Expr) {
			grouped = true
		}
		if item.Alias != "" {
			aliases[strings.ToLower(item.Alias)] = col
		}
		col++
	}
	return grouped, aliases
}

// selectColumns derives the output column names of a SELECT over its bound
// tables. Shared by both engines so result shapes match exactly.
func selectColumns(st *SelectStmt, tables []*Table) []string {
	var cols []string
	for _, item := range st.Items {
		if item.Star {
			for _, t := range tables {
				for _, c := range t.Columns {
					cols = append(cols, c.Name)
				}
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if col, ok := item.Expr.(*EColumn); ok {
				name = col.Name
			} else {
				name = fmt.Sprintf("col%d", len(cols)+1)
			}
		}
		cols = append(cols, name)
	}
	return cols
}

// sortableRow pairs an output row with its precomputed ORDER BY keys.
type sortableRow struct {
	row  Row
	keys []Value
}

// sortRows stable-sorts output rows on their ORDER BY keys, NULLs last
// regardless of direction unless a key asks for NULLS FIRST. Shared by both
// engines so tie-breaking and incomparable-type errors match exactly.
func sortRows(rows []sortableRow, order []OrderItem) error {
	if len(order) == 0 {
		return nil
	}
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for k, item := range order {
			a, b := rows[i].keys[k], rows[j].keys[k]
			// NULLs sort last regardless of direction, first on NULLS FIRST.
			if a.IsNull() || b.IsNull() {
				if a.IsNull() && b.IsNull() {
					continue
				}
				if item.NullsFirst {
					return a.IsNull()
				}
				return b.IsNull()
			}
			cmp, err := Compare(a, b)
			if err != nil {
				sortErr = err
				return false
			}
			if cmp == 0 {
				continue
			}
			if item.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return sortErr
}

// matchJoinCol matches "jbt.col = expr" where expr does not reference jbt.
func matchJoinCol(bin *EBinary, jbt *boundTable) (int, Expr) {
	try := func(colE, otherE Expr) (int, Expr) {
		col, ok := colE.(*EColumn)
		if !ok {
			return -1, nil
		}
		if strings.ToLower(col.Qual) != jbt.binding {
			return -1, nil
		}
		pos := jbt.table.ColumnIndex(col.Name)
		if pos < 0 || exprRefsBinding(otherE, jbt.binding) {
			return -1, nil
		}
		return pos, otherE
	}
	if col, other := try(bin.L, bin.R); col >= 0 {
		return col, other
	}
	return try(bin.R, bin.L)
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

// evalBool evaluates a predicate under three-valued logic; NULL counts as
// false for filtering.
func (ec *execCtx) evalBool(e Expr, fr *frame) (bool, error) {
	v, err := ec.eval(e, fr)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if !v.IsBool() {
		return false, fmt.Errorf("sqldb: predicate evaluated to %s, want boolean", v)
	}
	return v.Bool(), nil
}

func (ec *execCtx) eval(e Expr, fr *frame) (Value, error) {
	switch x := e.(type) {
	case *ELit:
		return x.Value, nil
	case *EParam:
		if v, ok := ec.params.lookup(x); ok {
			return v, nil
		}
		switch {
		case ec.params == nil:
			return Null, fmt.Errorf("sqldb: statement has parameters but none were supplied")
		case x.Name != "":
			return Null, fmt.Errorf("sqldb: missing named parameter $%s", x.Name)
		}
		return Null, fmt.Errorf("sqldb: missing positional parameter %d", x.Ordinal+1)
	case *EColumn:
		bt, col, err := fr.resolve(x)
		if err != nil {
			return Null, err
		}
		return bt.value(col), nil
	case *EUnary:
		v, err := ec.eval(x.X, fr)
		if err != nil {
			return Null, err
		}
		return applyUnary(x.Neg, v)
	case *EBinary:
		return ec.evalBinary(x, fr)
	case *ECall:
		return ec.evalCall(x, fr)
	case *EIsNull:
		v, err := ec.eval(x.X, fr)
		if err != nil {
			return Null, err
		}
		return NewBool(v.IsNull() != x.Not), nil
	case *ESubquery:
		cacheable := ec.invariant(x, fr)
		var key string
		if cacheable {
			key = ec.plan.keys[x]
			if v, ok := ec.subCache[key]; ok {
				return v, nil
			}
		}
		var v Value
		if sp := ec.vecPlanFor(x.Select); sp != nil {
			ec.db.vecSelects.Add(1)
			if n := len(sp.vec.columns); n != 1 {
				return Null, fmt.Errorf("sqldb: scalar subquery returns %d columns", n)
			}
			sv, err := ec.vecExecScalar(x.Select, sp, fr)
			if err != nil {
				return Null, err
			}
			v = sv
		} else {
			set, err := ec.execSelect(x.Select, fr)
			if err != nil {
				return Null, err
			}
			if len(set.Columns) != 1 {
				return Null, fmt.Errorf("sqldb: scalar subquery returns %d columns", len(set.Columns))
			}
			switch len(set.Rows) {
			case 0:
				v = Null
			case 1:
				v = set.Rows[0][0]
			default:
				return Null, fmt.Errorf("sqldb: scalar subquery returned %d rows", len(set.Rows))
			}
		}
		if cacheable {
			ec.memoSub(key, v)
		}
		return v, nil
	case *EExists:
		cacheable := ec.invariant(x, fr)
		var key string
		if cacheable {
			key = ec.plan.keys[x]
			if v, ok := ec.subCache[key]; ok {
				return v, nil
			}
		}
		var v Value
		if sp := ec.vecPlanFor(x.Select); sp != nil {
			ec.db.vecSelects.Add(1)
			ev, err := ec.vecExecExists(x.Select, sp, fr)
			if err != nil {
				return Null, err
			}
			v = ev
		} else {
			set, err := ec.execSelect(x.Select, fr)
			if err != nil {
				return Null, err
			}
			v = NewBool(len(set.Rows) > 0)
		}
		if cacheable {
			ec.memoSub(key, v)
		}
		return v, nil
	case *EIn:
		return ec.evalIn(x, fr)
	}
	return Null, fmt.Errorf("sqldb: unhandled expression %T", e)
}

func (ec *execCtx) evalIn(x *EIn, fr *frame) (Value, error) {
	lv, err := ec.eval(x.X, fr)
	if err != nil {
		return Null, err
	}
	var candidates []Value
	if x.Sub != nil {
		set, err := ec.execSelect(x.Sub, fr)
		if err != nil {
			return Null, err
		}
		if len(set.Columns) != 1 {
			return Null, fmt.Errorf("sqldb: IN subquery returns %d columns", len(set.Columns))
		}
		for _, r := range set.Rows {
			candidates = append(candidates, r[0])
		}
	} else {
		for _, e := range x.List {
			v, err := ec.eval(e, fr)
			if err != nil {
				return Null, err
			}
			candidates = append(candidates, v)
		}
	}
	return applyInList(lv, candidates, x.Not)
}

func (ec *execCtx) evalBinary(x *EBinary, fr *frame) (Value, error) {
	if x.Op == OpAnd || x.Op == OpOr {
		lv, err := ec.eval(x.L, fr)
		if err != nil {
			return Null, err
		}
		// Kleene three-valued logic with short-circuiting.
		if decided, v := logicalShortCircuit(x.Op, lv); decided {
			return v, nil
		}
		rv, err := ec.eval(x.R, fr)
		if err != nil {
			return Null, err
		}
		return combineAndOr(x.Op, lv, rv)
	}

	lv, err := ec.eval(x.L, fr)
	if err != nil {
		return Null, err
	}
	rv, err := ec.eval(x.R, fr)
	if err != nil {
		return Null, err
	}
	return applyBinary(x.Op, lv, rv)
}

// logicalShortCircuit reports whether the left operand alone decides an
// AND/OR, and the decided value. Shared by both engines so they skip the
// right operand (and any error it would raise) for exactly the same rows.
func logicalShortCircuit(op BinOp, lv Value) (bool, Value) {
	if !lv.IsNull() && lv.IsBool() {
		if op == OpAnd && !lv.Bool() {
			return true, NewBool(false)
		}
		if op == OpOr && lv.Bool() {
			return true, NewBool(true)
		}
	}
	return false, Null
}

// combineAndOr applies three-valued AND/OR to two evaluated operands.
func combineAndOr(op BinOp, lv, rv Value) (Value, error) {
	lb, lok := boolOrNull(lv)
	rb, rok := boolOrNull(rv)
	if (lv.IsNull() || lok) && (rv.IsNull() || rok) {
		switch op {
		case OpAnd:
			if lok && rok {
				return NewBool(lb && rb), nil
			}
			if (lok && !lb) || (rok && !rb) {
				return NewBool(false), nil
			}
			return Null, nil
		case OpOr:
			if lok && rok {
				return NewBool(lb || rb), nil
			}
			if (lok && lb) || (rok && rb) {
				return NewBool(true), nil
			}
			return Null, nil
		}
	}
	return Null, fmt.Errorf("sqldb: %s on non-boolean operands", op)
}

// applyBinary applies a non-logical binary operator to two evaluated
// operands, including the NULL propagation. Both engines evaluate binary
// expressions through this single kernel, so semantics — and error texts —
// cannot drift between them.
func applyBinary(op BinOp, lv, rv Value) (Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return Null, nil
	}
	switch op {
	case OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq:
		cmp, err := Compare(lv, rv)
		if err != nil {
			return Null, err
		}
		var b bool
		switch op {
		case OpEq:
			b = cmp == 0
		case OpNeq:
			b = cmp != 0
		case OpLt:
			b = cmp < 0
		case OpLeq:
			b = cmp <= 0
		case OpGt:
			b = cmp > 0
		case OpGeq:
			b = cmp >= 0
		}
		return NewBool(b), nil
	case OpConcat:
		if !lv.IsText() || !rv.IsText() {
			return Null, fmt.Errorf("sqldb: || on %s and %s", lv, rv)
		}
		return NewText(lv.Text() + rv.Text()), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		if !lv.IsNumeric() || !rv.IsNumeric() {
			return Null, fmt.Errorf("sqldb: %s on %s and %s", op, lv, rv)
		}
		if op == OpMod {
			if !lv.IsInt() || !rv.IsInt() {
				return Null, fmt.Errorf("sqldb: %% on non-integers")
			}
			if rv.Int() == 0 {
				return Null, fmt.Errorf("sqldb: modulo by zero")
			}
			return NewInt(lv.Int() % rv.Int()), nil
		}
		if op == OpDiv {
			if rv.Float() == 0 {
				return Null, fmt.Errorf("sqldb: division by zero")
			}
			return NewFloat(lv.Float() / rv.Float()), nil
		}
		if lv.IsInt() && rv.IsInt() {
			switch op {
			case OpAdd:
				return NewInt(lv.Int() + rv.Int()), nil
			case OpSub:
				return NewInt(lv.Int() - rv.Int()), nil
			case OpMul:
				return NewInt(lv.Int() * rv.Int()), nil
			}
		}
		var f float64
		switch op {
		case OpAdd:
			f = lv.Float() + rv.Float()
		case OpSub:
			f = lv.Float() - rv.Float()
		case OpMul:
			f = lv.Float() * rv.Float()
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Null, fmt.Errorf("sqldb: arithmetic overflow")
		}
		return NewFloat(f), nil
	}
	return Null, fmt.Errorf("sqldb: unhandled operator %s", op)
}

func boolOrNull(v Value) (bool, bool) {
	if v.IsBool() {
		return v.Bool(), true
	}
	return false, false
}

// applyUnary applies unary minus (neg) or NOT to an evaluated operand.
// Shared by both engines.
func applyUnary(neg bool, v Value) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	if neg {
		switch {
		case v.IsInt():
			return NewInt(-v.Int()), nil
		case v.IsNumeric():
			return NewFloat(-v.Float()), nil
		}
		return Null, fmt.Errorf("sqldb: unary - on %s", v)
	}
	if !v.IsBool() {
		return Null, fmt.Errorf("sqldb: NOT on %s", v)
	}
	return NewBool(!v.Bool()), nil
}

// applyInList applies IN/NOT IN membership to an evaluated needle and an
// evaluated candidate list, with SQL NULL semantics. Shared by both engines.
func applyInList(lv Value, candidates []Value, not bool) (Value, error) {
	if lv.IsNull() {
		return Null, nil
	}
	sawNull := false
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		cmp, err := Compare(lv, c)
		if err != nil {
			continue // incomparable values never match
		}
		if cmp == 0 {
			return NewBool(!not), nil
		}
	}
	if sawNull {
		return Null, nil
	}
	return NewBool(not), nil
}

func (ec *execCtx) evalCall(x *ECall, fr *frame) (Value, error) {
	if x.IsAggregate() {
		if ec.aggPre != nil {
			if v, ok := ec.aggPre[x]; ok {
				if !x.Star {
					setTuple(fr, ec.aggLast)
				}
				return v, nil
			}
		}
		return ec.evalAggregate(x, fr)
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ec.eval(a, fr)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	return applyScalarFunc(x.Name, args)
}

// applyScalarFunc applies a scalar SQL function to evaluated arguments.
// Shared by both engines, so function semantics and error texts match.
func applyScalarFunc(rawName string, args []Value) (Value, error) {
	name := strings.ToUpper(rawName)
	switch name {
	case "ABS":
		if len(args) != 1 {
			return Null, fmt.Errorf("sqldb: ABS takes 1 argument")
		}
		v := args[0]
		if v.IsNull() {
			return Null, nil
		}
		if v.IsInt() {
			if v.Int() < 0 {
				return NewInt(-v.Int()), nil
			}
			return v, nil
		}
		if v.IsNumeric() {
			return NewFloat(math.Abs(v.Float())), nil
		}
		return Null, fmt.Errorf("sqldb: ABS on %s", v)
	case "SQRT":
		if len(args) != 1 {
			return Null, fmt.Errorf("sqldb: SQRT takes 1 argument")
		}
		v := args[0]
		if v.IsNull() {
			return Null, nil
		}
		if !v.IsNumeric() || v.Float() < 0 {
			return Null, fmt.Errorf("sqldb: SQRT on %s", v)
		}
		return NewFloat(math.Sqrt(v.Float())), nil
	case "COALESCE":
		for _, v := range args {
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null, nil
	case "NULLIF":
		if len(args) != 2 {
			return Null, fmt.Errorf("sqldb: NULLIF takes 2 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return args[0], nil
		}
		if cmp, err := Compare(args[0], args[1]); err == nil && cmp == 0 {
			return Null, nil
		}
		return args[0], nil
	case "LENGTH":
		if len(args) != 1 {
			return Null, fmt.Errorf("sqldb: LENGTH takes 1 argument")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		if !args[0].IsText() {
			return Null, fmt.Errorf("sqldb: LENGTH on %s", args[0])
		}
		return NewInt(int64(len(args[0].Text()))), nil
	case "UPPER", "LOWER":
		if len(args) != 1 {
			return Null, fmt.Errorf("sqldb: %s takes 1 argument", name)
		}
		if args[0].IsNull() {
			return Null, nil
		}
		if !args[0].IsText() {
			return Null, fmt.Errorf("sqldb: %s on %s", name, args[0])
		}
		if name == "UPPER" {
			return NewText(strings.ToUpper(args[0].Text())), nil
		}
		return NewText(strings.ToLower(args[0].Text())), nil
	}
	return Null, fmt.Errorf("sqldb: unknown function %s", rawName)
}

func (ec *execCtx) evalAggregate(x *ECall, fr *frame) (Value, error) {
	if ec.group == nil {
		return Null, fmt.Errorf("sqldb: aggregate %s outside grouped query", x.Name)
	}
	g := ec.group
	// Disable aggregate context while evaluating the argument per tuple so
	// that nested aggregates are rejected.
	ec.group = nil
	defer func() { ec.group = g }()

	name := strings.ToUpper(x.Name)
	if x.Star {
		if name != "COUNT" {
			return Null, fmt.Errorf("sqldb: %s(*) is not valid", x.Name)
		}
		return NewInt(int64(len(g.tuples))), nil
	}
	if len(x.Args) != 1 {
		return Null, fmt.Errorf("sqldb: aggregate %s takes 1 argument", x.Name)
	}

	acc := newAggAcc()
	for _, tp := range g.tuples {
		setTuple(g.fr, tp)
		v, err := ec.eval(x.Args[0], g.fr)
		if err != nil {
			return Null, err
		}
		if err := acc.add(name, v); err != nil {
			return Null, err
		}
	}
	return acc.final(name, x.Name)
}

// aggAcc accumulates one aggregate over non-NULL inputs. Both engines feed
// values through add in storage (row) order, so float summation — and with it
// SUM/AVG results — is bit-identical across them.
type aggAcc struct {
	count  int64
	sum    float64
	allInt bool
	best   Value
}

func newAggAcc() aggAcc { return aggAcc{allInt: true} }

// add folds one input value into the accumulator for the (upper-cased)
// aggregate name. NULL inputs are skipped, per SQL.
func (a *aggAcc) add(name string, v Value) error {
	if v.IsNull() {
		return nil
	}
	a.count++
	switch name {
	case "SUM", "AVG":
		if !v.IsNumeric() {
			return fmt.Errorf("sqldb: %s over non-numeric %s", name, v)
		}
		if !v.IsInt() {
			a.allInt = false
		}
		a.sum += v.Float()
	case "MIN", "MAX":
		if a.best.IsNull() {
			a.best = v
			return nil
		}
		cmp, err := Compare(v, a.best)
		if err != nil {
			return err
		}
		if (name == "MIN" && cmp < 0) || (name == "MAX" && cmp > 0) {
			a.best = v
		}
	}
	return nil
}

// final produces the aggregate result. name is upper-cased; rawName is the
// source spelling, used in error texts.
func (a *aggAcc) final(name, rawName string) (Value, error) {
	switch name {
	case "COUNT":
		return NewInt(a.count), nil
	case "SUM":
		if a.count == 0 {
			return Null, nil
		}
		if a.allInt {
			return NewInt(int64(a.sum)), nil
		}
		return NewFloat(a.sum), nil
	case "AVG":
		if a.count == 0 {
			return Null, nil
		}
		return NewFloat(a.sum / float64(a.count)), nil
	case "MIN", "MAX":
		return a.best, nil
	}
	return Null, fmt.Errorf("sqldb: unhandled aggregate %s", rawName)
}
