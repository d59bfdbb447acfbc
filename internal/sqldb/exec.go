package sqldb

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
	s, err := db.cachedStmt(query)
	if err != nil {
		return nil, err
	}
	return s.execute(params)
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
	// A multi-row INSERT that fails at a row leaves the rows before it
	// inserted, and its error names the row. The data version moves once
	// whenever anything landed — error or not.
	defer func() {
		if n > 0 {
			db.bumpData(t)
		}
	}()
	for _, exprs := range st.Rows {
		if err := insertRow(ec, t, colPos, exprs); err != nil {
			if len(st.Rows) > 1 {
				err = fmt.Errorf("sqldb: INSERT INTO %s row %d of %d: %w", st.Table, n+1, len(st.Rows), err)
			}
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

// insertRow evaluates one VALUES row and appends it to t, colPos mapping the
// row's values to table columns.
func insertRow(ec *execCtx, t *Table, colPos []int, exprs []Expr) error {
	if len(exprs) != len(colPos) {
		return fmt.Errorf("sqldb: INSERT has %d values for %d columns", len(exprs), len(colPos))
	}
	row := make(Row, len(t.Columns))
	for i, e := range exprs {
		v, err := ec.eval(e, nil)
		if err != nil {
			return err
		}
		row[colPos[i]] = v
	}
	return t.insert(row)
}

// execUpdateLocked is the UPDATE core; db.mu must be held exclusively.
func (db *DB) execUpdateLocked(st *UpdateStmt, params *Params, plan *stmtPlan) (*Result, error) {
	t := db.tables[strings.ToLower(st.Table)]
	if t == nil {
		return nil, fmt.Errorf("sqldb: no table %s", st.Table)
	}
	// Columnar path: a compiled DML plan evaluates WHERE/SET batch-at-a-time
	// over the column vectors (vecdml.go); a replay runs the row path below.
	if plan.dml != nil && db.vecOn.Load() {
		if res, err := db.vecExecUpdateLocked(params, plan, t); !db.replayed(err) {
			return res, err
		}
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
		if res, err := db.vecExecDeleteLocked(params, plan, t); !db.replayed(err) {
			return res, err
		}
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
	// whole statement (they read no SELECT around them, selectPlan.outer;
	// parameters and data only), indexed by the
	// shape id the parser gave the subquery, so subqueries with identical
	// source text share one slot (ESubquery.Shape). The ASL property
	// compiler emits the same parameter-correlated subquery many times, so
	// this cache is the difference between linear and multiplicative cost.
	subCache []subMemo
	// aggPre, when non-nil, maps aggregate call nodes to precomputed values:
	// the vectorized engine accumulates aggregates batch-at-a-time and then
	// evaluates the grouped projection/HAVING scalar parts through the row
	// evaluator with the aggregates already folded (see vecexec.go).
	aggPre map[*ECall]Value
	// aggLast is the last row of the group aggPre belongs to (empty for an
	// empty group): reading a prefolded aggregate binds it, as evaluating
	// the aggregate over the group's rows does (evalAggregate).
	aggLast tuple
	// builds is the build table of the analysis the statement runs in
	// (ShareBuilds), nil outside one.
	builds *buildTable
}

// subMemo is one slot of execCtx.subCache; ok marks it filled.
type subMemo struct {
	v  Value
	ok bool
}

// memoSub memoizes the value of an invariant subquery for this execution.
// Only values get here: a failed evaluation is not cached.
func (ec *execCtx) memoSub(shape int, v Value) {
	if ec.subCache == nil {
		ec.subCache = make([]subMemo, ec.plan.shapes)
	}
	ec.subCache[shape] = subMemo{v: v, ok: true}
}

type groupCtx struct {
	fr     *frame
	tuples []tuple
}

// vecPlanFor returns the plan of a SELECT node the vectorized engine runs, or
// nil when the row interpreter runs it: the row engine is selected, or the
// compiler refused the node's shape, which counts as a fallback.
func (ec *execCtx) vecPlanFor(st *SelectStmt) *selectPlan {
	if !ec.db.vecOn.Load() {
		return nil
	}
	sp := ec.plan.selects[st]
	if sp.vec == nil {
		ec.db.countFallback(sp.vecReason)
		return nil
	}
	return sp
}

// replayed reports whether a vectorized execution returned errReplay, and
// counts a "subquery" fallback when it did: the caller then runs the
// statement or SELECT node whole on the row interpreter.
func (db *DB) replayed(err error) bool {
	if !errors.Is(err, errReplay) {
		return false
	}
	db.countFallback(fbSubquery)
	return true
}

// vecReplay is replayed for a SELECT node, which counts in VecSelects when
// its vectorized execution stands.
func (db *DB) vecReplay(err error) bool {
	if db.replayed(err) {
		return true
	}
	db.vecSelects.Add(1)
	return false
}

// execSelect runs one SELECT node: batch-at-a-time when the vectorized
// engine runs it (vecPlanFor), on the row interpreter otherwise and on a
// replay.
func (ec *execCtx) execSelect(st *SelectStmt, parent *frame) (*ResultSet, error) {
	if sp := ec.vecPlanFor(st); sp != nil {
		if set, err := ec.vecExecSelect(st, sp, parent); !ec.db.vecReplay(err) {
			return set, err
		}
	}
	return ec.rowSelect(st, parent)
}

// evalSub evaluates a scalar subquery, or an EXISTS, of the given shape over
// SELECT st: from the per-execution cache when st reads no SELECT around it
// (selectPlan.outer), else by running st — vectorized without materializing
// a ResultSet when the vectorized engine runs it (vecPlanFor), on the row
// interpreter otherwise and on a replay.
func (ec *execCtx) evalSub(shape int, st *SelectStmt, exists bool, fr *frame) (Value, error) {
	cacheable := len(ec.plan.selects[st].outer.tabs) == 0
	if cacheable && ec.subCache != nil && ec.subCache[shape].ok {
		return ec.subCache[shape].v, nil
	}
	var v Value
	var err error
	replay := true
	if sp := ec.vecPlanFor(st); sp != nil {
		v, err = ec.vecExecSub(st, sp, exists, fr)
		replay = ec.db.vecReplay(err)
	}
	if replay {
		var set *ResultSet
		if set, err = ec.rowSelect(st, fr); err == nil {
			v, err = subValue(exists, len(set.Columns), len(set.Rows), func(i int) Value { return set.Rows[i][0] })
		}
	}
	if err != nil {
		return Null, err
	}
	if cacheable {
		ec.memoSub(shape, v)
	}
	return v, nil
}

// subValue is the value of a SELECT with ncols columns and nrows rows, the
// first cell of row i at(i), in EXISTS position — whether it has rows — or
// in scalar-subquery position: one column, and 0 rows give NULL, one row its
// value, more the cardinality error.
func subValue(exists bool, ncols, nrows int, at func(int) Value) (Value, error) {
	switch {
	case exists:
		return NewBool(nrows > 0), nil
	case ncols != 1:
		return Null, fmt.Errorf("sqldb: scalar subquery returns %d columns", ncols)
	case nrows == 0:
		return Null, nil
	case nrows == 1:
		return at(0), nil
	}
	return Null, fmt.Errorf("sqldb: scalar subquery returned %d rows", nrows)
}

// rowSelect runs one SELECT node on the row interpreter.
func (ec *execCtx) rowSelect(st *SelectStmt, parent *frame) (*ResultSet, error) {
	// sp is the precomputed strategy of this SELECT node.
	sp := ec.plan.selects[st]
	fr := &frame{parent: parent, level: sp.level}
	var tuples []tuple

	if st.From == nil {
		tuples = []tuple{{}}
	} else {
		bt := &boundTable{binding: sp.fromBinding, table: sp.from}
		fr.tables = append(fr.tables, bt)
		// Seed tuples from the first table, through an index where the WHERE
		// clause pins one (ec.seed).
		seeds := ec.seed(sp, fr, nil)
		at := make([]int, len(seeds)) // one backing array for all seed tuples
		tuples = make([]tuple, len(seeds))
		for i, pos := range seeds {
			at[i] = int(pos) + 1
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

// seed appends the positions of the candidate rows of the first table to
// buf, ascending, and returns it. Both engines seed through it, so they visit
// the same rows. The candidates are a hash index's positions when the WHERE
// clause contains a top-level "col = expr" conjunct on an indexed column of
// this table whose right-hand side reads no table of the SELECT (literals,
// parameters, outer-scope correlations, and uncorrelated subqueries all
// qualify: matchColConst); else the rows the join access reaches; else every
// row. This turns the nested dereference subqueries emitted by the ASL
// property compiler from full scans into O(1) point lookups, and a SELECT
// pinned to one run into a read of that run's rows. Both seeds are one value
// through seedKeys, which a decorrelated build also seeds through with the
// values its probes carry (vecCtx.startBuild). The candidate conjuncts were
// matched at prepare time; whether a column is indexed is still checked here
// so lazily built join indexes are picked up.
func (ec *execCtx) seed(sp *selectPlan, fr *frame, buf []int32) []int32 {
	for _, ap := range sp.access {
		ka := keyAccess{join: -1, col: ap.col}
		ix := sp.keyIndex(ka)
		if ix == nil {
			continue
		}
		v, err := ec.eval(ap.val, fr)
		if err != nil {
			continue // not evaluable up front; fall back to a scan
		}
		return sp.seedKeys(ka, ix, []Value{v}, buf)
	}
	if v, ok := ec.pinValue(sp, fr); ok {
		if ix := sp.keyIndex(sp.pin.keyAccess); ix != nil {
			return sp.seedKeys(sp.pin.keyAccess, ix, []Value{v}, buf)
		}
	}
	return appendRows(buf, sp.from.nrows) // stable: DML runs under the exclusive statement lock
}

// pinValue evaluates the join access's value for one execution. ok is false,
// for the scan to serve, when the SELECT has no join access, the value fails
// to evaluate, or it is not exact for the pinned column (pinExact). A NULL
// value is ok: it holds on no row and seeds nothing.
func (ec *execCtx) pinValue(sp *selectPlan, fr *frame) (Value, bool) {
	if sp.pin.val == nil {
		return Null, false
	}
	v, err := ec.eval(sp.pin.val, fr)
	if err != nil {
		return Null, false
	}
	return v, v.IsNull() || pinExact(v, sp.colType(sp.pin.keyAccess))
}

// seedKeys appends to buf the positions of the first table's rows that ka
// reaches from vals, looked up by index Key in ix, ka's index (keyIndex):
// the rows whose column holds one of them or, through a joined table J,
// whose join column holds the key of a J row that does. Positions come out
// ascending and each once, so rows — and float sums over them — arrive as
// the scan delivers them. On F's own column a NULL value reaches the NULL
// cells, as the row engine's access path does; through J it reaches
// nothing, since the equality it stands for holds on no row.
func (sp *selectPlan) seedKeys(ka keyAccess, ix *hashIndex, vals []Value, buf []int32) []int32 {
	n := len(buf)
	if ka.join < 0 {
		for _, v := range vals {
			buf = append(buf, ix.get(v)...)
		}
		if len(vals) == 1 {
			return buf // one index entry: ascending already
		}
	} else {
		jp := &sp.joins[ka.join]
		keys, fx := jp.table.cols[jp.eqCol], sp.from.index(ka.fromCol)
		for _, v := range vals {
			if v.IsNull() {
				continue
			}
			for _, p := range ix.get(v) {
				if k := keys.value(int(p)); !k.IsNull() {
					buf = append(buf, fx.get(k)...)
				}
			}
		}
	}
	slices.Sort(buf[n:])
	return buf[:n+len(slices.Compact(buf[n:]))]
}

// keyIndex is the index ka looks values up in — F's, or J's — nil, for the
// scan to serve, when it or, through J, F's join index is missing.
func (sp *selectPlan) keyIndex(ka keyAccess) *hashIndex {
	_, tab := sp.table(ka.join + 1)
	ix := tab.index(ka.col)
	if ix == nil || ka.join >= 0 && sp.from.index(ka.fromCol) == nil {
		return nil
	}
	return ix
}

// keyHits is the number of entries of ix, ka's index, that seedKeys looks v
// up to: the rows of F, or of J, holding it — the measure a build picks its
// seed by.
func keyHits(ix *hashIndex, ka keyAccess, v Value) int {
	if ka.join >= 0 && v.IsNull() {
		return 0
	}
	return len(ix.get(v))
}

// appendRows appends the positions of every row of a table of n rows.
func appendRows(buf []int32, n int) []int32 {
	for i := 0; i < n; i++ {
		buf = append(buf, int32(i))
	}
	return buf
}

// conjuncts flattens a top-level AND tree.
func conjuncts(e Expr) []Expr { return appendConjuncts(nil, e) }

func appendConjuncts(dst []Expr, e Expr) []Expr {
	if bin, ok := e.(*EBinary); ok && bin.Op == OpAnd {
		return appendConjuncts(appendConjuncts(dst, bin.L), bin.R)
	}
	return append(dst, e)
}

// matchColConst matches "F.col = val" (either orientation), F the first
// table of the SELECT sp, where val reads no table of sp and binds every
// reference: the seed evaluates val with F alone bound (ec.seed), where a
// reference to a table joined later, or one that binds nothing, could
// resolve to an outer namesake. It returns (-1, nil) if no match.
func (p *stmtPlan) matchColConst(sp *selectPlan, bin *EBinary) (int, Expr) {
	try := func(colE, val Expr) (int, Expr) {
		col, ok := colE.(*EColumn)
		if !ok {
			return -1, nil
		}
		if ref, local := p.local(sp, col); local && ref.tab == 0 {
			if r := p.reads(val); !r.unbound && !r.at(sp.level) {
				return ref.col, val
			}
		}
		return -1, nil
	}
	if col, c := try(bin.L, bin.R); col >= 0 {
		return col, c
	}
	return try(bin.R, bin.L)
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
			for _, p := range idx.get(key) {
				pos := int(p)
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

// joinStrategy chooses how to execute join k of the SELECT sp: it scans the
// ON conjuncts for a "J.col = outerExpr" condition usable as a hash join, J
// the joined table. eqCol is -1 when none exists; rest holds the conjuncts
// still checked per candidate row (all of them in the nested-loop case).
// Called by the planner.
func (p *stmtPlan) joinStrategy(sp *selectPlan, on Expr, k int) (eqCol int, outer Expr, rest []Expr) {
	eqCol = -1
	for _, conj := range conjuncts(on) {
		if eqCol < 0 {
			if bin, ok := conj.(*EBinary); ok && bin.Op == OpEq {
				if col, other := p.matchJoinCol(sp, bin, k); col >= 0 {
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

// matchJoinCol matches "J.col = expr" (either orientation), J the table join
// k of the SELECT sp binds, where expr does not read J.
func (p *stmtPlan) matchJoinCol(sp *selectPlan, bin *EBinary, k int) (int, Expr) {
	try := func(colE, otherE Expr) (int, Expr) {
		col, ok := colE.(*EColumn)
		if !ok {
			return -1, nil
		}
		ref, local := p.local(sp, col)
		if !local || ref.tab != k+1 || slices.Contains(p.reads(otherE).tabs, tabRef{sp.level, k + 1}) {
			return -1, nil
		}
		return ref.col, otherE
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
		return ec.column(x, fr)
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
		return ec.evalSub(x.Shape, x.Select, false, fr)
	case *EExists:
		return ec.evalSub(x.Shape, x.Select, true, fr)
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

	// The argument is evaluated where the call is: an aggregate a subquery
	// holds and does not own folds over the tuples of the enclosing group,
	// whose frame lies around fr, and its references resolve from their own
	// scope outward, as the planner binds them.
	acc := newAggAcc()
	for _, tp := range g.tuples {
		setTuple(g.fr, tp)
		v, err := ec.eval(x.Args[0], fr)
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
