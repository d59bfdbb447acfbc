package sqldb

import (
	"container/list"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// The prepared-statement pipeline: parsing and planning are split from
// execution so that a statement which runs many times with only its
// parameters changing (the ASL property queries run once per property ×
// context instance) pays its front-end cost once. Every statement runs
// planned: Prepare and ad-hoc Exec both take their plan from the plan cache,
// which plans the statement on a miss, and there is no unplanned execution.
//
// A plan captures everything about a statement that does not depend on
// parameter values or row data: the parsed AST, the resolved tables, the
// chosen access paths and join strategies, and the free-column analysis of
// every subquery. Plans are immutable after construction, so one plan may be
// executed from many goroutines concurrently; per-execution state (current
// rows, the invariant subquery result cache) lives in the execCtx created per
// execution.
//
// Plans are invalidated by DDL: every CREATE TABLE, DROP TABLE, and CREATE
// INDEX bumps the database's schema version under the exclusive statement
// lock. An execution takes the statement lock first, then finds its plan
// stale and rebuilds it under that lock, where no DDL can move the schema
// again (see execBatch). A handle whose table was dropped fails cleanly at
// that point.

// DefaultPlanCacheSize is the capacity of the per-DB plan cache that backs
// Exec and Prepare.
const DefaultPlanCacheSize = 128

// stmtPlan is one immutable execution plan.
type stmtPlan struct {
	stmt    Stmt
	version int64 // schema version the plan was built against
	// free memoizes the free-column analysis of subquery nodes, read-only
	// after planning; shapes bounds their shape ids (ESubquery.Shape).
	free   map[Expr]*freeInfo
	shapes int
	// selects holds the per-SELECT plans, keyed by AST node (the statement
	// tree may nest SELECTs in subqueries and IN clauses).
	selects map[*SelectStmt]*selectPlan
	// markers lists the parameter markers a SELECT reads, subqueries included,
	// each once, in the order the statement text first mentions them: what
	// its result-cache key fingerprints (see cacheKeyFor).
	markers []EParam
	// dml is the compiled columnar UPDATE/DELETE pipeline, nil when the
	// statement is not DML or its shape is not vectorized (see vecdml.go).
	dml *vecDMLPlan
	// tables lists every table the plan references (FROM and JOIN clauses of
	// the statement and all its subqueries, deduplicated); the result cache
	// derives an entry's freshness from their data versions.
	tables []*Table
}

// addTable records a referenced table, deduplicating by identity.
func (p *stmtPlan) addTable(t *Table) {
	for _, have := range p.tables {
		if have == t {
			return
		}
	}
	p.tables = append(p.tables, t)
}

// accessPath is a candidate index lookup for the first table of a SELECT:
// a top-level "col = expr" conjunct whose right-hand side is independent of
// the scanned table. Where none applies, the join access may seed the table
// (joinAccess); else it is scanned (ec.seed).
type accessPath struct {
	col int
	val Expr
}

// keyAccess reaches rows of the first table F of a SELECT by values looked
// up in one indexed column: F's own (join < 0), or that of a joined table J
// whose join is the hash join "J.key = F.fromCol" — a semi-join reduction
// (seedKeys).
type keyAccess struct {
	join    int // J's ordinal in selectPlan.joins, -1 for F's own column
	col     int // the column the values are looked up in
	fromCol int // F's join column, when join >= 0
}

// joinAccess seeds F through a joined table J the WHERE pins: a top-level
// "J.col = val" conjunct, val a literal or parameter, reached as a keyAccess.
// The F rows whose fromCol holds a key one of J's pinned rows carries are a
// superset of the rows that survive the join and the pin (ec.seed). val is
// nil when the SELECT has no join access (planJoinAccess).
type joinAccess struct {
	keyAccess
	val Expr
}

// joinPlan is the precomputed strategy for one JOIN clause.
type joinPlan struct {
	table   *Table
	binding string
	// eqCol/outer describe the hash-join condition "table.col = outer"; eqCol
	// is -1 when no equi-join conjunct was found and the join nests loops.
	eqCol int
	outer Expr
	// rest holds the conjuncts checked per candidate row: the non-equi-join
	// residue for a hash join, or every conjunct when eqCol is -1 and the
	// nested-loop fallback runs.
	rest []Expr
}

// selectPlan is the precomputed execution strategy of one SELECT node: the
// logical plan (resolved tables, access paths, join strategies, shape) plus,
// when the node's shape is covered, the compiled physical operator pipeline
// of the vectorized engine.
type selectPlan struct {
	from        *Table // nil for table-less SELECT
	fromBinding string
	access      []accessPath
	joins       []joinPlan
	pin         joinAccess // consulted when no access path applies
	grouped     bool
	aliases     map[string]int // select alias -> output column (read-only)
	// vec is the compiled vectorized form, nil when the node falls back to
	// the row interpreter (see the criteria in vec.go). Compiled once per
	// plan, immutable, shared across concurrent executions. vecReason names
	// the refused shape when vec is nil (the fb* constants in vec.go).
	vec       *vecSelectPlan
	vecReason string
}

// PreparedStmt is a reusable handle for one statement. It is safe for
// concurrent use; executions bind fresh parameters each call. Every handle
// over one text shares the plan cache's sharedStmt, and with it the plan.
type PreparedStmt struct {
	*sharedStmt
	closed atomic.Bool
}

// sharedStmt is one statement text and its current plan: what the plan cache
// holds, and what every Prepare handle over the text and every ad-hoc Exec of
// it executes. Plans are immutable, so one serves all of them.
type sharedStmt struct {
	db  *DB
	sql string
	// id numbers the statement in the order the DB prepared it: the identity
	// its SELECT results are cached under (cacheKeyFor). A text the plan
	// cache evicted and prepares again gets a fresh id, orphaning the results
	// cached under the old one until the result cache's LRU drops them.
	id int64

	// mu serializes replanning. Lock order: DB.mu, then mu.
	mu   sync.Mutex
	plan atomic.Pointer[stmtPlan]
}

// Prepare returns a handle over the statement's plan, validating every
// referenced table: the plan cache's, parsed and planned on a miss.
func (db *DB) Prepare(sql string) (*PreparedStmt, error) {
	s, err := db.cachedStmt(sql)
	if err != nil {
		return nil, err
	}
	db.preparedLive.Add(1)
	return &PreparedStmt{sharedStmt: s}, nil
}

// prepare parses and plans a statement, holding the statement lock shared
// while it plans: the plan cache's miss path.
func (db *DB) prepare(sql string) (*sharedStmt, error) {
	stmt, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	plan, err := db.buildPlan(stmt)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	s := &sharedStmt{db: db, sql: sql, id: db.stmtIDs.Add(1)}
	s.plan.Store(plan)
	return s, nil
}

// Close releases the handle. Closing is idempotent; executing a closed
// handle fails.
func (ps *PreparedStmt) Close() error {
	if !ps.closed.Swap(true) {
		ps.db.preparedLive.Add(-1)
	}
	return nil
}

// errClosed is what executing a closed handle returns.
var errClosed = fmt.Errorf("sqldb: prepared statement is closed")

// Execute runs the prepared statement with fresh parameters (see
// sharedStmt.execute).
func (ps *PreparedStmt) Execute(params *Params) (*Result, error) {
	if ps.closed.Load() {
		return nil, errClosed
	}
	return ps.execute(params)
}

// execute runs the statement with fresh parameters: a batch of one binding
// (see execBatch), which counts in neither BatchExecs nor BatchBindings. DDL,
// which reads no plan, runs through execDDL.
func (s *sharedStmt) execute(params *Params) (*Result, error) {
	switch stmt := s.plan.Load().stmt.(type) {
	case *CreateTableStmt, *DropTableStmt, *CreateIndexStmt:
		return s.db.execDDL(stmt)
	}
	bindings := [1]*Params{params}
	var out [1]BatchResult
	if err := s.execBatch(context.Background(), bindings[:], out[:]); err != nil {
		return nil, err
	}
	return out[0].Res, out[0].Err
}

// replan rebuilds the plan after a schema change. The parsed AST is reused;
// only table resolution and the derived strategies are redone. The caller
// holds the statement lock, so the schema cannot move while the plan is built.
func (s *sharedStmt) replan() (*stmtPlan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	plan := s.plan.Load()
	if plan.version == s.db.ddl.Load() {
		return plan, nil // another execution replanned first
	}
	fresh, err := s.db.buildPlan(plan.stmt)
	if err != nil {
		return nil, err
	}
	s.db.replans.Add(1)
	s.plan.Store(fresh)
	return fresh, nil
}

// buildPlan computes the immutable plan of a parsed statement against the
// current schema. The caller holds the statement lock, at least shared.
func (db *DB) buildPlan(stmt Stmt) (*stmtPlan, error) {
	p := &stmtPlan{
		stmt:    stmt,
		version: db.ddl.Load(),
		free:    make(map[Expr]*freeInfo),
		selects: make(map[*SelectStmt]*selectPlan),
	}
	switch st := stmt.(type) {
	case *SelectStmt:
		if err := p.planSelect(db, st); err != nil {
			return nil, err
		}
		p.markers = SelectMarkers(st)
	case *InsertStmt:
		if db.tables[strings.ToLower(st.Table)] == nil {
			return nil, fmt.Errorf("sqldb: no table %s", st.Table)
		}
		for _, row := range st.Rows {
			for _, e := range row {
				if err := p.planExpr(db, e); err != nil {
					return nil, err
				}
			}
		}
	case *UpdateStmt:
		if db.tables[strings.ToLower(st.Table)] == nil {
			return nil, fmt.Errorf("sqldb: no table %s", st.Table)
		}
		for _, set := range st.Sets {
			if err := p.planExpr(db, set.Value); err != nil {
				return nil, err
			}
		}
		if err := p.planExpr(db, st.Where); err != nil {
			return nil, err
		}
	case *DeleteStmt:
		if db.tables[strings.ToLower(st.Table)] == nil {
			return nil, fmt.Errorf("sqldb: no table %s", st.Table)
		}
		if err := p.planExpr(db, st.Where); err != nil {
			return nil, err
		}
	case *CreateTableStmt, *DropTableStmt, *CreateIndexStmt:
		// DDL has nothing to precompute; Execute runs it through execDDL.
	}
	// Second pass: compile the physical operator pipeline of every SELECT
	// node the vectorized engine covers, and the columnar DML pipeline of
	// UPDATE/DELETE statements. This runs after the logical pass so the
	// free-column analyses of all subqueries are available.
	for st, sp := range p.selects {
		sp.vec, sp.vecReason = compileVecSelect(p, st, sp)
	}
	switch st := stmt.(type) {
	case *UpdateStmt:
		p.dml = compileVecDML(p, db.tables[strings.ToLower(st.Table)], st.Table, st.Where, st.Sets)
	case *DeleteStmt:
		p.dml = compileVecDML(p, db.tables[strings.ToLower(st.Table)], st.Table, st.Where, nil)
	}
	return p, nil
}

// SelectMarkers returns the distinct parameter markers of a SELECT in order
// of first appearance, nested subqueries included.
func SelectMarkers(st *SelectStmt) []EParam {
	fi := &freeInfo{}
	collectFreeSelect(st, nil, fi, make(map[string]bool))
	var markers []EParam
	for _, p := range fi.params {
		if !slices.Contains(markers, *p) {
			markers = append(markers, *p)
		}
	}
	return markers
}

// planSelect builds the strategy of one SELECT node and recurses into its
// nested subqueries. Called with db.mu read-held.
func (p *stmtPlan) planSelect(db *DB, st *SelectStmt) error {
	if _, done := p.selects[st]; done {
		return nil
	}
	sp := &selectPlan{}
	if st.From != nil {
		t := db.tables[strings.ToLower(st.From.Table)]
		if t == nil {
			return fmt.Errorf("sqldb: no table %s", st.From.Table)
		}
		sp.from = t
		sp.fromBinding = strings.ToLower(st.From.Binding())
		p.addTable(t)
		// Access paths: index-lookup candidates among the WHERE conjuncts,
		// then the join access. Whether the columns are actually indexed is
		// checked at execution, so plans stay valid when the join planner
		// builds indexes lazily.
		bt := &boundTable{binding: sp.fromBinding, table: t}
		var conds []Expr
		if st.Where != nil {
			conds = conjuncts(st.Where)
			for _, conj := range conds {
				if bin, ok := conj.(*EBinary); ok && bin.Op == OpEq {
					if col, val := matchColConst(bin, bt); col >= 0 {
						sp.access = append(sp.access, accessPath{col: col, val: val})
					}
				}
			}
		}
		for _, j := range st.Joins {
			jt := db.tables[strings.ToLower(j.Table.Table)]
			if jt == nil {
				return fmt.Errorf("sqldb: no table %s", j.Table.Table)
			}
			jp := joinPlan{table: jt, binding: strings.ToLower(j.Table.Binding())}
			p.addTable(jt)
			jbt := &boundTable{binding: jp.binding, table: jt}
			jp.eqCol, jp.outer, jp.rest = joinStrategy(j.On, jbt)
			sp.joins = append(sp.joins, jp)
		}
		if len(sp.joins) > 0 {
			sp.pin, _ = planJoinAccess(sp, conds)
		}
	}
	var tables []*Table
	if sp.from != nil {
		tables = append(tables, sp.from)
		for _, jp := range sp.joins {
			tables = append(tables, jp.table)
		}
	}
	sp.grouped, sp.aliases = selectShape(st, tables)
	p.selects[st] = sp

	for _, item := range st.Items {
		if !item.Star {
			if err := p.planExpr(db, item.Expr); err != nil {
				return err
			}
		}
	}
	for _, j := range st.Joins {
		if err := p.planExpr(db, j.On); err != nil {
			return err
		}
	}
	for _, e := range []Expr{st.Where, st.Having, st.Limit} {
		if err := p.planExpr(db, e); err != nil {
			return err
		}
	}
	for _, g := range st.GroupBy {
		if err := p.planExpr(db, g); err != nil {
			return err
		}
	}
	for _, o := range st.OrderBy {
		if err := p.planExpr(db, o.Expr); err != nil {
			return err
		}
	}
	return nil
}

// planJoinAccess finds the join access of a planned SELECT among conds, the
// top-level conjuncts of its WHERE — for a build side, of the synthesized
// WHERE, which holds no key conjunct — and reports whether the SELECT is
// quiet: a row a seed skips is one the scan would have joined and filtered
// without raising, because every join key is a column and every join residue
// and every conjunct but the pin is quiet. The pin value itself is checked
// per execution (pinExact). Quiet everywhere, not only ahead of the pin: a
// pin that evaluates to NULL — on a NULL cell — does not cut AND short, so
// the conjuncts after it still run on that row. Only a quiet SELECT has a
// join access.
func planJoinAccess(sp *selectPlan, conds []Expr) (pin joinAccess, quiet bool) {
	for k := range sp.joins {
		jp := &sp.joins[k]
		if jp.eqCol >= 0 {
			key, ok := jp.outer.(*EColumn)
			if !ok {
				return joinAccess{}, false
			}
			lqual, lname := key.keys()
			if _, _, n := sp.resolve(lqual, lname, k+2); n != 1 {
				return joinAccess{}, false
			}
		}
		for _, c := range jp.rest {
			if !sp.quiet(c, k+2) {
				return joinAccess{}, false
			}
		}
	}
	for _, c := range conds {
		if pin.val == nil {
			if pin = sp.matchPin(c); pin.val != nil {
				continue
			}
		}
		if !sp.quiet(c, 1+len(sp.joins)) {
			return joinAccess{}, false
		}
	}
	return pin, true
}

// matchPin matches a conjunct "J.col = val" (either orientation) on a joined
// table J reached by a key access (colAccess), with val a literal or
// parameter.
func (sp *selectPlan) matchPin(c Expr) joinAccess {
	eq, ok := c.(*EBinary)
	if !ok || eq.Op != OpEq {
		return joinAccess{}
	}
	col, isCol := eq.L.(*EColumn)
	val := eq.R
	if !isCol {
		col, isCol = eq.R.(*EColumn)
		val = eq.L
	}
	switch val.(type) {
	case *ELit, *EParam:
	default:
		return joinAccess{}
	}
	if !isCol {
		return joinAccess{}
	}
	if ka, ok := sp.colAccess(col); ok && ka.join >= 0 {
		return joinAccess{keyAccess: ka, val: val}
	}
	return joinAccess{}
}

// colAccess is the key access through the column c names: a column of F, or
// of a joined table J whose join is the hash join "J.key = F.fromCol" on
// columns, of a type pinExact can admit a value for.
func (sp *selectPlan) colAccess(c *EColumn) (keyAccess, bool) {
	lqual, lname := c.keys()
	t, pc, n := sp.resolve(lqual, lname, 1+len(sp.joins))
	if n != 1 {
		return keyAccess{}, false
	}
	if _, tab := sp.table(t); tab.Columns[pc].Type == TFloat {
		return keyAccess{}, false
	}
	if t == 0 {
		return keyAccess{join: -1, col: pc}, true
	}
	jp := &sp.joins[t-1]
	key, _ := jp.outer.(*EColumn)
	if jp.eqCol < 0 || key == nil {
		return keyAccess{}, false
	}
	lqual, lname = key.keys()
	if ft, fc, n := sp.resolve(lqual, lname, t+1); n == 1 && ft == 0 {
		return keyAccess{join: t - 1, col: pc, fromCol: fc}, true
	}
	return keyAccess{}, false
}

// colType is the declared type of the column ka looks values up in.
func (sp *selectPlan) colType(ka keyAccess) ColType {
	_, tab := sp.table(ka.join + 1)
	return tab.Columns[ka.col].Type
}

// pinExact reports whether a non-NULL pin value v compares with every
// non-NULL cell of a column of type typ without raising, and equals exactly
// the cells whose index Key is v's: v has the column's own kind, and an
// INTEGER lies strictly within ±2^53 — Compare goes through float64, which
// merges neighbours beyond, and a cell past 2^53 can round onto 2^53 itself.
func pinExact(v Value, typ ColType) bool {
	switch typ {
	case TInt:
		return v.kind == kindInt && v.i > -exactInt && v.i < exactInt
	case TBool:
		return v.kind == kindBool
	case TText:
		return v.kind == kindText
	}
	return false
}

// quiet reports whether the predicate e, evaluated over the first n tables of
// the SELECT, yields TRUE, FALSE or NULL on every row without raising:
// comparisons of columns and literals that Compare orders against each other,
// combined by AND, OR and NOT, and IS [NOT] NULL tests of them.
func (sp *selectPlan) quiet(e Expr, n int) bool {
	switch x := e.(type) {
	case *EBinary:
		switch x.Op {
		case OpAnd, OpOr:
			return sp.quiet(x.L, n) && sp.quiet(x.R, n)
		case OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq:
			l, r := sp.class(x.L, n), sp.class(x.R, n)
			return l != classNone && r != classNone && (l == r || l == classNull || r == classNull)
		}
	case *EUnary:
		return !x.Neg && sp.quiet(x.X, n)
	case *EIsNull:
		return sp.class(x.X, n) != classNone
	case *ELit, *EColumn:
		c := sp.class(e, n)
		return c == classBool || c == classNull
	}
	return false
}

// Comparison classes of a column or literal operand (selectPlan.class):
// Compare orders two non-NULL values without raising when their classes are
// equal.
const (
	classNone = iota // not a column of the scope or a literal
	classNull
	classNum
	classText
	classBool
)

// class is the comparison class of a literal, or of a column resolving among
// the first n tables of the SELECT by its declared type — storage coerces
// every cell to it.
func (sp *selectPlan) class(e Expr, n int) int {
	switch x := e.(type) {
	case *ELit:
		switch x.Value.kind {
		case kindNull:
			return classNull
		case kindInt, kindFloat:
			return classNum
		case kindText:
			return classText
		case kindBool:
			return classBool
		}
	case *EColumn:
		lqual, lname := x.keys()
		t, c, matches := sp.resolve(lqual, lname, n)
		if matches != 1 {
			return classNone
		}
		_, tab := sp.table(t)
		switch tab.Columns[c].Type {
		case TInt, TFloat:
			return classNum
		case TText:
			return classText
		case TBool:
			return classBool
		}
	}
	return classNone
}

// table returns the binding and table of the SELECT's t-th bound table: the
// FROM table at 0, joins[t-1] after it.
func (sp *selectPlan) table(t int) (string, *Table) {
	if t == 0 {
		return sp.fromBinding, sp.from
	}
	jp := &sp.joins[t-1]
	return jp.binding, jp.table
}

// resolve finds a column reference among the first n bound tables of the
// SELECT as frame.resolve does within one scope — qualifier filter plus
// column membership: matches counts the tables holding it, t and col locate
// the last one.
func (sp *selectPlan) resolve(lqual, lname string, n int) (t, col, matches int) {
	for i := 0; i < n; i++ {
		bind, tab := sp.table(i)
		if lqual != "" && bind != lqual {
			continue
		}
		if c, has := tab.colIdx[lname]; has {
			t, col, matches = i, c, matches+1
		}
	}
	return t, col, matches
}

// planExpr walks an expression, planning nested SELECTs and precomputing the
// free-column analysis of every subquery node.
func (p *stmtPlan) planExpr(db *DB, e Expr) error {
	switch x := e.(type) {
	case nil, *ELit, *EParam, *EColumn:
	case *EBinary:
		if err := p.planExpr(db, x.L); err != nil {
			return err
		}
		return p.planExpr(db, x.R)
	case *EUnary:
		return p.planExpr(db, x.X)
	case *ECall:
		for _, a := range x.Args {
			if err := p.planExpr(db, a); err != nil {
				return err
			}
		}
	case *EIsNull:
		return p.planExpr(db, x.X)
	case *ESubquery:
		p.analyzeSub(x, x.Shape)
		return p.planSelect(db, x.Select)
	case *EExists:
		p.analyzeSub(x, x.Shape)
		return p.planSelect(db, x.Select)
	case *EIn:
		if err := p.planExpr(db, x.X); err != nil {
			return err
		}
		for _, a := range x.List {
			if err := p.planExpr(db, a); err != nil {
				return err
			}
		}
		if x.Sub != nil {
			return p.planSelect(db, x.Sub)
		}
	}
	return nil
}

// analyzeSub precomputes what the executor would otherwise derive per
// execution: the free-column summary of a subquery node, which decides
// invariant-subquery caching, and the room its shape id takes.
func (p *stmtPlan) analyzeSub(e Expr, shape int) {
	if _, done := p.free[e]; done {
		return
	}
	fi := &freeInfo{}
	collectFree(e, nil, fi, make(map[string]bool))
	p.free[e] = fi
	p.shapes = max(p.shapes, shape+1)
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

// planCacheEntry is one LRU slot.
type planCacheEntry struct {
	sql string
	s   *sharedStmt
}

// cachedStmt returns the shared statement for the SQL text, preparing and
// caching it on a miss. A statement that fails to parse or plan returns the
// error, and is not counted as a miss.
func (db *DB) cachedStmt(sql string) (*sharedStmt, error) {
	db.planMu.Lock()
	if el, ok := db.planIdx[sql]; ok {
		db.planLRU.MoveToFront(el)
		s := el.Value.(*planCacheEntry).s
		db.planHits.Add(1)
		db.planMu.Unlock()
		return s, nil
	}
	db.planMu.Unlock()

	// Parse and plan outside the cache lock; concurrent misses on the same
	// text may both prepare, and the first insert wins the slot (later ones
	// adopt it and discard their own work).
	s, err := db.prepare(sql)
	if err != nil {
		return nil, err
	}
	db.planMisses.Add(1)
	db.planMu.Lock()
	defer db.planMu.Unlock()
	if el, ok := db.planIdx[sql]; ok {
		return el.Value.(*planCacheEntry).s, nil
	}
	if s.plan.Load().version != db.ddl.Load() {
		// DDL (and clearPlanCache) ran while we were planning: don't insert
		// the stale plan, or its resolved tables could pin dropped storage
		// in the cache indefinitely. The statement itself still executes
		// (its execution replans).
		return s, nil
	}
	db.planIdx[sql] = db.planLRU.PushFront(&planCacheEntry{sql: sql, s: s})
	for db.planLRU.Len() > db.planCap {
		last := db.planLRU.Back()
		entry := last.Value.(*planCacheEntry)
		db.planLRU.Remove(last)
		delete(db.planIdx, entry.sql)
		// Handles over the evicted statement, and Execs that fetched it just
		// before the eviction, keep their reference and go on executing it;
		// dropping the cache's is the whole cleanup.
		db.planEvicts.Add(1)
	}
	return s, nil
}

// clearPlanCache drops every cached plan. Called on DDL: stale plans would
// replan lazily anyway, but their resolved *Table pointers would otherwise
// pin a dropped table's row storage until eviction. DDL is rare, replanning
// is cheap, and reclaiming the storage matters more than the warm cache.
func (db *DB) clearPlanCache() {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	db.planLRU.Init()
	clear(db.planIdx)
}

// Stats is a snapshot of the engine's counters, and their only declaration:
// the wire carries the struct whole (wire.ServerStats embeds it), the driver
// sums it across shards through Counters, and its JSON is the "backend"
// section of cosyd's /metrics. A counter added here and to Counters reaches
// all of them; nothing else spells the fields out.
type Stats struct {
	// PlanCacheHits / Misses / Evictions count Exec and Prepare traffic
	// through the LRU plan cache; PlanCacheEntries is the current cache
	// population.
	PlanCacheHits      int64 `json:"plan_cache_hits"`
	PlanCacheMisses    int64 `json:"plan_cache_misses"`
	PlanCacheEvictions int64 `json:"plan_cache_evictions"`
	PlanCacheEntries   int64 `json:"plan_cache_entries"`
	// PreparedLive counts Prepare handles not yet closed.
	PreparedLive int64 `json:"prepared_live"`
	// Replans counts plans rebuilt after DDL invalidated them.
	Replans int64 `json:"replans"`
	// BatchExecs counts ExecuteBatch calls; BatchBindings the parameter sets
	// they carried (bindings/execs is the achieved amortization factor).
	BatchExecs    int64 `json:"batch_execs"`
	BatchBindings int64 `json:"batch_bindings"`
	// ResultCacheHits / Misses count SELECT executions answered from (or
	// stored into) the result cache; ResultCacheInvalidations counts entries
	// found stale at lookup because a referenced table's data version moved
	// (every invalidation is also counted as a miss); ResultCacheEvictions
	// counts LRU capacity evictions. ResultCacheEntries is the current cache
	// population (see resultcache.go).
	ResultCacheHits          int64 `json:"result_cache_hits"`
	ResultCacheMisses        int64 `json:"result_cache_misses"`
	ResultCacheInvalidations int64 `json:"result_cache_invalidations"`
	ResultCacheEvictions     int64 `json:"result_cache_evictions"`
	ResultCacheEntries       int64 `json:"result_cache_entries"`
	// VecSelects counts planned SELECT nodes executed on the vectorized
	// operators; VecFallbacks counts planned SELECT nodes that ran on the row
	// interpreter because their shape is not vectorized (see vec.go).
	// VecFallbackReasons breaks the fallback count down by refused shape.
	VecSelects         int64           `json:"vec_selects"`
	VecFallbacks       int64           `json:"vec_fallbacks"`
	VecFallbackReasons FallbackReasons `json:"vec_fallback_reasons"`
	// BuildRows counts the rows the build sides of decorrelated subqueries
	// visit after their seed: every row of a scanned FROM table, or only
	// those the pinned run or the probed keys reach (vecCtx.startBuild).
	BuildRows int64 `json:"build_rows"`
}

// FallbackReasons is the per-shape breakdown of Stats.VecFallbacks (the fb*
// refusal reasons in vec.go).
type FallbackReasons struct {
	JoinShape int64 `json:"join_shape"` // equi-join outer key reads the joined table
	Star      int64 `json:"star"`       // grouped SELECT *
	OrderExpr int64 `json:"order_expr"` // ORDER BY expression key outside the compiled forms
	Subquery  int64 `json:"subquery"`   // correlated subquery outside the mirrored scopes
	Other     int64 `json:"other"`
}

// Counters lists every counter of the snapshot, in declaration order. It is
// the one field list: the order the wire encodes them in and the fields a
// sum over shards adds up (populations and live handles sum to the
// deployment's total, like the cumulative counts).
func (s *Stats) Counters() []*int64 {
	r := &s.VecFallbackReasons
	return []*int64{
		&s.PlanCacheHits, &s.PlanCacheMisses, &s.PlanCacheEvictions, &s.PlanCacheEntries,
		&s.PreparedLive, &s.Replans, &s.BatchExecs, &s.BatchBindings,
		&s.ResultCacheHits, &s.ResultCacheMisses, &s.ResultCacheInvalidations,
		&s.ResultCacheEvictions, &s.ResultCacheEntries,
		&s.VecSelects, &s.VecFallbacks,
		&r.JoinShape, &r.Star, &r.OrderExpr, &r.Subquery, &r.Other,
		&s.BuildRows,
	}
}

// Stats returns the engine's current counters.
func (db *DB) Stats() Stats {
	db.planMu.Lock()
	entries := 0
	if db.planLRU != nil {
		entries = db.planLRU.Len()
	}
	db.planMu.Unlock()
	db.resMu.Lock()
	resEntries := 0
	if db.resLRU != nil {
		resEntries = db.resLRU.Len()
	}
	db.resMu.Unlock()
	return Stats{
		PlanCacheHits:      db.planHits.Load(),
		PlanCacheMisses:    db.planMisses.Load(),
		PlanCacheEvictions: db.planEvicts.Load(),
		PlanCacheEntries:   int64(entries),
		PreparedLive:       db.preparedLive.Load(),
		Replans:            db.replans.Load(),
		BatchExecs:         db.batchExecs.Load(),
		BatchBindings:      db.batchBindings.Load(),

		ResultCacheHits:          db.resHits.Load(),
		ResultCacheMisses:        db.resMisses.Load(),
		ResultCacheInvalidations: db.resInvalid.Load(),
		ResultCacheEvictions:     db.resEvicts.Load(),
		ResultCacheEntries:       int64(resEntries),

		VecSelects:   db.vecSelects.Load(),
		VecFallbacks: db.vecFallbacks.Load(),
		VecFallbackReasons: FallbackReasons{
			JoinShape: db.vecFbJoin.Load(),
			Star:      db.vecFbStar.Load(),
			OrderExpr: db.vecFbOrder.Load(),
			Subquery:  db.vecFbSub.Load(),
			Other:     db.vecFbOther.Load(),
		},
		BuildRows: db.buildRows.Load(),
	}
}

// initPlanCache sets up the cache containers; called from NewDB.
func (db *DB) initPlanCache() {
	db.planCap = DefaultPlanCacheSize
	db.planLRU = list.New()
	db.planIdx = make(map[string]*list.Element)
}

// planFields groups the DB's prepared-statement state; embedded in DB.
type planFields struct {
	ddl     atomic.Int64 // schema version, bumped by DDL
	stmtIDs atomic.Int64 // sharedStmt.id source

	planMu  sync.Mutex
	planCap int
	planLRU *list.List
	planIdx map[string]*list.Element

	planHits      atomic.Int64
	planMisses    atomic.Int64
	planEvicts    atomic.Int64
	preparedLive  atomic.Int64
	replans       atomic.Int64
	batchExecs    atomic.Int64
	batchBindings atomic.Int64
}
