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
// binding of every column reference (scope.go), and the chosen access paths
// and join strategies. A replan after DDL rebinds every reference. Plans are
// immutable after construction, so one plan may be executed from many
// goroutines concurrently; per-execution state (current rows, the invariant
// subquery result cache) lives in the execCtx created per execution.
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
	// cols binds every column reference of the statement (scope.go); shapes
	// bounds the shape ids of its subqueries (ESubquery.Shape).
	cols   map[*EColumn]colRef
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
	// level is the SELECT's nesting depth: 0 for the statement's outermost
	// scope. outer is what it reads of the SELECTs around it, subqueries
	// included: a SELECT that reads none of them has one value per statement
	// execution (execCtx.subCache).
	level       int
	outer       reads
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
		cols:    make(map[*EColumn]colRef),
		selects: make(map[*SelectStmt]*selectPlan),
	}
	pl := &planner{db: db, p: p}
	// An UPDATE or DELETE binds its WHERE and SET expressions in the scope of
	// its one table, as the row interpreter's frame holds it.
	var dml *selectPlan
	switch st := stmt.(type) {
	case *SelectStmt:
		if err := pl.planSelect(st); err != nil {
			return nil, err
		}
		p.markers = SelectMarkers(st)
	case *InsertStmt:
		if db.tables[strings.ToLower(st.Table)] == nil {
			return nil, fmt.Errorf("sqldb: no table %s", st.Table)
		}
		for _, row := range st.Rows {
			for _, e := range row {
				if err := pl.planExpr(e); err != nil {
					return nil, err
				}
			}
		}
	case *UpdateStmt:
		if dml = db.dmlScope(st.Table); dml == nil {
			return nil, fmt.Errorf("sqldb: no table %s", st.Table)
		}
		pl.scopes = []scope{{sp: dml, width: 1}}
		for _, set := range st.Sets {
			if err := pl.planExpr(set.Value); err != nil {
				return nil, err
			}
		}
		if err := pl.planExpr(st.Where); err != nil {
			return nil, err
		}
	case *DeleteStmt:
		if dml = db.dmlScope(st.Table); dml == nil {
			return nil, fmt.Errorf("sqldb: no table %s", st.Table)
		}
		pl.scopes = []scope{{sp: dml, width: 1}}
		if err := pl.planExpr(st.Where); err != nil {
			return nil, err
		}
	case *CreateTableStmt, *DropTableStmt, *CreateIndexStmt:
		// DDL has nothing to precompute; Execute runs it through execDDL.
	}
	// Second pass: compile the physical operator pipeline of every SELECT
	// node the vectorized engine covers, and the columnar DML pipeline of
	// UPDATE/DELETE statements. This runs after the logical pass so every
	// reference is bound and every subquery's reads are known.
	for st, sp := range p.selects {
		sp.vec, sp.vecReason = compileVecSelect(p, st, sp)
	}
	switch st := stmt.(type) {
	case *UpdateStmt:
		p.dml = compileVecDML(p, dml, st.Where, st.Sets)
	case *DeleteStmt:
		p.dml = compileVecDML(p, dml, st.Where, nil)
	}
	return p, nil
}

// dmlScope is the scope an UPDATE or DELETE of the named table binds in, nil
// when there is no such table.
func (db *DB) dmlScope(table string) *selectPlan {
	t := db.tables[strings.ToLower(table)]
	if t == nil {
		return nil
	}
	return &selectPlan{from: t, fromBinding: strings.ToLower(table)}
}

// SelectMarkers returns the distinct parameter markers of a SELECT in order
// of first appearance, nested subqueries included.
func SelectMarkers(st *SelectStmt) []EParam {
	var markers []EParam
	var visit func(st *SelectStmt)
	visit = func(st *SelectStmt) {
		eachClause(st, 0, nil, func(e Expr, _ int) {
			walkExpr(e, func(e Expr) {
				switch x := e.(type) {
				case *EParam:
					if !slices.Contains(markers, *x) {
						markers = append(markers, *x)
					}
				case *ESubquery:
					visit(x.Select)
				case *EExists:
					visit(x.Select)
				case *EIn:
					if x.Sub != nil {
						visit(x.Sub)
					}
				}
			})
		})
	}
	visit(st)
	return markers
}

// eachSelect calls f on st and on every SELECT nested in its clauses, each
// before the SELECTs nested in it.
func eachSelect(st *SelectStmt, f func(*SelectStmt)) {
	f(st)
	eachClause(st, 0, nil, func(e Expr, _ int) {
		walkExpr(e, func(e Expr) {
			switch x := e.(type) {
			case *ESubquery:
				eachSelect(x.Select, f)
			case *EExists:
				eachSelect(x.Select, f)
			case *EIn:
				if x.Sub != nil {
					eachSelect(x.Sub, f)
				}
			}
		})
	})
}

// planSelect builds the strategy of one SELECT node: it resolves the tables,
// binds every column reference of the clauses, planning the SELECTs nested
// in them, and then chooses the access paths and join strategies by those
// bindings. Called with db.mu read-held.
func (pl *planner) planSelect(st *SelectStmt) error {
	db, p := pl.db, pl.p
	sp := &selectPlan{level: len(pl.scopes)}
	var tables []*Table
	if st.From != nil {
		t := db.tables[strings.ToLower(st.From.Table)]
		if t == nil {
			return fmt.Errorf("sqldb: no table %s", st.From.Table)
		}
		sp.from, sp.fromBinding = t, strings.ToLower(st.From.Binding())
		tables = append(tables, t)
		for _, j := range st.Joins {
			jt := db.tables[strings.ToLower(j.Table.Table)]
			if jt == nil {
				return fmt.Errorf("sqldb: no table %s", j.Table.Table)
			}
			sp.joins = append(sp.joins, joinPlan{table: jt, binding: strings.ToLower(j.Table.Binding())})
			tables = append(tables, jt)
		}
	}
	for _, t := range tables {
		p.addTable(t)
	}
	sp.grouped, sp.aliases = selectShape(st, tables)
	p.selects[st] = sp

	pl.scopes = append(pl.scopes, scope{sp: sp})
	var err error
	eachClause(st, len(tables), sp.aliases, func(e Expr, width int) {
		pl.scopes[len(pl.scopes)-1].width = width
		if err == nil {
			err = pl.planExpr(e)
		}
	})
	pl.scopes = pl.scopes[:len(pl.scopes)-1]
	if err == nil {
		err = p.ownAggregate(st, sp)
	}
	if err != nil || sp.from == nil {
		return err
	}

	// Access paths: index-lookup candidates among the WHERE conjuncts, then
	// the join access. Whether the columns are actually indexed is checked
	// at execution, so plans stay valid when the join planner builds indexes
	// lazily.
	var conds []Expr
	if st.Where != nil {
		conds = conjuncts(st.Where)
		for _, conj := range conds {
			if bin, ok := conj.(*EBinary); ok && bin.Op == OpEq {
				if col, val := p.matchColConst(sp, bin); col >= 0 {
					sp.access = append(sp.access, accessPath{col: col, val: val})
				}
			}
		}
	}
	for k, j := range st.Joins {
		jp := &sp.joins[k]
		jp.eqCol, jp.outer, jp.rest = p.joinStrategy(sp, j.On, k)
	}
	if len(sp.joins) > 0 {
		sp.pin, _ = p.planJoinAccess(sp, conds)
	}
	return nil
}

// ownAggregate returns the error of an aggregate in the WHERE or a join ON
// of the SELECT sp plans whose argument reads a table of that SELECT. SQL
// gives an aggregate to the query its argument reads, and that query's WHERE
// and ONs filter the rows it would fold. An aggregate there whose argument
// reads only SELECTs around it belongs to one of those, and stays.
func (p *stmtPlan) ownAggregate(st *SelectStmt, sp *selectPlan) error {
	var err error
	check := func(clause string, e Expr) {
		walkExpr(e, func(e Expr) {
			x, ok := e.(*ECall)
			if ok && err == nil && x.IsAggregate() && slices.ContainsFunc(x.Args, func(a Expr) bool { return p.reads(a).at(sp.level) }) {
				err = fmt.Errorf("sqldb: aggregate %s in %s aggregates the rows it filters", x.Name, clause)
			}
		})
	}
	check("WHERE", st.Where)
	for _, j := range st.Joins {
		check("ON", j.On)
	}
	return err
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
func (p *stmtPlan) planJoinAccess(sp *selectPlan, conds []Expr) (pin joinAccess, quiet bool) {
	for k := range sp.joins {
		jp := &sp.joins[k]
		if jp.eqCol >= 0 {
			key, ok := jp.outer.(*EColumn)
			if !ok {
				return joinAccess{}, false
			}
			if _, local := p.local(sp, key); !local {
				return joinAccess{}, false
			}
		}
		for _, c := range jp.rest {
			if !p.quiet(sp, c) {
				return joinAccess{}, false
			}
		}
	}
	for _, c := range conds {
		if pin.val == nil {
			if pin = p.matchPin(sp, c); pin.val != nil {
				continue
			}
		}
		if !p.quiet(sp, c) {
			return joinAccess{}, false
		}
	}
	return pin, true
}

// matchPin matches a conjunct "J.col = val" (either orientation) on a joined
// table J reached by a key access (colAccess), with val a literal or
// parameter.
func (p *stmtPlan) matchPin(sp *selectPlan, c Expr) joinAccess {
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
	if ka, ok := p.colAccess(sp, col); ok && ka.join >= 0 {
		return joinAccess{keyAccess: ka, val: val}
	}
	return joinAccess{}
}

// colAccess is the key access through the column c names: a column of F, or
// of a joined table J whose join is the hash join "J.key = F.fromCol" on
// columns, of a type pinExact can admit a value for.
func (p *stmtPlan) colAccess(sp *selectPlan, c *EColumn) (keyAccess, bool) {
	ref, local := p.local(sp, c)
	if !local || ref.typ == TFloat {
		return keyAccess{}, false
	}
	if ref.tab == 0 {
		return keyAccess{join: -1, col: ref.col}, true
	}
	jp := &sp.joins[ref.tab-1]
	key, _ := jp.outer.(*EColumn)
	if jp.eqCol < 0 || key == nil {
		return keyAccess{}, false
	}
	if from, local := p.local(sp, key); local && from.tab == 0 {
		return keyAccess{join: ref.tab - 1, col: ref.col, fromCol: from.col}, true
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

// quiet reports whether the predicate e, a clause of the SELECT sp, yields
// TRUE, FALSE or NULL on every row without raising: comparisons of columns
// and literals that Compare orders against each other, combined by AND, OR
// and NOT, and IS [NOT] NULL tests of them.
func (p *stmtPlan) quiet(sp *selectPlan, e Expr) bool {
	switch x := e.(type) {
	case *EBinary:
		switch x.Op {
		case OpAnd, OpOr:
			return p.quiet(sp, x.L) && p.quiet(sp, x.R)
		case OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq:
			l, r := p.class(sp, x.L), p.class(sp, x.R)
			return l != classNone && r != classNone && (l == r || l == classNull || r == classNull)
		}
	case *EUnary:
		return !x.Neg && p.quiet(sp, x.X)
	case *EIsNull:
		return p.class(sp, x.X) != classNone
	case *ELit, *EColumn:
		c := p.class(sp, e)
		return c == classBool || c == classNull
	}
	return false
}

// Comparison classes of a column or literal operand (stmtPlan.class):
// Compare orders two non-NULL values without raising when their classes are
// equal.
const (
	classNone = iota // not a column of the scope or a literal
	classNull
	classNum
	classText
	classBool
)

// class is the comparison class of a literal, or of a column of the SELECT
// sp by its declared type — storage coerces every cell to it.
func (p *stmtPlan) class(sp *selectPlan, e Expr) int {
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
		ref, local := p.local(sp, x)
		if !local {
			return classNone
		}
		switch ref.typ {
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
	// SharedBuilds counts the builds an analysis's build table served to a
	// statement that did not make them (ShareBuilds); such a build counts
	// in neither VecSelects nor BuildRows.
	SharedBuilds int64 `json:"shared_builds"`
}

// FallbackReasons is the per-shape breakdown of Stats.VecFallbacks (the fb*
// refusal reasons in vec.go).
type FallbackReasons struct {
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
		&r.Star, &r.OrderExpr, &r.Subquery, &r.Other,
		&s.BuildRows, &s.SharedBuilds,
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
			Star:      db.vecFbStar.Load(),
			OrderExpr: db.vecFbOrder.Load(),
			Subquery:  db.vecFbSub.Load(),
			Other:     db.vecFbOther.Load(),
		},
		BuildRows:    db.buildRows.Load(),
		SharedBuilds: db.sharedBuilds.Load(),
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
