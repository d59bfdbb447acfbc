package sqldb

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    ColType
	NotNull bool
	Primary bool
}

// Row is a tuple of values, one per column.
type Row []Value

// Table is the storage for one relation. Data is stored column-major: one
// typed vector per column (see column.go), and nothing else. Both engines
// read the vectors directly, a bound row being a position into them, and
// write them through insert, updateRows and deleteRows.
//
// Every table carries its own RWMutex so that readers of different tables
// never contend and concurrent readers of the same table only serialize
// against writers. Lock ordering: the DB statement lock (DB.mu) is always
// acquired before any table lock; table locks are never held while acquiring
// another table's lock.
type Table struct {
	Name    string
	Columns []Column
	colIdx  map[string]int // lower-cased column name -> position
	// mu guards the indexes, and the row count for NumRows. The column
	// vectors mutate only under the exclusive DB statement lock, which
	// excludes all SELECT readers, so reads off cols need no table lock; mu
	// makes the lazily built join indexes safe under concurrent SELECTs.
	mu sync.RWMutex
	// cols holds one typed vector per column; nrows is the row count.
	cols  []*colVec
	nrows int
	// indexes maps column position to the hash index over that column (see
	// index.go). Indexes are maintained incrementally on insert, rebuilt on
	// delete, and on update only where an assigned column is indexed.
	indexes map[int]*hashIndex
	// primary is the position of the primary-key column, or -1.
	primary int
	// dataVer is the table's data version: every DML statement that changed
	// this table's rows stamps it with a fresh value of the database's global
	// DML counter (see DB.bumpData and resultcache.go). Index builds do not
	// touch it — they change access paths, not results.
	dataVer atomic.Int64
}

func newTable(name string, cols []Column) (*Table, error) {
	t := &Table{
		Name:    name,
		Columns: cols,
		colIdx:  make(map[string]int, len(cols)),
		indexes: make(map[int]*hashIndex),
		primary: -1,
	}
	for _, c := range cols {
		t.cols = append(t.cols, newColVec(c.Type))
	}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := t.colIdx[key]; dup {
			return nil, fmt.Errorf("sqldb: table %s: duplicate column %s", name, c.Name)
		}
		t.colIdx[key] = i
		if c.Primary {
			if t.primary >= 0 {
				return nil, fmt.Errorf("sqldb: table %s: multiple primary keys", name)
			}
			t.primary = i
		}
	}
	if t.primary >= 0 {
		t.indexes[t.primary] = newHashIndex(cols[t.primary].Type)
	}
	return t, nil
}

// ColumnIndex returns the position of a column (case-insensitive), or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// NumRows returns the number of stored rows.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nrows
}

func (t *Table) insert(r Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(r) != len(t.Columns) {
		return fmt.Errorf("sqldb: table %s: row has %d values, want %d", t.Name, len(r), len(t.Columns))
	}
	for i := range r {
		v, err := coerce(r[i], t.Columns[i].Type)
		if err != nil {
			return fmt.Errorf("sqldb: table %s, column %s: %v", t.Name, t.Columns[i].Name, err)
		}
		if v.IsNull() && (t.Columns[i].NotNull || t.Columns[i].Primary) {
			return fmt.Errorf("sqldb: table %s: NULL in NOT NULL column %s", t.Name, t.Columns[i].Name)
		}
		r[i] = v
	}
	if t.primary >= 0 {
		if len(t.indexes[t.primary].get(r[t.primary])) > 0 {
			return fmt.Errorf("sqldb: table %s: duplicate primary key %s", t.Name, r[t.primary])
		}
	}
	pos := t.nrows
	for i, c := range t.cols {
		c.appendVal(r[i])
	}
	t.nrows++
	for col, idx := range t.indexes {
		idx.add(r[col], pos)
	}
	return nil
}

// createIndex builds a hash index over a column if one does not exist yet.
// It is called lazily from the join planner, so it must be safe under
// concurrent SELECTs: the double-checked write lock serializes builders.
func (t *Table) createIndex(col int) {
	t.mu.RLock()
	_, ok := t.indexes[col]
	t.mu.RUnlock()
	if ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[col]; ok {
		return
	}
	t.indexes[col] = t.buildIndex(col)
}

// buildIndex computes a hash index over one column from the column vector.
// Caller holds t.mu exclusively (or the exclusive DB statement lock).
func (t *Table) buildIndex(col int) *hashIndex {
	return buildHashIndex(t.cols[col], t.nrows)
}

// updateRows is the write phase of an UPDATE, shared by both engines: row
// pos[i] takes vals[i*len(cols)+j] in column cols[j], each value already
// coerced to its column type. The indexes over the assigned columns are
// rebuilt, and db stamps the table with a fresh data version. Caller holds
// db.mu exclusively.
func (t *Table) updateRows(db *DB, cols []int, pos []int32, vals []Value) {
	if len(pos) == 0 {
		return
	}
	t.mu.Lock()
	for i, p := range pos {
		for j, c := range cols {
			t.cols[c].setVal(int(p), vals[i*len(cols)+j])
		}
	}
	t.mu.Unlock()
	t.relayIndexes(slices.Values(cols))
	db.bumpData(t)
}

// deleteRows is the write phase of a DELETE, shared by both engines: it drops
// the rows at pos, ascending and each listed once, preserving the order of
// the rest. Every index is rebuilt, and db stamps the table with a fresh data
// version. Caller holds db.mu exclusively.
func (t *Table) deleteRows(db *DB, pos []int32) {
	if len(pos) == 0 {
		return
	}
	t.mu.Lock()
	for _, c := range t.cols {
		c.compact(pos)
	}
	t.nrows -= len(pos)
	t.mu.Unlock()
	t.relayIndexes(maps.Keys(t.indexes))
	db.bumpData(t)
}

// relayIndexes lays the indexes over cols out again from their column
// vectors, skipping a column without one: DELETE, which shifts row
// positions, passes every indexed column; UPDATE, which keeps every row in
// place, the columns it assigned. cols is read under the table lock.
func (t *Table) relayIndexes(cols iter.Seq[int]) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for col := range cols {
		if _, ok := t.indexes[col]; ok {
			t.indexes[col] = t.buildIndex(col)
		}
	}
}

// index returns the hash index over a column, or nil. The index may be read
// without the table lock afterwards: indexes mutate only under the exclusive
// DB statement lock, which excludes all SELECT readers. The positions it
// yields index the column vectors.
func (t *Table) index(col int) *hashIndex {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[col]
}

// DB is a database: a set of named tables. All public methods are safe for
// concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// planFields carries the prepared-statement machinery: the schema
	// version, the ad-hoc plan cache, and its counters (see prepare.go).
	planFields
	// cacheFields carries the result cache: the global DML counter behind
	// the per-table data versions, the LRU of cached SELECT results, and its
	// counters (see resultcache.go).
	cacheFields
	// vecOn selects the SELECT execution engine: true (always, outside tests
	// and benchmarks — see SetEngine) runs planned SELECTs through the
	// vectorized operators (vecexec.go), false forces the row interpreter.
	// vecSelects/vecFallbacks count executions of planned SELECT nodes on
	// each path while the vectorized engine is selected.
	vecOn        atomic.Bool
	vecSelects   atomic.Int64
	vecFallbacks atomic.Int64
	// Per-reason fallback counters (the fb* constants in vec.go).
	vecFbStar  atomic.Int64
	vecFbOrder atomic.Int64
	vecFbSub   atomic.Int64
	vecFbOther atomic.Int64
	// buildRows counts the rows decorrelated build scans visit after their
	// seed (Stats.BuildRows); sharedBuilds the builds an analysis's build
	// table served (Stats.SharedBuilds).
	buildRows    atomic.Int64
	sharedBuilds atomic.Int64
	// seedHook, set only by tests (export_test.go), observes every seed of
	// either engine (execCtx.seedBy): the FROM table and how many rows it
	// seeded.
	seedHook func(from *Table, rows int)
	// filterHook, set only by tests, observes every vectorized scan with a
	// WHERE (vecCtx.scanSeed): whether it runs the fused kernels.
	filterHook func(fused bool)
}

// countFallback records one row-interpreter fallback under its refusal
// reason.
func (db *DB) countFallback(reason string) {
	db.vecFallbacks.Add(1)
	switch reason {
	case fbStar:
		db.vecFbStar.Add(1)
	case fbOrderExpr:
		db.vecFbOrder.Add(1)
	case fbSubquery:
		db.vecFbSub.Add(1)
	default:
		db.vecFbOther.Add(1)
	}
}

// NewDB returns an empty database.
func NewDB() *DB {
	db := &DB{tables: make(map[string]*Table)}
	db.initPlanCache()
	db.initResultCache()
	db.vecOn.Store(true)
	return db
}

// Table returns the named table (case-insensitive), or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

func (db *DB) createTable(name string, cols []Column) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := db.tables[key]; dup {
		return fmt.Errorf("sqldb: table %s already exists", name)
	}
	t, err := newTable(name, cols)
	if err != nil {
		return err
	}
	db.tables[key] = t
	db.ddl.Add(1)
	db.clearPlanCache()
	db.clearResultCache()
	return nil
}

func (db *DB) dropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		return fmt.Errorf("sqldb: no table %s", name)
	}
	delete(db.tables, key)
	db.ddl.Add(1)
	db.clearPlanCache()
	db.clearResultCache()
	return nil
}

func (db *DB) createIndex(table, column string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.tables[strings.ToLower(table)]
	if t == nil {
		return fmt.Errorf("sqldb: no table %s", table)
	}
	col := t.ColumnIndex(column)
	if col < 0 {
		return fmt.Errorf("sqldb: table %s has no column %s", table, column)
	}
	t.createIndex(col)
	db.ddl.Add(1)
	db.clearPlanCache()
	db.clearResultCache()
	return nil
}
