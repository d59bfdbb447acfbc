package sqldb

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"
)

// The result cache. Property outcomes in the COSY tuning cycle are pure
// functions of (query text, parameter bindings, data version): the analyzer
// re-evaluates the same ASL property queries against an immutable run history
// while the user inspects hypotheses, so a repeated (statement × binding) can
// be answered from its previous result as long as no referenced table changed.
//
// Mutation visibility is tracked per table: every DML statement that changes
// a table's rows stamps the table with a fresh value of the database's global
// DML counter (bumpData), the same way DDL bumps the schema version. Because
// the stamps come from one monotonically increasing counter, the maximum
// stamp over a plan's referenced tables changes whenever ANY of those tables
// is mutated — so one int64 per cache entry captures the freshness of an
// arbitrary join. DML to one table invalidates only the entries whose plans
// reference it; entries over other tables keep their stamps and keep hitting.
//
// Cache keys combine the statement's identity (the plan cache's sharedStmt,
// numbered at prepare: every Prepare and Exec of one text shares it) and a
// type-tagged fingerprint of the parameters the statement reads. Entries
// store the schema version and the data-version stamps they were computed
// at; a lookup that finds an entry with stale ones removes it and counts an
// invalidation. Only SELECT statements are cached — DML never is.
//
// Cached ResultSets are shared between the cache and every caller that hits
// it; like the row snapshots returned by scan, they must be treated as
// read-only.

// DefaultResultCacheSize is the capacity of the per-DB result cache. An
// analysis produces one entry per property instance (a few thousand on a
// large region tree), and entries are small (property queries return one
// row), so the default is sized to hold a whole tuning-cycle working set; a
// capacity below the instance count would thrash the LRU and hit nothing on
// the repeat analysis.
const DefaultResultCacheSize = 4096

// resultCacheEntry is one LRU slot: the result and the versions it was
// computed at.
type resultCacheEntry struct {
	key       string
	schemaVer int64 // schema version of the plan that produced the result
	dataVer   int64 // max data-version stamp of the plan's referenced tables
	set       *ResultSet
}

// cacheFields groups the DB's result-cache state; embedded in DB.
type cacheFields struct {
	// dml is the global DML counter: every mutating statement stamps its
	// table with dml.Add(1), making per-table data versions comparable.
	dml atomic.Int64

	resMu  sync.Mutex
	resCap int
	resLRU *list.List
	resIdx map[string]*list.Element
	// resOn mirrors resCap > 0 for a lock-free disabled-path check.
	resOn atomic.Bool

	resHits    atomic.Int64
	resMisses  atomic.Int64
	resInvalid atomic.Int64
	resEvicts  atomic.Int64
}

// initResultCache sets up the cache containers; called from NewDB.
func (db *DB) initResultCache() {
	db.resCap = DefaultResultCacheSize
	db.resOn.Store(true)
	db.resLRU = list.New()
	db.resIdx = make(map[string]*list.Element)
}

// SetResultCacheSize bounds the result cache; n <= 0 disables caching and
// clears it (every SELECT then executes from scratch, the cache-off baseline
// configuration the E11 benchmarks compare against).
func (db *DB) SetResultCacheSize(n int) {
	db.resMu.Lock()
	defer db.resMu.Unlock()
	db.resCap = n
	db.resOn.Store(n > 0)
	for db.resLRU.Len() > max(db.resCap, 0) {
		last := db.resLRU.Back()
		entry := last.Value.(*resultCacheEntry)
		db.resLRU.Remove(last)
		delete(db.resIdx, entry.key)
		db.resEvicts.Add(1)
	}
}

// clearResultCache drops every cached result. Called on DDL: entries built
// against the old schema could never hit again (the schema version is part of
// every freshness check), so reclaiming their memory at once beats letting
// them age out of the LRU one stale lookup at a time.
func (db *DB) clearResultCache() {
	db.resMu.Lock()
	defer db.resMu.Unlock()
	db.resLRU.Init()
	clear(db.resIdx)
}

// bumpData stamps a table with a fresh data version. Called by every DML
// statement that changed the table's rows, under the exclusive statement
// lock, so readers holding the shared lock always see stamps consistent with
// the data.
func (db *DB) bumpData(t *Table) {
	t.dataVer.Store(db.dml.Add(1))
}

// dataStamp is the highest data version of tables, 0 for none: the stamp a
// result or a shared build read from them is kept under.
func dataStamp(tables []*Table) int64 {
	var v int64
	for _, t := range tables {
		v = max(v, t.dataVer.Load())
	}
	return v
}

// keyBufSize is the room callers give a result-cache key on their stack: a
// lookup that hits never turns its key into a string, so with a key that
// fits (a statement id and a few numbers do) it allocates nothing.
const keyBufSize = 128

// cacheKeyFor builds, in buf's storage (grown if the key outgrows it; the
// returned key is the storage to pass next time), the result-cache key of
// the statement's planned SELECT under a binding, and reads the statement's
// current data-version stamp. The key is the statement id followed by the
// fingerprint of the parameters the statement reads (fingerprintMarkers). ok
// is false when the statement is not cacheable: the cache disabled, or a
// marker the binding leaves unbound — the execution then reports that
// itself. Must be called with db.mu held at least shared, so the stamps read
// here are consistent with the rows the execution will see.
func (s *sharedStmt) cacheKeyFor(plan *stmtPlan, params *Params, buf []byte) (key []byte, dataVer int64, ok bool) {
	if !s.db.resOn.Load() {
		return buf, 0, false
	}
	key = append(strconv.AppendInt(buf[:0], s.id, 10), '\x1f')
	key, ok = fingerprintMarkers(key, plan.markers, params)
	if !ok {
		return key, 0, false
	}
	return key, dataStamp(plan.tables), true
}

// fingerprintMarkers appends the fingerprint of the values a binding gives the
// markers, in marker order, or reports false when it leaves one unbound. The
// markers of a statement are fixed by its text, so two fingerprints behind
// the same statement id line up value by value: no names are needed, and
// a parameter the statement never reads is not part of the key.
func fingerprintMarkers(key []byte, markers []EParam, params *Params) ([]byte, bool) {
	for i := range markers {
		v, bound := params.lookup(&markers[i])
		if !bound {
			return key, false
		}
		key = appendFingerprint(key, v)
	}
	return key, true
}

// lookupResult returns the cached result for the key if its versions are
// still current. A present-but-stale entry is removed and counted as an
// invalidation (and a miss); an absent entry is just a miss.
func (db *DB) lookupResult(key []byte, schemaVer, dataVer int64) (*ResultSet, bool) {
	db.resMu.Lock()
	defer db.resMu.Unlock()
	el, found := db.resIdx[string(key)]
	if found {
		entry := el.Value.(*resultCacheEntry)
		if entry.schemaVer == schemaVer && entry.dataVer == dataVer {
			db.resLRU.MoveToFront(el)
			db.resHits.Add(1)
			return entry.set, true
		}
		db.resLRU.Remove(el)
		delete(db.resIdx, string(key))
		db.resInvalid.Add(1)
	}
	db.resMisses.Add(1)
	return nil, false
}

// storeResult inserts a freshly computed result. The versions must be the
// ones read by cacheKeyFor before the execution ran (under the same shared
// statement lock), so a result never gets stamped newer than the data it was
// computed from. Only here, for an entry that is new, does a key become a
// string.
func (db *DB) storeResult(key []byte, schemaVer, dataVer int64, set *ResultSet) {
	db.resMu.Lock()
	defer db.resMu.Unlock()
	if db.resCap <= 0 {
		return
	}
	if el, ok := db.resIdx[string(key)]; ok {
		// A concurrent execution of the same (statement × binding) stored
		// first; adopt its entry.
		el.Value.(*resultCacheEntry).set = set
		el.Value.(*resultCacheEntry).schemaVer = schemaVer
		el.Value.(*resultCacheEntry).dataVer = dataVer
		db.resLRU.MoveToFront(el)
		return
	}
	entry := &resultCacheEntry{key: string(key), schemaVer: schemaVer, dataVer: dataVer, set: set}
	db.resIdx[entry.key] = db.resLRU.PushFront(entry)
	for db.resLRU.Len() > db.resCap {
		last := db.resLRU.Back()
		entry := last.Value.(*resultCacheEntry)
		db.resLRU.Remove(last)
		delete(db.resIdx, entry.key)
		db.resEvicts.Add(1)
	}
}

// appendFingerprint appends a value's type-tagged key fragment. Unlike
// Value.Key (which folds 1 and 1.0 together to match comparison semantics),
// the fingerprint keeps types distinct: an INTEGER and an integral REAL
// binding can behave differently in type-sensitive expressions (%, ||), so
// they must not share a cache slot.
func appendFingerprint(b []byte, v Value) []byte {
	switch {
	case v.IsNull():
		b = append(b, 'n')
	case v.IsInt():
		b = strconv.AppendInt(append(b, 'i'), v.Int(), 10)
	case v.IsNumeric():
		b = strconv.AppendFloat(append(b, 'f'), v.Float(), 'b', -1, 64)
	case v.IsText():
		// Length-prefixed: text may contain any byte, including the value
		// terminator, and must not be able to impersonate a value sequence.
		b = strconv.AppendInt(append(b, 't'), int64(len(v.Text())), 10)
		b = append(append(b, ':'), v.Text()...)
	case v.Bool():
		b = append(b, 'b', '1')
	default:
		b = append(b, 'b', '0')
	}
	return append(b, 0)
}
