package sqldb

import (
	"bytes"
	"context"
	"slices"
	"sync"
)

// Builds shared by the statements of one analysis. The analyzer runs one
// statement per property, and properties that derive the same value carry
// byte-identical subqueries: each statement would build their decorrelated
// form again. An analysis opens a build table (ShareBuilds) on the context
// its batches run under, and a build the first statement makes, every later
// one probes — multiple-query optimization over one analysis, by recycling
// the intermediate a statement already computed. The table is an ordinary
// value, made per analysis and carried as a value of its context; the
// analysis that opened it is its one owner, and closing it gives the builds
// lent to it back to their plans.
//
// A complete build is an immutable value: a pure function of the subquery's
// text, the schema it was planned against, the rows of the tables it reads
// and the values of the markers it reads. Those are its key (buildKey and
// the marker fingerprint):
//
//   - the DB (shards never share), the subquery's source span
//     (ESubquery.Span, the bytes the parser read, never a reprint), and the
//     schema version;
//   - the highest data stamp of the build's tables, so a DML that commits
//     between two statements of one analysis moves the key and the second
//     statement builds its own;
//   - the fingerprint of the values of the markers the build reads.
//
// Only a build whose text fixes its meaning is shared (buildShare): its
// synthesized SELECT — join ONs, residue, inner keys, value — reads only the
// tables of its own span and parameters, and the span holds no positional ?.
// Equal spans then bind alike in any statement, so their key/residue split
// and their rows are the same. Only builds the statement's outermost SELECT
// probes go to the table, so a statement making one — between its claim and
// the build's completion, it runs only the build's own SELECT — never waits
// on another claim, and concurrent statements wait on one maker
// (single-flight). A build that replayed is never probed from the table, and
// a build seeded by its maker's probe keys is probed only by a statement
// whose probes ask for keys it read (holds); any other statement builds its
// own, as it would without the table.

// ShareBuilds returns a context carrying a new build table, and the function
// that closes it. Every SELECT batch executed under the context
// (ExecuteBatchContext) reads and fills the table. Call close once, after
// the last statement under the context has returned: the table gives the
// builds lent to it back to their plans. Without a table, or over the wire,
// where the context does not reach the engine, every statement makes its
// own builds.
func ShareBuilds(ctx context.Context) (context.Context, func()) {
	t := newBuildTable()
	return context.WithValue(ctx, buildTableKey{}, t), t.close
}

// buildTableKey is the context key of a build table.
type buildTableKey struct{}

// buildTableOf returns the build table ctx carries, nil when it carries none.
func buildTableOf(ctx context.Context) *buildTable {
	t, _ := ctx.Value(buildTableKey{}).(*buildTable)
	return t
}

// buildTable is one analysis's builds. m finds each build by its key; the
// builds themselves are their plans' state (corrBuildPlan.spares), lent to
// the table by the statement that claimed them until close gives them back.
type buildTable struct {
	mu   sync.Mutex
	made sync.Cond // broadcast when a build is settled
	m    map[buildKey]*corrBuild
}

func newBuildTable() *buildTable {
	t := &buildTable{}
	t.made.L = &t.mu
	return t
}

// buildKey is what a shared build is found by, but for the values of the
// markers it reads (corrBuild.params).
type buildKey struct {
	db     *DB
	span   string
	schema int64
	data   int64
}

// claim returns the build under k and params, waiting while its maker
// makes it, or, maker true, a build of bp's own state lent to the table,
// which the caller makes and then settles.
func (t *buildTable) claim(bp *corrBuildPlan, k buildKey, params []byte) (bd *corrBuild, maker bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for bd = t.m[k]; bd != nil; bd = bd.next {
		if bytes.Equal(bd.params, params) {
			for !bd.done {
				t.made.Wait()
			}
			return bd, false
		}
	}
	if t.m == nil {
		t.m = make(map[buildKey]*corrBuild)
	}
	bd = bp.take()
	bd.params = append(bd.params[:0], params...)
	bd.lent, bd.next = true, t.m[k]
	t.m[k] = bd
	return bd, true
}

// settle completes a claimed build and wakes the statements waiting on it.
func (t *buildTable) settle(bd *corrBuild, ok bool) {
	t.mu.Lock()
	bd.done, bd.ok = true, ok
	t.mu.Unlock()
	t.made.Broadcast()
}

// close gives every build lent to the table back to its plan and empties
// the table.
func (t *buildTable) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, bd := range t.m {
		for bd != nil {
			next := bd.next
			bd.plan.give(bd)
			bd = next
		}
	}
	clear(t.m)
}

// buildShare identifies a build across the statements of an analysis: the
// subquery's source span, and the markers and tables its synthesized SELECT
// reads.
type buildShare struct {
	span    string
	markers []EParam
	tables  []*Table
}

// buildShare returns the identity of the build syn, planned as sp, of the
// subquery x, or nil when the build is not shared: the compiling SELECT is
// not the statement's outermost, the span holds a positional ?, or syn reads
// anything but its own tables and parameters.
func (cp *vecCompiler) buildShare(x *ESubquery, syn *SelectStmt, sp *selectPlan) *buildShare {
	own := cp.sp.level == 0 && x.Span != ""
	eachClause(syn, 0, nil, func(e Expr, _ int) {
		own = own && cp.p.reads(e).within(sp.level)
	})
	if !own {
		return nil
	}
	bs := &buildShare{span: x.Span, markers: SelectMarkers(syn)}
	eachSelect(syn, func(st *SelectStmt) {
		tsp := sp
		if st != syn {
			tsp = cp.p.selects[st]
		}
		if tsp.from == nil {
			return
		}
		for t := range 1 + len(tsp.joins) {
			if _, tab := tsp.table(t); !slices.Contains(bs.tables, tab) {
				bs.tables = append(bs.tables, tab)
			}
		}
	})
	return bs
}

// sharedSide returns the analysis's build of bp for the n probe rows of
// keys: one a statement of the analysis made, or, first, the one this
// execution makes and lends to the table (counted as it would be unshared).
// ok is false where the table cannot serve the probes — a marker the
// binding leaves unbound, a build that replayed, or one seeded without a key
// these probes ask for — and the execution builds its own.
func (vc *vecCtx) sharedSide(t *buildTable, bp *corrBuildPlan, keys []*vcol, n int) (bd *corrBuild, ok bool, err error) {
	db, bs := vc.ec.db, bp.share
	var buf [keyBufSize]byte
	params, bound := fingerprintMarkers(buf[:0], bs.markers, vc.ec.params)
	if !bound {
		return nil, false, nil
	}
	k := buildKey{db: db, span: bs.span, schema: vc.ec.plan.version, data: dataStamp(bs.tables)}
	bd, maker := t.claim(bp, k, params)
	if maker {
		db.vecSelects.Add(1)
		err := vc.startBuild(bp, bd, keys, n)
		t.settle(bd, err == nil)
		return bd, true, err
	}
	if !bd.ok || (bd.via >= 0 && !bd.holds(bp, keys, n)) {
		return nil, false, nil
	}
	db.sharedBuilds.Add(1)
	return bd, true, nil
}
