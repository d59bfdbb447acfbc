package sqlgen

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/asl/object"
	"repro/internal/asl/sem"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// QueryExecutor abstracts SELECT execution (embedded engine or godbc
// connection).
type QueryExecutor interface {
	ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error)
}

// PreparedQuery is a reusable handle for one query: parsed and planned once,
// executed many times with fresh parameters — the JDBC PreparedStatement
// shape the paper's property evaluation is built on.
type PreparedQuery interface {
	ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error)
	Close() error
}

// QueryPreparer is implemented by executors that support prepared queries
// (godbc connections, pools, shards, and the embedded engine). The analyzer's
// SQL engines require it: they execute nothing but prepared handles.
type QueryPreparer interface {
	PrepareQuery(query string) (PreparedQuery, error)
}

// BatchQueryResult is the per-binding outcome of a batched prepared query:
// exactly one of Set and Err is non-nil.
type BatchQueryResult struct {
	Set *sqldb.ResultSet
	Err error
}

// BatchPreparedQuery is implemented by prepared queries that support array
// binding: one call executes the handle once per parameter set, over the
// wire in a single request. Results are ordered as the bindings; per-binding
// failures are reported inline and do not abort the batch.
type BatchPreparedQuery interface {
	PreparedQuery
	ExecQueryBatch(bindings []*sqldb.Params) ([]BatchQueryResult, error)
}

// ContextQueryExecutor is implemented by executors whose text-protocol
// executions observe a context: pool checkout, the wire round trip, and the
// profiled vendor delays all return early when the context is canceled.
// Analysis code probes for it and falls back to the uncancellable call when
// absent — cancellation then takes effect between executions instead.
type ContextQueryExecutor interface {
	ExecQueryContext(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error)
}

// ContextPreparedQuery is the context-observing execution of a prepared
// handle; see ContextQueryExecutor.
type ContextPreparedQuery interface {
	ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error)
}

// ContextBatchPreparedQuery is the context-observing array-binding execution
// of a prepared handle, and the one execution call the analyzer makes; a
// canceled batch fails as a whole (no partial result slice), mirroring the
// transport-failure contract of ExecQueryBatch.
type ContextBatchPreparedQuery interface {
	ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]BatchQueryResult, error)
}

// ReadStore reconstructs a complete object store from its relational
// representation by fetching every table — the "client-side evaluation"
// setup of the paper's Section 5, where the analysis tool pulls the data
// components out of the database and evaluates property conditions itself.
func ReadStore(w *sem.World, q QueryExecutor) (*object.Store, error) {
	store := object.NewStore()
	byID := make(map[int64]*object.Object)

	classNames := make([]string, 0, len(w.Classes))
	for n := range w.Classes {
		classNames = append(classNames, n)
	}
	sort.Strings(classNames)

	// Pass 1: create all objects so references can be linked in pass 2.
	rowsByClass := make(map[string]*sqldb.ResultSet)
	for _, name := range classNames {
		r, err := build.Kojakdb.Render(&sqldb.SelectStmt{
			Items:   []sqldb.SelectItem{{Star: true}},
			From:    &sqldb.TableRef{Table: name},
			OrderBy: []sqldb.OrderItem{{Expr: col("", "id")}},
		})
		if err != nil {
			return nil, fmt.Errorf("sqlgen: reading %s: %w", name, err)
		}
		set, err := q.ExecQuery(r.SQL, nil)
		if err != nil {
			return nil, fmt.Errorf("sqlgen: reading %s: %w", name, err)
		}
		rowsByClass[name] = set
		idCol := columnIndex(set.Columns, "id")
		if idCol < 0 {
			return nil, fmt.Errorf("sqlgen: table %s has no id column", name)
		}
		cls := w.Classes[name]
		for _, row := range set.Rows {
			id := row[idCol].Int()
			if _, dup := byID[id]; dup {
				return nil, fmt.Errorf("sqlgen: duplicate object id %d", id)
			}
			byID[id] = store.NewWithID(cls, id)
		}
	}

	// Pass 2: scalar attributes and object references.
	for _, name := range classNames {
		cls := w.Classes[name]
		set := rowsByClass[name]
		idCol := columnIndex(set.Columns, "id")
		for _, row := range set.Rows {
			obj := byID[row[idCol].Int()]
			for _, attr := range cls.AllAttrs() {
				if _, isSet := attr.Type.(*sem.Set); isSet {
					continue
				}
				col := columnIndex(set.Columns, ColumnFor(attr))
				if col < 0 {
					return nil, fmt.Errorf("sqlgen: table %s lacks column %s", name, ColumnFor(attr))
				}
				v, err := fromSQLValue(row[col], attr.Type, byID)
				if err != nil {
					return nil, fmt.Errorf("sqlgen: %s.%s: %w", name, attr.Name, err)
				}
				obj.Set(attr.Name, v)
			}
		}
	}

	// Pass 3: set memberships from the junction tables.
	for _, name := range classNames {
		cls := w.Classes[name]
		for _, attr := range cls.AllAttrs() {
			if _, isSet := attr.Type.(*sem.Set); !isSet {
				continue
			}
			j := JunctionFor(cls, attr.Name)
			r, err := build.Kojakdb.Render(&sqldb.SelectStmt{
				Items: []sqldb.SelectItem{
					{Expr: col("", "owner_id")},
					{Expr: col("", "elem_id")},
				},
				From: &sqldb.TableRef{Table: j},
			})
			if err != nil {
				return nil, fmt.Errorf("sqlgen: reading %s: %w", j, err)
			}
			set, err := q.ExecQuery(r.SQL, nil)
			if err != nil {
				return nil, fmt.Errorf("sqlgen: reading %s: %w", j, err)
			}
			for _, row := range set.Rows {
				owner, ok := byID[row[0].Int()]
				if !ok {
					return nil, fmt.Errorf("sqlgen: %s references unknown owner %d", j, row[0].Int())
				}
				elem, ok := byID[row[1].Int()]
				if !ok {
					return nil, fmt.Errorf("sqlgen: %s references unknown element %d", j, row[1].Int())
				}
				owner.Append(attr.Name, elem)
			}
		}
	}
	return store, nil
}

func columnIndex(cols []string, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

func fromSQLValue(v sqldb.Value, t sem.Type, byID map[int64]*object.Object) (object.Value, error) {
	if v.IsNull() {
		return object.Null{}, nil
	}
	switch x := t.(type) {
	case *sem.Basic:
		switch x.Kind {
		case sem.Int:
			return object.Int(v.Int()), nil
		case sem.Float:
			return object.Float(v.Float()), nil
		case sem.Bool:
			return object.Bool(v.Bool()), nil
		case sem.String:
			return object.Str(v.Text()), nil
		case sem.DateTime:
			return object.DateTime(v.Int()), nil
		}
	case *sem.Enum:
		member := v.Text()
		if _, ok := x.Ordinal[member]; !ok {
			return nil, fmt.Errorf("enum %s has no member %q", x.Name, member)
		}
		return object.Enum{Type: x, Member: member}, nil
	case *sem.Class:
		obj, ok := byID[v.Int()]
		if !ok {
			return nil, fmt.Errorf("dangling reference to object %d", v.Int())
		}
		if !obj.Class.IsSubclassOf(x) {
			return nil, fmt.Errorf("object %d has class %s, want %s", v.Int(), obj.Class.Name, x.Name)
		}
		return obj, nil
	}
	return nil, fmt.Errorf("unsupported attribute type %s", t)
}
