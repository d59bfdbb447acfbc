// Package sqlgen implements the automation the paper lists as future work:
// it derives a relational database schema from an ASL data model and
// translates ASL performance properties into SQL queries, so that property
// conditions are evaluated entirely inside the database (the fast path of
// the paper's Section 5).
//
// Mapping conventions:
//
//   - every class becomes a table named after the class with an "id"
//     INTEGER PRIMARY KEY;
//   - scalar attributes map to columns of the same name (int, DateTime →
//     INTEGER; float → REAL; String, enums → TEXT; Bool → BOOLEAN);
//   - class-valued attributes become "<Attr>_id" foreign-key columns;
//   - "setof C" attributes become junction tables "<Class>_<Attr>" with
//     owner_id and elem_id columns and an index on owner_id.
package sqlgen

import (
	"fmt"
	"sort"

	"repro/internal/asl/object"
	"repro/internal/asl/sem"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// ColumnFor returns the column name of a scalar or class-valued attribute.
func ColumnFor(attr sem.Attr) string {
	if _, ok := attr.Type.(*sem.Class); ok {
		return attr.Name + "_id"
	}
	return attr.Name
}

// JunctionFor returns the junction table name of a set-valued attribute.
func JunctionFor(class *sem.Class, attrName string) string {
	return class.Name + "_" + attrName
}

// colTypeFor maps an ASL scalar type to a column type; dialects spell it
// (kojakdb: INTEGER/REAL/TEXT/BOOLEAN). Property parameter bindings are
// checked against the same type.
func colTypeFor(t sem.Type) (sqldb.ColType, error) {
	switch x := t.(type) {
	case *sem.Basic:
		switch x.Kind {
		case sem.Int, sem.DateTime:
			return sqldb.TInt, nil
		case sem.Float:
			return sqldb.TFloat, nil
		case sem.String:
			return sqldb.TText, nil
		case sem.Bool:
			return sqldb.TBool, nil
		}
	case *sem.Enum:
		return sqldb.TText, nil
	case *sem.Class:
		return sqldb.TInt, nil // object id
	}
	return 0, fmt.Errorf("sqlgen: no SQL type for %s", t)
}

// SchemaStmts generates the DDL statements (CREATE TABLE and CREATE INDEX)
// for every class of the world as statement nodes, in deterministic order.
func SchemaStmts(w *sem.World) ([]sqldb.Stmt, error) {
	names := make([]string, 0, len(w.Classes))
	for n := range w.Classes {
		names = append(names, n)
	}
	sort.Strings(names)

	var ddl []sqldb.Stmt
	for _, n := range names {
		cls := w.Classes[n]
		cols := []sqldb.Column{{Name: "id", Type: sqldb.TInt, Primary: true}}
		var indexes []sqldb.Stmt
		for _, attr := range cls.AllAttrs() {
			if set, ok := attr.Type.(*sem.Set); ok {
				if _, ok := set.Elem.(*sem.Class); !ok {
					return nil, fmt.Errorf("sqlgen: class %s: setof %s is not a class set", n, set.Elem)
				}
				j := JunctionFor(cls, attr.Name)
				ddl = append(ddl, &sqldb.CreateTableStmt{Name: j, Cols: []sqldb.Column{
					{Name: "owner_id", Type: sqldb.TInt, NotNull: true},
					{Name: "elem_id", Type: sqldb.TInt, NotNull: true},
				}})
				indexes = append(indexes,
					&sqldb.CreateIndexStmt{Name: "idx_" + j + "_owner", Table: j, Column: "owner_id"},
					&sqldb.CreateIndexStmt{Name: "idx_" + j + "_elem", Table: j, Column: "elem_id"})
				continue
			}
			ct, err := colTypeFor(attr.Type)
			if err != nil {
				return nil, fmt.Errorf("sqlgen: class %s attribute %s: %w", n, attr.Name, err)
			}
			name := ColumnFor(attr)
			cols = append(cols, sqldb.Column{Name: name, Type: ct})
			if _, isClass := attr.Type.(*sem.Class); isClass {
				indexes = append(indexes,
					&sqldb.CreateIndexStmt{Name: "idx_" + n + "_" + name, Table: n, Column: name})
			}
		}
		ddl = append(ddl, &sqldb.CreateTableStmt{Name: n, Cols: cols})
		ddl = append(ddl, indexes...)
	}
	return ddl, nil
}

// Schema generates the DDL for every class of the world in the canonical
// kojakdb dialect, in deterministic order.
func Schema(w *sem.World) ([]string, error) {
	return RenderSchema(w, build.Kojakdb.Name)
}

// RenderSchema generates the DDL in the named dialect.
func RenderSchema(w *sem.World, dialect string) ([]string, error) {
	d, ok := build.Lookup(dialect)
	if !ok {
		return nil, fmt.Errorf("sqlgen: unknown SQL dialect %q", dialect)
	}
	stmts, err := SchemaStmts(w)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(stmts))
	for i, s := range stmts {
		r, err := d.Render(s)
		if err != nil {
			return nil, err
		}
		out[i] = r.SQL
	}
	return out, nil
}

// Statement is one parameterized SQL statement of a load plan.
type Statement struct {
	SQL    string
	Params *sqldb.Params
}

// toSQLValue converts a runtime ASL value to a SQL value.
func toSQLValue(v object.Value) (sqldb.Value, error) {
	switch x := v.(type) {
	case object.Int:
		return sqldb.NewInt(int64(x)), nil
	case object.Float:
		return sqldb.NewFloat(float64(x)), nil
	case object.Str:
		return sqldb.NewText(string(x)), nil
	case object.Bool:
		return sqldb.NewBool(bool(x)), nil
	case object.DateTime:
		return sqldb.NewInt(int64(x)), nil
	case object.Enum:
		return sqldb.NewText(x.Member), nil
	case object.Null:
		return sqldb.Null, nil
	case *object.Object:
		return sqldb.NewInt(x.ID), nil
	}
	return sqldb.Null, fmt.Errorf("sqlgen: cannot store %s value in a column", v.TypeName())
}

// LoadPlan converts an object store into one INSERT statement per object
// plus one per set membership, mirroring the record-at-a-time insertion the
// paper benchmarks. Statements come out in store allocation order. It is the
// un-routed view of RoutedLoadPlan (shard.go), which owns the single
// emission walk so routing attribution can never drift from the statements.
func LoadPlan(store *object.Store) ([]Statement, error) {
	routed, err := RoutedLoadPlan(store, nil)
	if err != nil {
		return nil, err
	}
	stmts := make([]Statement, len(routed))
	for i, rs := range routed {
		stmts[i] = rs.Statement
	}
	return stmts, nil
}

// Executor abstracts statement execution so the loader works against both
// the embedded engine and a godbc connection.
type Executor interface {
	Exec(query string, params *sqldb.Params) (affected int, err error)
}

// ExecutorFunc adapts a function to the Executor interface.
type ExecutorFunc func(query string, params *sqldb.Params) (int, error)

// Exec implements Executor.
func (f ExecutorFunc) Exec(query string, params *sqldb.Params) (int, error) {
	return f(query, params)
}

// CreateSchema runs the generated DDL against an executor.
func CreateSchema(w *sem.World, exec Executor) error {
	ddl, err := Schema(w)
	if err != nil {
		return err
	}
	for _, stmt := range ddl {
		if _, err := exec.Exec(stmt, nil); err != nil {
			return fmt.Errorf("sqlgen: %s: %w", stmt, err)
		}
	}
	return nil
}

// Load executes the full load plan for a store.
func Load(store *object.Store, exec Executor) (int, error) {
	plan, err := LoadPlan(store)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, stmt := range plan {
		if _, err := exec.Exec(stmt.SQL, stmt.Params); err != nil {
			return n, fmt.Errorf("sqlgen: %s: %w", stmt.SQL, err)
		}
		n++
	}
	return n, nil
}
