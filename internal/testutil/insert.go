package testutil

import (
	"fmt"

	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// RowInsert is one single-row INSERT and its parameters.
type RowInsert struct {
	SQL    string
	Params *sqldb.Params
}

// RowInserts splits a multi-row INSERT into one INSERT per VALUES row,
// rendered in the canonical dialect, in row order: the record-at-a-time
// insertion the paper measures. Each statement binds its own row's
// positional parameters; any other value expression is kept as it is.
func RowInserts(sql string, params *sqldb.Params) ([]RowInsert, error) {
	stmt, err := sqldb.ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	ins, ok := stmt.(*sqldb.InsertStmt)
	if !ok {
		return nil, fmt.Errorf("testutil: %T is not an INSERT", stmt)
	}
	out := make([]RowInsert, len(ins.Rows))
	for r, exprs := range ins.Rows {
		row := make([]sqldb.Expr, len(exprs))
		var vals []sqldb.Value
		for i, e := range exprs {
			row[i] = e
			if p, ok := e.(*sqldb.EParam); ok && p.Name == "" {
				if params == nil || p.Ordinal >= len(params.Positional) {
					return nil, fmt.Errorf("testutil: row %d: parameter %d unbound", r, p.Ordinal)
				}
				row[i] = &sqldb.EParam{Ordinal: len(vals)}
				vals = append(vals, params.Positional[p.Ordinal])
			}
		}
		rendered, err := build.Kojakdb.Render(&sqldb.InsertStmt{Table: ins.Table, Cols: ins.Cols, Rows: [][]sqldb.Expr{row}})
		if err != nil {
			return nil, err
		}
		out[r] = RowInsert{SQL: rendered.SQL, Params: &sqldb.Params{Positional: vals}}
	}
	return out, nil
}
