// Package build renders the engine's SQL AST (internal/sqldb's statement and
// expression nodes) per database dialect. sqlgen constructs those nodes
// directly instead of concatenating strings, and Render spells them:
// identifier validation at render time (the injection kill — no identifier
// with quotes, spaces, or punctuation ever reaches a statement), parameter
// markers, quoting, LIMIT, NULL ordering, and column types per dialect.
//
// The package declares no node types of its own: one SQL AST serves both
// what sqlgen emits and what the engine parses. Grouping is the Paren field
// of sqldb's EBinary, EUnary, EIsNull and EIn nodes; the renderer prints
// parentheses if and only if it is set.
//
// The kojakdb dialect is canonical: its rendering of every statement sqlgen
// generates is the text plan-cache and result-cache keys are built from. See
// docs/SQL.md for the generated subset grammar and the dialect divergence
// matrix.
package build

import (
	"fmt"
	"strings"

	"repro/internal/sqldb"
)

// ValidIdent reports whether s is a safe SQL identifier: a letter or
// underscore followed by letters, digits, or underscores. The renderer
// rejects everything else, in every dialect — quoting is a spelling choice,
// never an escape hatch for hostile names.
func ValidIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Rendered is the output of a Render pass.
type Rendered struct {
	// SQL is the statement text in the dialect's spelling.
	SQL string
	// ParamOrder lists named-parameter names in marker-occurrence order
	// (duplicates included) for positional-marker dialects; nil for dialects
	// with named markers. Bind position i with the value of ParamOrder[i].
	ParamOrder []string
}

// Render spells the statement for the dialect. Every identifier and
// parameter name is validated; an invalid one fails the whole render — no
// partially-escaped statement is ever returned. SELECT, INSERT, CREATE TABLE
// and CREATE INDEX render; other statements are an error.
func Render(s sqldb.Stmt, d *Dialect) (Rendered, error) {
	r := &renderer{d: d}
	r.stmt(s)
	if r.err != nil {
		return Rendered{}, r.err
	}
	if d.ParamStyle == ParamQuestion && r.sawNamed && r.sawOrdinal {
		return Rendered{}, fmt.Errorf("sqlast: dialect %s: statement mixes named and ordinal parameters; marker order would be ambiguous", d.Name)
	}
	return Rendered{SQL: r.b.String(), ParamOrder: r.order}, nil
}

// Render spells the statement for the receiver dialect.
func (d *Dialect) Render(s sqldb.Stmt) (Rendered, error) { return Render(s, d) }

type renderer struct {
	d          *Dialect
	b          strings.Builder
	order      []string
	sawNamed   bool
	sawOrdinal bool
	err        error
}

func (r *renderer) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("sqlast: "+format, args...)
	}
}

func (r *renderer) ident(s string) {
	if !ValidIdent(s) {
		r.fail("invalid identifier %q", s)
		return
	}
	if r.d.UpperIdents {
		s = strings.ToUpper(s)
	}
	if q := r.d.IdentQuote; q != 0 {
		r.b.WriteByte(q)
		r.b.WriteString(s)
		r.b.WriteByte(q)
		return
	}
	r.b.WriteString(s)
}

// list renders n comma-separated elements.
func (r *renderer) list(n int, elem func(i int)) {
	for i := 0; i < n; i++ {
		if i > 0 {
			r.b.WriteString(", ")
		}
		elem(i)
	}
}

func (r *renderer) exprs(es []sqldb.Expr) {
	r.list(len(es), func(i int) { r.expr(es[i]) })
}

func (r *renderer) stmt(s sqldb.Stmt) {
	switch x := s.(type) {
	case *sqldb.SelectStmt:
		r.sel(x)
	case *sqldb.InsertStmt:
		r.insert(x)
	case *sqldb.CreateTableStmt:
		r.createTable(x)
	case *sqldb.CreateIndexStmt:
		r.createIndex(x)
	default:
		r.fail("unhandled statement %T", s)
	}
}

func (r *renderer) table(t sqldb.TableRef) {
	r.ident(t.Table)
	if t.Alias != "" {
		r.b.WriteString(" ")
		r.ident(t.Alias)
	}
}

func (r *renderer) sel(s *sqldb.SelectStmt) {
	if s == nil {
		r.fail("nil SELECT")
		return
	}
	if len(s.Items) == 0 {
		r.fail("SELECT with no items")
		return
	}
	r.b.WriteString("SELECT ")
	r.list(len(s.Items), func(i int) {
		it := s.Items[i]
		if it.Star {
			r.b.WriteString("*")
		} else if it.Expr == nil {
			r.fail("SELECT item with neither * nor an expression")
		} else {
			r.expr(it.Expr)
		}
		if it.Alias != "" {
			r.b.WriteString(" AS ")
			r.ident(it.Alias)
		}
	})
	if s.From != nil {
		r.b.WriteString(" FROM ")
		r.table(*s.From)
		for _, j := range s.Joins {
			r.b.WriteString(" JOIN ")
			r.table(j.Table)
			r.b.WriteString(" ON ")
			r.expr(j.On)
		}
	} else if len(s.Joins) > 0 {
		r.fail("JOIN without FROM")
	}
	if s.Where != nil {
		r.b.WriteString(" WHERE ")
		r.expr(s.Where)
	}
	if len(s.GroupBy) > 0 {
		r.b.WriteString(" GROUP BY ")
		r.exprs(s.GroupBy)
	}
	if s.Having != nil {
		r.b.WriteString(" HAVING ")
		r.expr(s.Having)
	}
	if len(s.OrderBy) > 0 {
		r.b.WriteString(" ORDER BY ")
		r.list(len(s.OrderBy), func(i int) {
			k := s.OrderBy[i]
			r.expr(k.Expr)
			if k.Desc {
				r.b.WriteString(" DESC")
			}
			switch {
			case k.NullsFirst:
				r.b.WriteString(" NULLS FIRST")
			case r.d.ExplicitNullOrder:
				r.b.WriteString(" NULLS LAST")
			}
		})
	}
	if s.Limit != nil {
		switch r.d.LimitStyle {
		case LimitKeyword:
			r.b.WriteString(" LIMIT ")
			r.expr(s.Limit)
		case LimitFetchFirst:
			r.b.WriteString(" FETCH FIRST ")
			r.expr(s.Limit)
			r.b.WriteString(" ROWS ONLY")
		case LimitUnsupported:
			r.fail("dialect %s has no semantics-preserving LIMIT spelling", r.d.Name)
		}
	}
}

func (r *renderer) insert(s *sqldb.InsertStmt) {
	if len(s.Rows) == 0 {
		r.fail("INSERT INTO %s with no rows", s.Table)
		return
	}
	for _, row := range s.Rows {
		if len(row) != len(s.Cols) {
			r.fail("INSERT INTO %s: %d columns but %d values", s.Table, len(s.Cols), len(row))
			return
		}
	}
	r.b.WriteString("INSERT INTO ")
	r.ident(s.Table)
	r.b.WriteString(" (")
	r.list(len(s.Cols), func(i int) { r.ident(s.Cols[i]) })
	r.b.WriteString(") VALUES ")
	r.list(len(s.Rows), func(i int) {
		r.b.WriteString("(")
		r.exprs(s.Rows[i])
		r.b.WriteString(")")
	})
}

func (r *renderer) createTable(s *sqldb.CreateTableStmt) {
	if len(s.Cols) == 0 {
		r.fail("CREATE TABLE %s with no columns", s.Name)
		return
	}
	r.b.WriteString("CREATE TABLE ")
	r.ident(s.Name)
	r.b.WriteString(" (")
	r.list(len(s.Cols), func(i int) {
		c := s.Cols[i]
		r.ident(c.Name)
		if c.Type < 0 || int(c.Type) >= len(r.d.Types) {
			r.fail("CREATE TABLE %s: column %s has unknown type %d", s.Name, c.Name, c.Type)
			return
		}
		r.b.WriteString(" ")
		r.b.WriteString(r.d.Types[c.Type])
		if c.Primary {
			r.b.WriteString(" PRIMARY KEY")
		}
		if c.NotNull {
			r.b.WriteString(" NOT NULL")
		}
	})
	r.b.WriteString(")")
}

func (r *renderer) createIndex(s *sqldb.CreateIndexStmt) {
	r.b.WriteString("CREATE INDEX ")
	r.ident(s.Name)
	r.b.WriteString(" ON ")
	r.ident(s.Table)
	r.b.WriteString(" (")
	r.ident(s.Column)
	r.b.WriteString(")")
}

// open and close print the parentheses of a node whose Paren field is set.
func (r *renderer) open(paren bool) {
	if paren {
		r.b.WriteString("(")
	}
}

func (r *renderer) close(paren bool) {
	if paren {
		r.b.WriteString(")")
	}
}

func (r *renderer) expr(e sqldb.Expr) {
	switch x := e.(type) {
	case *sqldb.ELit:
		switch {
		case r.d.BoolAsInt && x.Value.IsBool() && x.Value.Bool():
			r.b.WriteString("1")
		case r.d.BoolAsInt && x.Value.IsBool():
			r.b.WriteString("0")
		default:
			r.b.WriteString(x.Value.String())
		}
	case *sqldb.EParam:
		if x.Name == "" {
			r.sawOrdinal = true
			r.b.WriteString("?")
			return
		}
		if !ValidIdent(x.Name) {
			r.fail("invalid parameter name %q", x.Name)
			return
		}
		r.sawNamed = true
		switch r.d.ParamStyle {
		case ParamDollar:
			r.b.WriteString("$")
			r.b.WriteString(x.Name)
		case ParamColon:
			r.b.WriteString(":")
			r.b.WriteString(x.Name)
		case ParamQuestion:
			r.b.WriteString("?")
			r.order = append(r.order, x.Name)
		}
	case *sqldb.EColumn:
		if x.Qual != "" {
			r.ident(x.Qual)
			r.b.WriteString(".")
		}
		r.ident(x.Name)
	case *sqldb.EBinary:
		r.open(x.Paren)
		r.expr(x.L)
		r.b.WriteString(" ")
		r.b.WriteString(x.Op.String())
		r.b.WriteString(" ")
		r.expr(x.R)
		r.close(x.Paren)
	case *sqldb.EUnary:
		r.open(x.Paren)
		switch {
		case !x.Neg:
			r.b.WriteString("NOT ")
		case leadsWithMinus(x.X):
			r.b.WriteString("- ") // "--" would open a comment
		default:
			r.b.WriteString("-")
		}
		r.expr(x.X)
		r.close(x.Paren)
	case *sqldb.EIsNull:
		r.open(x.Paren)
		r.expr(x.X)
		if x.Not {
			r.b.WriteString(" IS NOT NULL")
		} else {
			r.b.WriteString(" IS NULL")
		}
		r.close(x.Paren)
	case *sqldb.ECall:
		// Function names share the identifier alphabet but are never
		// quoted or case-folded: they name engine builtins, not schema
		// objects.
		if !ValidIdent(x.Name) {
			r.fail("invalid function name %q", x.Name)
			return
		}
		r.b.WriteString(x.Name)
		r.b.WriteString("(")
		if x.Star {
			r.b.WriteString("*")
		}
		r.exprs(x.Args)
		r.b.WriteString(")")
	case *sqldb.ESubquery:
		r.b.WriteString("(")
		r.sel(x.Select)
		r.b.WriteString(")")
	case *sqldb.EIn:
		r.open(x.Paren)
		r.expr(x.X)
		if x.Not {
			r.b.WriteString(" NOT IN (")
		} else {
			r.b.WriteString(" IN (")
		}
		if x.Sub != nil {
			r.sel(x.Sub)
		} else {
			r.exprs(x.List)
		}
		r.b.WriteString(")")
		r.close(x.Paren)
	case *sqldb.EExists:
		r.b.WriteString("EXISTS (")
		r.sel(x.Select)
		r.b.WriteString(")")
	case nil:
		r.fail("nil expression")
	default:
		r.fail("unhandled expression %T", e)
	}
}

// leadsWithMinus reports whether e renders starting with a '-'.
func leadsWithMinus(e sqldb.Expr) bool {
	switch x := e.(type) {
	case *sqldb.ELit:
		return strings.HasPrefix(x.Value.String(), "-")
	case *sqldb.EUnary:
		return x.Neg && !x.Paren
	case *sqldb.EBinary:
		return !x.Paren && leadsWithMinus(x.L)
	case *sqldb.EIsNull:
		return !x.Paren && leadsWithMinus(x.X)
	case *sqldb.EIn:
		return !x.Paren && leadsWithMinus(x.X)
	}
	return false
}
