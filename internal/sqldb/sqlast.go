package sqldb

import "strings"

// Stmt is a parsed SQL statement.
type Stmt interface{ stmt() }

// CreateTableStmt is CREATE TABLE name (col type [NOT NULL] [PRIMARY KEY], ...).
type CreateTableStmt struct {
	Name string
	Cols []Column
}

// CreateIndexStmt is CREATE INDEX name ON table (column).
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
}

// DropTableStmt is DROP TABLE name.
type DropTableStmt struct{ Name string }

// InsertStmt is INSERT INTO table (cols) VALUES (...), (...).
type InsertStmt struct {
	Table string
	Cols  []string
	Rows  [][]Expr
}

// UpdateStmt is UPDATE table SET col = expr, ... [WHERE expr].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// SetClause is one "col = expr" assignment.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM table [WHERE expr].
type DeleteStmt struct {
	Table string
	Where Expr
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Binding returns the name the table is referenced by in expressions.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// Join is one JOIN clause.
type Join struct {
	Table TableRef
	On    Expr
}

// SelectItem is one projection of a SELECT list.
type SelectItem struct {
	Star  bool   // SELECT *
	Expr  Expr   // nil when Star
	Alias string // optional AS alias
}

// OrderItem is one ORDER BY key. NULLs sort last by default regardless of
// direction; NULLS FIRST asks for the opposite (NULLS LAST spells out the
// default and parses to the zero value).
type OrderItem struct {
	Expr       Expr
	Desc       bool
	NullsFirst bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Items   []SelectItem
	From    *TableRef // nil for table-less SELECT (e.g. SELECT 1+1)
	Joins   []Join
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   Expr // nil if absent
}

func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*SelectStmt) stmt()      {}

// Expr is a SQL expression.
type Expr interface{ sqlExpr() }

// EColumn is a (possibly qualified) column reference. The lower-cased
// spellings are precomputed at parse time; resolution is case-insensitive
// and hot.
type EColumn struct {
	Qual string // table or alias; empty if unqualified
	Name string

	lowQual string
	lowName string
}

// NewEColumn builds a column reference with its lower-cased lookup keys.
func NewEColumn(qual, name string) *EColumn {
	return &EColumn{Qual: qual, Name: name, lowQual: strings.ToLower(qual), lowName: strings.ToLower(name)}
}

// keys returns the lower-cased qualifier and name, computing them if the
// literal was constructed directly.
func (c *EColumn) keys() (string, string) {
	if c.lowName == "" && c.Name != "" {
		c.lowQual, c.lowName = strings.ToLower(c.Qual), strings.ToLower(c.Name)
	}
	return c.lowQual, c.lowName
}

// ELit is a literal value.
type ELit struct{ Value Value }

// EParam is a statement parameter: positional "?" (Ordinal >= 0, Name empty)
// or named "$name".
type EParam struct {
	Ordinal int
	Name    string
}

// BinOp is a binary SQL operator.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNeq
	OpLt
	OpLeq
	OpGt
	OpGeq
	OpAnd
	OpOr
	OpConcat
)

// String returns the SQL spelling.
func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpEq:
		return "="
	case OpNeq:
		return "<>"
	case OpLt:
		return "<"
	case OpLeq:
		return "<="
	case OpGt:
		return ">"
	case OpGeq:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpConcat:
		return "||"
	}
	return "?"
}

// EBinary is a binary operation.
//
// Paren, here and on EUnary, EIsNull and EIn, records explicit grouping: the
// parser sets it where the source wrote parentheses, and the dialect
// renderer (internal/sqlast/build) prints them if and only if it is set. The
// engine never reads it; FormatExpr ignores it.
type EBinary struct {
	Op    BinOp
	L, R  Expr
	Paren bool
}

// EUnary is unary minus or NOT.
type EUnary struct {
	X     Expr
	Neg   bool // true: -x, false: NOT x
	Paren bool
}

// ECall is a function or aggregate call; Star marks COUNT(*).
type ECall struct {
	Name string
	Args []Expr
	Star bool
}

// IsAggregate reports whether the call is one of the built-in aggregates.
func (c *ECall) IsAggregate() bool {
	switch strings.ToUpper(c.Name) {
	case "SUM", "MIN", "MAX", "AVG", "COUNT":
		return true
	}
	return false
}

// ESubquery is a scalar subquery "(SELECT ...)".
type ESubquery struct{ Select *SelectStmt }

// EIsNull is "x IS [NOT] NULL".
type EIsNull struct {
	X     Expr
	Not   bool
	Paren bool
}

// EIn is "x IN (SELECT ...)" or "x IN (e1, e2, ...)".
type EIn struct {
	X     Expr
	Sub   *SelectStmt // nil when List is set
	List  []Expr
	Not   bool
	Paren bool
}

// EExists is "EXISTS (SELECT ...)".
type EExists struct{ Select *SelectStmt }

func (*EColumn) sqlExpr()   {}
func (*ELit) sqlExpr()      {}
func (*EParam) sqlExpr()    {}
func (*EBinary) sqlExpr()   {}
func (*EUnary) sqlExpr()    {}
func (*ECall) sqlExpr()     {}
func (*ESubquery) sqlExpr() {}
func (*EIsNull) sqlExpr()   {}
func (*EIn) sqlExpr()       {}
func (*EExists) sqlExpr()   {}

// hasAggregate reports whether the expression contains an aggregate call not
// nested inside a subquery.
func hasAggregate(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *EBinary:
		return hasAggregate(x.L) || hasAggregate(x.R)
	case *EUnary:
		return hasAggregate(x.X)
	case *ECall:
		if x.IsAggregate() {
			return true
		}
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
		return false
	case *EIsNull:
		return hasAggregate(x.X)
	case *EIn:
		if hasAggregate(x.X) {
			return true
		}
		for _, a := range x.List {
			if hasAggregate(a) {
				return true
			}
		}
		return false
	}
	return false
}
