package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// sqlToken kinds.
type sqlTokKind int

const (
	sqlEOF sqlTokKind = iota
	sqlIdent
	sqlQIdent // "quoted identifier": never a keyword or literal
	sqlNumber
	sqlString
	sqlParam  // ?, $name, or :name
	sqlSymbol // punctuation / operators, Text holds spelling
)

type sqlTok struct {
	kind sqlTokKind
	text string
	off  int
}

// sqlLex tokenizes a SQL statement.
func sqlLex(src string) ([]sqlTok, error) {
	var toks []sqlTok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isSQLLetter(c):
			start := i
			for i < len(src) && (isSQLLetter(src[i]) || isSQLDigit(src[i])) {
				i++
			}
			toks = append(toks, sqlTok{sqlIdent, src[start:i], start})
		case isSQLDigit(c):
			start := i
			for i < len(src) && (isSQLDigit(src[i]) || src[i] == '.' || src[i] == 'e' || src[i] == 'E' ||
				((src[i] == '+' || src[i] == '-') && i > start && (src[i-1] == 'e' || src[i-1] == 'E'))) {
				i++
			}
			toks = append(toks, sqlTok{sqlNumber, src[start:i], start})
		case c == '\'':
			i++
			var b strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				b.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sqldb: unterminated string literal at offset %d", i)
			}
			toks = append(toks, sqlTok{sqlString, b.String(), i})
		case c == '"':
			start := i
			i++
			for i < len(src) && src[i] != '"' {
				i++
			}
			if i >= len(src) {
				return nil, fmt.Errorf("sqldb: unterminated quoted identifier at offset %d", start)
			}
			if i == start+1 {
				return nil, fmt.Errorf("sqldb: empty quoted identifier at offset %d", start)
			}
			toks = append(toks, sqlTok{sqlQIdent, src[start+1 : i], start})
			i++
		case c == '?':
			toks = append(toks, sqlTok{sqlParam, "?", i})
			i++
		case c == '$' || c == ':':
			start := i
			i++
			for i < len(src) && (isSQLLetter(src[i]) || isSQLDigit(src[i])) {
				i++
			}
			if i == start+1 {
				return nil, fmt.Errorf("sqldb: bare %c at offset %d", c, start)
			}
			toks = append(toks, sqlTok{sqlParam, src[start:i], start})
		default:
			// Two-character operators first.
			if i+1 < len(src) {
				two := src[i : i+2]
				switch two {
				case "<=", ">=", "<>", "!=", "||", "==":
					toks = append(toks, sqlTok{sqlSymbol, two, i})
					i += 2
					continue
				}
			}
			switch c {
			case '+', '-', '*', '/', '%', '=', '<', '>', '(', ')', ',', ';', '.':
				toks = append(toks, sqlTok{sqlSymbol, string(c), i})
				i++
			default:
				return nil, fmt.Errorf("sqldb: illegal character %q at offset %d", string(c), i)
			}
		}
	}
	toks = append(toks, sqlTok{sqlEOF, "", len(src)})
	return toks, nil
}

func isSQLLetter(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
}

func isSQLDigit(c byte) bool { return '0' <= c && c <= '9' }

// sqlParser parses one SQL statement.
type sqlParser struct {
	toks    []sqlTok
	pos     int
	nparams int // positional parameter counter
}

// ParseSQL parses a single SQL statement.
func ParseSQL(src string) (Stmt, error) {
	toks, err := sqlLex(src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	p.acceptSym(";")
	if p.cur().kind != sqlEOF {
		return nil, fmt.Errorf("sqldb: unexpected %q after statement", p.cur().text)
	}
	return stmt, nil
}

func (p *sqlParser) cur() sqlTok { return p.toks[p.pos] }

func (p *sqlParser) next() sqlTok {
	t := p.toks[p.pos]
	if t.kind != sqlEOF {
		p.pos++
	}
	return t
}

// isKw reports whether the current token is the given keyword
// (case-insensitive).
func (p *sqlParser) isKw(kw string) bool {
	t := p.cur()
	return t.kind == sqlIdent && strings.EqualFold(t.text, kw)
}

func (p *sqlParser) acceptKw(kw string) bool {
	if p.isKw(kw) {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return fmt.Errorf("sqldb: expected %s, found %q", kw, p.cur().text)
	}
	return nil
}

func (p *sqlParser) acceptSym(s string) bool {
	t := p.cur()
	if t.kind == sqlSymbol && t.text == s {
		p.next()
		return true
	}
	return false
}

func (p *sqlParser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return fmt.Errorf("sqldb: expected %q, found %q", s, p.cur().text)
	}
	return nil
}

func (p *sqlParser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != sqlIdent && t.kind != sqlQIdent {
		return "", fmt.Errorf("sqldb: expected identifier, found %q", t.text)
	}
	p.next()
	return t.text, nil
}

// curIsIdent reports whether the current token is a bare or quoted
// identifier.
func (p *sqlParser) curIsIdent() bool {
	k := p.cur().kind
	return k == sqlIdent || k == sqlQIdent
}

func (p *sqlParser) parseStmt() (Stmt, error) {
	switch {
	case p.isKw("CREATE"):
		p.next()
		switch {
		case p.acceptKw("TABLE"):
			return p.parseCreateTable()
		case p.acceptKw("INDEX"):
			return p.parseCreateIndex()
		}
		return nil, fmt.Errorf("sqldb: expected TABLE or INDEX after CREATE")
	case p.isKw("DROP"):
		p.next()
		if err := p.expectKw("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Name: name}, nil
	case p.isKw("INSERT"):
		return p.parseInsert()
	case p.isKw("SELECT"):
		return p.parseSelect()
	case p.isKw("UPDATE"):
		return p.parseUpdate()
	case p.isKw("DELETE"):
		return p.parseDelete()
	}
	return nil, fmt.Errorf("sqldb: expected statement, found %q", p.cur().text)
}

func (p *sqlParser) parseCreateTable() (Stmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var cols []Column
	for {
		cname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		tname, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		var col Column
		col.Name = cname
		switch strings.ToUpper(tname) {
		case "INTEGER", "INT", "BIGINT", "TIMESTAMP":
			col.Type = TInt
		case "REAL", "FLOAT", "DOUBLE":
			col.Type = TFloat
		case "TEXT", "VARCHAR", "CHAR", "STRING":
			col.Type = TText
			// Optional length, e.g. VARCHAR(64): parsed and ignored.
			if p.acceptSym("(") {
				if _, err := p.expectIdentOrNumber(); err != nil {
					return nil, err
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
		case "BOOLEAN", "BOOL":
			col.Type = TBool
		default:
			return nil, fmt.Errorf("sqldb: unknown column type %s", tname)
		}
		for {
			if p.acceptKw("NOT") {
				if err := p.expectKw("NULL"); err != nil {
					return nil, err
				}
				col.NotNull = true
				continue
			}
			if p.acceptKw("PRIMARY") {
				if err := p.expectKw("KEY"); err != nil {
					return nil, err
				}
				col.Primary = true
				continue
			}
			break
		}
		cols = append(cols, col)
		if !p.acceptSym(",") {
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Name: name, Cols: cols}, nil
}

func (p *sqlParser) expectIdentOrNumber() (string, error) {
	t := p.cur()
	if t.kind != sqlIdent && t.kind != sqlNumber {
		return "", fmt.Errorf("sqldb: expected identifier or number, found %q", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *sqlParser) parseCreateIndex() (Stmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	col, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Column: col}, nil
}

func (p *sqlParser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if p.acceptSym("(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Cols = append(st.Cols, c)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.acceptSym(",") {
			break
		}
	}
	return st, nil
}

func (p *sqlParser) parseUpdate() (Stmt, error) {
	p.next() // UPDATE
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, SetClause{Column: col, Value: e})
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *sqlParser) parseDelete() (Stmt, error) {
	p.next() // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.acceptKw("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *sqlParser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{}
	for {
		if p.acceptSym("*") {
			st.Items = append(st.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKw("AS") {
				a, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.curIsIdent() && !p.isSelectTerminator() {
				item.Alias = p.next().text
			}
			st.Items = append(st.Items, item)
		}
		if !p.acceptSym(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		st.From = &ref
		for {
			inner := p.acceptKw("INNER")
			if !p.acceptKw("JOIN") {
				if inner {
					return nil, fmt.Errorf("sqldb: expected JOIN after INNER")
				}
				break
			}
			jref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			on, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Joins = append(st.Joins, Join{Table: jref, On: on})
		}
	}
	var err error
	if p.acceptKw("WHERE") {
		if st.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		if st.Having, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			if p.acceptKw("NULLS") {
				if p.acceptKw("FIRST") {
					item.NullsFirst = true
				} else if err := p.expectKw("LAST"); err != nil {
					return nil, err
				}
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.acceptSym(",") {
				break
			}
		}
	}
	switch {
	case p.acceptKw("LIMIT"):
		if st.Limit, err = p.parseExpr(); err != nil {
			return nil, err
		}
	case p.acceptKw("FETCH"):
		// SQL:2008 "FETCH FIRST n ROWS ONLY", equivalent to LIMIT n.
		if err := p.expectKw("FIRST"); err != nil {
			return nil, err
		}
		if st.Limit, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if !p.acceptKw("ROWS") {
			if err := p.expectKw("ROW"); err != nil {
				return nil, err
			}
		}
		if err := p.expectKw("ONLY"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// isSelectTerminator reports whether the current identifier token is a
// clause keyword rather than an implicit column alias.
func (p *sqlParser) isSelectTerminator() bool {
	for _, kw := range [...]string{"FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "FETCH", "JOIN", "INNER", "ON", "AS"} {
		if p.isKw(kw) {
			return true
		}
	}
	return false
}

func (p *sqlParser) parseTableRef() (TableRef, error) {
	name, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.acceptKw("AS") {
		if ref.Alias, err = p.expectIdent(); err != nil {
			return TableRef{}, err
		}
	} else if p.curIsIdent() && !p.isSelectTerminator() {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// Expression parsing, precedence climbing: OR < AND < NOT < comparison < IS
// < additive < multiplicative < unary.

func (p *sqlParser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *sqlParser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &EBinary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &EBinary{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *sqlParser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &EUnary{Neg: false, X: x}, nil
	}
	return p.parseComparison()
}

func (p *sqlParser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.acceptKw("IS") {
		not := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &EIsNull{X: l, Not: not}, nil
	}
	// [NOT] IN
	not := false
	if p.isKw("NOT") && p.toks[p.pos+1].kind == sqlIdent && strings.EqualFold(p.toks[p.pos+1].text, "IN") {
		p.next()
		not = true
	}
	if p.acceptKw("IN") {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		if p.isKw("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return &EIn{X: l, Sub: sub, Not: not}, nil
		}
		var list []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.acceptSym(",") {
				break
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &EIn{X: l, List: list, Not: not}, nil
	}
	t := p.cur()
	if t.kind == sqlSymbol {
		var op BinOp
		ok := true
		switch t.text {
		case "=", "==":
			op = OpEq
		case "<>", "!=":
			op = OpNeq
		case "<":
			op = OpLt
		case "<=":
			op = OpLeq
		case ">":
			op = OpGt
		case ">=":
			op = OpGeq
		default:
			ok = false
		}
		if ok {
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &EBinary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *sqlParser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != sqlSymbol {
			return l, nil
		}
		var op BinOp
		switch t.text {
		case "+":
			op = OpAdd
		case "-":
			op = OpSub
		case "||":
			op = OpConcat
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &EBinary{Op: op, L: l, R: r}
	}
}

func (p *sqlParser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != sqlSymbol {
			return l, nil
		}
		var op BinOp
		switch t.text {
		case "*":
			op = OpMul
		case "/":
			op = OpDiv
		case "%":
			op = OpMod
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &EBinary{Op: op, L: l, R: r}
	}
}

func (p *sqlParser) parseUnary() (Expr, error) {
	if p.acceptSym("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &EUnary{Neg: true, X: x}, nil
	}
	if p.acceptSym("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *sqlParser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case sqlNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sqldb: bad number %q", t.text)
			}
			return &ELit{Value: NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sqldb: bad number %q", t.text)
		}
		return &ELit{Value: NewInt(i)}, nil
	case sqlString:
		p.next()
		return &ELit{Value: NewText(t.text)}, nil
	case sqlParam:
		p.next()
		if t.text == "?" {
			e := &EParam{Ordinal: p.nparams}
			p.nparams++
			return e, nil
		}
		return &EParam{Ordinal: -1, Name: t.text[1:]}, nil
	case sqlSymbol:
		if t.text == "(" {
			p.next()
			if p.isKw("SELECT") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				return &ESubquery{Select: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			switch x := e.(type) {
			case *EBinary:
				x.Paren = true
			case *EUnary:
				x.Paren = true
			case *EIsNull:
				x.Paren = true
			case *EIn:
				x.Paren = true
			}
			return e, nil
		}
	case sqlIdent:
		switch {
		case strings.EqualFold(t.text, "NULL"):
			p.next()
			return &ELit{Value: Null}, nil
		case strings.EqualFold(t.text, "TRUE"):
			p.next()
			return &ELit{Value: NewBool(true)}, nil
		case strings.EqualFold(t.text, "FALSE"):
			p.next()
			return &ELit{Value: NewBool(false)}, nil
		case strings.EqualFold(t.text, "EXISTS"):
			p.next()
			if err := p.expectSym("("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			return &EExists{Select: sub}, nil
		}
		p.next()
		return p.identTail(t)
	case sqlQIdent:
		// A quoted identifier is never a keyword or literal: it heads a
		// column reference (or a function call, which the engine will
		// reject by name).
		p.next()
		return p.identTail(t)
	}
	return nil, fmt.Errorf("sqldb: expected expression, found %q", t.text)
}

// identTail parses what may follow an identifier heading an expression: a
// function-call argument list, a qualified column, or nothing (a bare
// column).
func (p *sqlParser) identTail(t sqlTok) (Expr, error) {
	// Function call?
	if p.acceptSym("(") {
		call := &ECall{Name: t.text}
		if p.acceptSym("*") {
			call.Star = true
		} else if !p.acceptSym(")") {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.acceptSym(",") {
					break
				}
			}
			return call, p.expectSym(")")
		} else {
			return call, nil
		}
		return call, p.expectSym(")")
	}
	// Qualified column?
	if p.acceptSym(".") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return NewEColumn(t.text, col), nil
	}
	return NewEColumn("", t.text), nil
}
