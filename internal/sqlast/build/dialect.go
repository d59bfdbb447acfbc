package build

import "sort"

// ParamStyle selects how a dialect spells statement parameters.
type ParamStyle int

// Parameter marker styles.
const (
	// ParamDollar spells named parameters "$name" (kojakdb).
	ParamDollar ParamStyle = iota
	// ParamColon spells named parameters ":name" (Oracle OCI).
	ParamColon
	// ParamQuestion spells every parameter as a positional "?" (SQL-92
	// dynamic SQL); the renderer reports the marker-order parameter names in
	// Rendered.ParamOrder so callers can bind by position.
	ParamQuestion
)

// LimitStyle selects how a dialect spells a row limit.
type LimitStyle int

// Row-limit spellings.
const (
	// LimitKeyword is "LIMIT n".
	LimitKeyword LimitStyle = iota
	// LimitFetchFirst is "FETCH FIRST n ROWS ONLY" (SQL:2008 / DB2).
	LimitFetchFirst
	// LimitUnsupported makes rendering a Select with a Limit an error: the
	// dialect has no semantics-preserving spelling (Oracle 7 ROWNUM
	// predicates filter before ORDER BY).
	LimitUnsupported
)

// Dialect describes how to spell a statement for one database family. All
// divergence is declarative — the renderer is shared — so the dialect matrix
// in docs/SQL.md is read straight off these fields.
type Dialect struct {
	Name string

	// IdentQuote wraps identifiers in the given quote byte; zero renders
	// them bare. Identifiers are validated either way.
	IdentQuote byte
	// UpperIdents folds identifiers to upper case (the historic Oracle
	// data-dictionary convention).
	UpperIdents bool

	ParamStyle ParamStyle
	LimitStyle LimitStyle

	// ExplicitNullOrder renders NULLS FIRST/LAST on every ORDER BY key.
	// The engine default (and the ASL contract) is NULLs-last regardless of
	// direction; dialects whose vendor default differs must spell it out.
	ExplicitNullOrder bool

	// BoolAsInt renders TRUE/FALSE as 1/0 for dialects without boolean
	// literals.
	BoolAsInt bool

	// Types spells the column types, indexed by sqldb.ColType.
	Types [4]string
}

// Kojakdb is the canonical dialect: the exact strings the pre-AST sqlgen
// compiler concatenated, byte for byte, so plan-cache and result-cache keys
// survive the refactor.
var Kojakdb = &Dialect{
	Name:       "kojakdb",
	ParamStyle: ParamDollar,
	LimitStyle: LimitKeyword,
	Types:      [4]string{"INTEGER", "REAL", "TEXT", "BOOLEAN"},
}

// ANSI targets the standard: quoted identifiers, positional "?" markers
// (SQL-92 dynamic SQL), FETCH FIRST, and explicit NULL ordering.
var ANSI = &Dialect{
	Name:              "ansi",
	IdentQuote:        '"',
	ParamStyle:        ParamQuestion,
	LimitStyle:        LimitFetchFirst,
	ExplicitNullOrder: true,
	Types:             [4]string{"INTEGER", "DOUBLE PRECISION", "VARCHAR(255)", "BOOLEAN"},
}

// Oracle7 targets the oldest vendor of the paper's Section 5 comparison:
// upper-cased bare identifiers, ":name" markers, no boolean type (NUMBER(1)
// with 1/0 literals), no LIMIT spelling at all, and explicit NULL ordering
// (the vendor default is NULLs-high — last ascending but first descending,
// unlike the engine contract).
var Oracle7 = &Dialect{
	Name:              "oracle7",
	UpperIdents:       true,
	ParamStyle:        ParamColon,
	LimitStyle:        LimitUnsupported,
	ExplicitNullOrder: true,
	BoolAsInt:         true,
	Types:             [4]string{"NUMBER(19)", "NUMBER", "VARCHAR2(255)", "NUMBER(1)"},
}

var dialects = map[string]*Dialect{
	Kojakdb.Name: Kojakdb,
	ANSI.Name:    ANSI,
	Oracle7.Name: Oracle7,
}

// Lookup returns the named dialect.
func Lookup(name string) (*Dialect, bool) {
	d, ok := dialects[name]
	return d, ok
}

// Names returns the registered dialect names, sorted.
func Names() []string {
	out := make([]string, 0, len(dialects))
	for n := range dialects {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
