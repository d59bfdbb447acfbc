package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/asl/object"
	"repro/internal/asl/sqlgen"
	"repro/internal/model"
)

// Repository is the COSY database contents: multiple applications, each
// with versions and test runs, sharing one object store (and therefore one
// relational database). The paper: "The database includes multiple
// applications with different versions and multiple test runs per program
// version. The user interface of COSY allows to select a program version
// and a specific test run."
type Repository struct {
	store  *object.Store
	graphs map[string]*model.Graph
	order  []string
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{store: object.NewStore(), graphs: make(map[string]*model.Graph)}
}

// Add materializes a dataset into the shared store. Program names must be
// unique within the repository.
func (r *Repository) Add(d *model.Dataset) (*model.Graph, error) {
	if _, dup := r.graphs[d.Program]; dup {
		return nil, fmt.Errorf("core: program %s already in repository", d.Program)
	}
	g, err := model.BuildInto(r.store, d)
	if err != nil {
		return nil, err
	}
	r.graphs[d.Program] = g
	r.order = append(r.order, d.Program)
	return g, nil
}

// Programs lists the stored applications in insertion order.
func (r *Repository) Programs() []string { return append([]string(nil), r.order...) }

// Graph returns the graph of a stored program, or nil.
func (r *Repository) Graph(program string) *model.Graph { return r.graphs[program] }

// Load creates the schema and loads the entire repository through the
// executor.
func (r *Repository) Load(exec sqlgen.Executor) error {
	w, err := model.CompileSpec()
	if err != nil {
		return err
	}
	if err := sqlgen.CreateSchema(w, exec); err != nil {
		return err
	}
	_, err = sqlgen.Load(r.store, exec)
	return err
}

// Analyzer returns an analyzer for one stored program.
func (r *Repository) Analyzer(program string, opts ...Option) (*Analyzer, error) {
	g, ok := r.graphs[program]
	if !ok {
		return nil, fmt.Errorf("core: program %s not in repository", program)
	}
	return New(g, opts...), nil
}

// Delta is one entry of a report comparison: how the severity of a property
// instance changed between two analyses (two test runs, or the same run of
// two program versions).
type Delta struct {
	Property string
	Context  string
	Before   float64
	After    float64
}

// Change returns the severity difference (positive means it got worse).
func (d Delta) Change() float64 { return d.After - d.Before }

// CompareReports matches instances of two reports by (property, context)
// and returns the severity deltas sorted by decreasing absolute change.
// Instances present in only one report compare against zero.
func CompareReports(before, after *Report) []Delta {
	type key struct{ p, c string }
	m := make(map[key]*Delta)
	for _, in := range before.Instances {
		m[key{in.Property, in.Context}] = &Delta{Property: in.Property, Context: in.Context, Before: in.Severity}
	}
	for _, in := range after.Instances {
		k := key{in.Property, in.Context}
		if d, ok := m[k]; ok {
			d.After = in.Severity
		} else {
			m[k] = &Delta{Property: in.Property, Context: in.Context, After: in.Severity}
		}
	}
	out := make([]Delta, 0, len(m))
	for _, d := range m {
		out = append(out, *d)
	}
	sort.SliceStable(out, func(i, j int) bool {
		ci, cj := math.Abs(out[i].Change()), math.Abs(out[j].Change())
		if ci != cj {
			return ci > cj
		}
		if out[i].Property != out[j].Property {
			return out[i].Property < out[j].Property
		}
		return out[i].Context < out[j].Context
	})
	return out
}

// RenderDeltas formats a comparison as a text table.
func RenderDeltas(deltas []Delta) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-34s %10s %10s %10s\n", "PROPERTY", "CONTEXT", "BEFORE", "AFTER", "CHANGE")
	for _, d := range deltas {
		fmt.Fprintf(&b, "%-28s %-34s %10.4f %10.4f %+10.4f\n", d.Property, d.Context, d.Before, d.After, d.Change())
	}
	return b.String()
}
