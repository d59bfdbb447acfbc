package main

import (
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkBatchedAnalyze/oracle-remote/prepared/workers=1         	       3	 383983570 ns/op
BenchmarkBatchedAnalyze/oracle-remote/batch=32/workers=1         	       3	  41357539 ns/op
BenchmarkBatchedAnalyze/oracle-remote/batch=32/workers=1         	       3	  41221004 ns/op
BenchmarkInsertionByBackend/oracle7-8     	      12	  98210042 ns/op	        52.31 ns/record
PASS
ok  	repro	2.905s
?   	repro/cmd/benchjson	[no test files]
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.GOOS != "linux" || doc.GOARCH != "amd64" || doc.Pkg != "repro" {
		t.Fatalf("metadata: %+v", doc)
	}
	if !strings.Contains(doc.CPU, "Xeon") {
		t.Fatalf("cpu: %q", doc.CPU)
	}
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkBatchedAnalyze/oracle-remote/prepared/workers=1" || b.Iterations != 3 {
		t.Fatalf("first benchmark: %+v", b)
	}
	if b.Metrics["ns/op"] != 383983570 {
		t.Fatalf("ns/op: %v", b.Metrics)
	}
	// Repeated -count runs stay separate entries.
	if doc.Benchmarks[1].Name != doc.Benchmarks[2].Name {
		t.Fatalf("repeated runs: %+v", doc.Benchmarks[1:3])
	}
	// Custom ReportMetric units survive.
	last := doc.Benchmarks[3]
	if last.Metrics["ns/record"] != 52.31 {
		t.Fatalf("custom metric: %v", last.Metrics)
	}
}

func TestParseSkipsNoise(t *testing.T) {
	doc, err := Parse(strings.NewReader("random line\nBenchmarkBroken abc ns/op\nok repro 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("parsed noise as benchmarks: %+v", doc.Benchmarks)
	}
}

// bdoc builds a document from (name, ns/op) pairs; repeated names model
// -count repetitions.
func bdoc(entries ...any) *Document {
	doc := &Document{}
	for i := 0; i+1 < len(entries); i += 2 {
		doc.Benchmarks = append(doc.Benchmarks, Benchmark{
			Name:       entries[i].(string),
			Iterations: 1,
			Metrics:    map[string]float64{"ns/op": entries[i+1].(float64)},
		})
	}
	return doc
}

func regressions(deltas []Delta) []string {
	var out []string
	for _, d := range deltas {
		if d.Regression {
			out = append(out, d.Name)
		}
	}
	return out
}

// TestCompareNoChange: identical measurements never regress — the no-change
// PR case the bench-compare job must pass.
func TestCompareNoChange(t *testing.T) {
	doc := bdoc("BenchmarkBatchedAnalyze/batch=32", 100.0, "BenchmarkBatchedAnalyze/prepared", 500.0)
	deltas := Compare(doc, bdoc("BenchmarkBatchedAnalyze/batch=32", 100.0, "BenchmarkBatchedAnalyze/prepared", 500.0), nil, 0.20)
	if len(deltas) != 2 {
		t.Fatalf("compared %d benchmarks, want 2", len(deltas))
	}
	if r := regressions(deltas); len(r) != 0 {
		t.Fatalf("no-change comparison flagged regressions: %v", r)
	}
}

// TestCompareFlagsRegression: a 25% slowdown trips the 20% gate, a 10% one
// does not, and an improvement never does.
func TestCompareFlagsRegression(t *testing.T) {
	old := bdoc("a", 100.0, "b", 100.0, "c", 100.0)
	deltas := Compare(old, bdoc("a", 125.0, "b", 110.0, "c", 60.0), nil, 0.20)
	if got := regressions(deltas); len(got) != 1 || got[0] != "a" {
		t.Fatalf("regressions = %v, want [a]", got)
	}
	// Exactly at the bound is allowed; just beyond is not.
	if r := regressions(Compare(old, bdoc("a", 120.0), nil, 0.20)); len(r) != 0 {
		t.Fatalf("exactly 20%% flagged: %v", r)
	}
	if r := regressions(Compare(old, bdoc("a", 121.0), nil, 0.20)); len(r) != 1 {
		t.Fatalf("21%% not flagged: %v", r)
	}
}

// TestCompareUsesBestOfRepeats: -count repetitions are folded to the
// minimum per side, so one noisy outlier in either document cannot fake or
// mask a regression.
func TestCompareUsesBestOfRepeats(t *testing.T) {
	old := bdoc("a", 100.0, "a", 400.0) // noisy old outlier
	deltas := Compare(old, bdoc("a", 105.0, "a", 390.0), nil, 0.20)
	if deltas[0].Old != 100 || deltas[0].New != 105 {
		t.Fatalf("best-of folding: %+v", deltas[0])
	}
	if deltas[0].Regression {
		t.Fatal("5% over the best old run flagged as regression")
	}
	if r := regressions(Compare(old, bdoc("a", 130.0, "a", 90.0), nil, 0.20)); len(r) != 0 {
		t.Fatalf("best new run improved, still flagged: %v", r)
	}
}

// TestCompareFilterAndDisjoint: the -bench expression restricts the
// comparison, and disjoint documents compare vacuously (the missing-baseline
// skip is decided by CI, but an empty intersection must not fail either).
func TestCompareFilterAndDisjoint(t *testing.T) {
	old := bdoc("BenchmarkBatchedAnalyze/x", 100.0, "BenchmarkOther", 100.0)
	new := bdoc("BenchmarkBatchedAnalyze/x", 500.0, "BenchmarkOther", 500.0)
	deltas := Compare(old, new, regexp.MustCompile("BenchmarkBatchedAnalyze"), 0.20)
	if len(deltas) != 1 || deltas[0].Name != "BenchmarkBatchedAnalyze/x" {
		t.Fatalf("filtered comparison: %+v", deltas)
	}
	if got := Compare(bdoc("a", 1.0), bdoc("b", 1.0), nil, 0.20); len(got) != 0 {
		t.Fatalf("disjoint documents compared: %+v", got)
	}
}

// TestCompareRenamedBenchmarkIgnored: a benchmark that only exists on one
// side (added or removed by the PR) is not comparable and must not fail the
// gate.
func TestCompareRenamedBenchmarkIgnored(t *testing.T) {
	deltas := Compare(bdoc("old-name", 100.0), bdoc("new-name", 1000.0, "old-name", 100.0), nil, 0.20)
	if len(deltas) != 1 || deltas[0].Name != "old-name" || deltas[0].Regression {
		t.Fatalf("rename handling: %+v", deltas)
	}
}

// TestCompareAcrossCoreCounts: the -GOMAXPROCS suffix go test appends must
// not defeat the comparison when the baseline runner and the PR runner have
// different core counts (including a 1-core side with no suffix at all).
func TestCompareAcrossCoreCounts(t *testing.T) {
	old := bdoc("BenchmarkX/batch=32-2", 100.0)
	deltas := Compare(old, bdoc("BenchmarkX/batch=32-4", 130.0), nil, 0.20)
	if len(deltas) != 1 || !deltas[0].Regression {
		t.Fatalf("cross-core comparison: %+v", deltas)
	}
	if deltas[0].Name != "BenchmarkX/batch=32" {
		t.Fatalf("name not normalized: %+v", deltas[0])
	}
	if got := Compare(old, bdoc("BenchmarkX/batch=32", 101.0), nil, 0.20); len(got) != 1 || got[0].Regression {
		t.Fatalf("suffixless side: %+v", got)
	}
	// A name whose tail is not a core count stays untouched.
	if got := Compare(bdoc("BenchmarkX/mode=a-b", 100.0), bdoc("BenchmarkX/mode=a-b", 100.0), nil, 0.20); len(got) != 1 {
		t.Fatalf("non-numeric suffix normalized away: %+v", got)
	}
}

// TestCompareGatesAllocs: where both sides report allocs/op it is held to the
// same bound as ns/op, as a metric of its own — a benchmark can regress its
// allocations while its time holds — and a side that does not report it is
// not comparable on it.
func TestCompareGatesAllocs(t *testing.T) {
	entry := func(ns, allocs float64) *Document {
		return &Document{Benchmarks: []Benchmark{{
			Name: "BenchmarkWireCodec/request-2", Iterations: 1,
			Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs, "B/op": 1 << 20},
		}}}
	}
	deltas := Compare(entry(100, 100), entry(100, 130), nil, 0.20)
	if len(deltas) != 2 || deltas[0].Unit != "ns/op" || deltas[1].Unit != "allocs/op" {
		t.Fatalf("deltas: %+v", deltas)
	}
	if deltas[0].Regression || !deltas[1].Regression {
		t.Fatalf("30%% more allocations at equal time: %+v", deltas)
	}
	if r := regressions(Compare(entry(100, 100), entry(100, 120), nil, 0.20)); len(r) != 0 {
		t.Fatalf("exactly 20%% more allocations flagged: %v", r)
	}
	if got := Compare(bdoc("BenchmarkWireCodec/request", 100.0), entry(100, 1e6), nil, 0.20); len(got) != 1 || got[0].Unit != "ns/op" {
		t.Fatalf("baseline without allocs/op: %+v", got)
	}
}
