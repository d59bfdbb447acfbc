// Command benchjson converts `go test -bench` text output into a JSON
// document, so CI can archive one machine-readable perf artifact per commit
// (BENCH_<sha>.json) and the perf trajectory of the repository can be
// charted across pushes.
//
// With -compare it consumes two such documents instead and fails (exit 1)
// when any benchmark present in both regressed its ns/op — or, where both
// sides report it, its allocs/op — beyond -max-regress: the check the
// bench-compare CI job runs on every pull request against the latest main
// artifact.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchtime=3x -count=3 ./... | benchjson -sha $GITHUB_SHA > BENCH_$GITHUB_SHA.json
//	benchjson -compare -max-regress 0.20 [-bench BenchmarkBatchedAnalyze] old.json new.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one benchmark result line. Repeated runs of the same
// benchmark (-count > 1) appear as repeated entries, in output order, so
// downstream tooling can compute its own spread statistics.
type Benchmark struct {
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps a unit ("ns/op", "B/op", "allocs/op", custom
	// b.ReportMetric units) to its value.
	Metrics map[string]float64 `json:"metrics"`
}

// Document is the archived artifact: build metadata plus every benchmark.
type Document struct {
	SHA        string      `json:"sha,omitempty"`
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output. Unrecognized lines (PASS, ok, test
// log noise) are skipped: the converter must not fail on the mixed output of
// a multi-package ./... run.
func Parse(r io.Reader) (*Document, error) {
	doc := &Document{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	meta := map[string]*string{
		"goos:": &doc.GOOS, "goarch:": &doc.GOARCH, "pkg:": &doc.Pkg, "cpu:": &doc.CPU,
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if dst, ok := meta[fields[0]]; ok && *dst == "" {
				*dst = strings.Join(fields[1:], " ")
				continue
			}
		}
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
		// The remainder alternates value and unit.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if len(b.Metrics) == 0 {
			continue
		}
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return doc, nil
}

// Delta is the comparison of one gated metric of one benchmark across two
// documents. Ratio is new/old of the best (minimum) value on each side:
// -count repetitions make both sides a distribution, and the minimum is the
// run least disturbed by scheduler noise, so a real regression moves it while
// a noisy outlier does not.
type Delta struct {
	Name       string
	Unit       string  // "ns/op" or "allocs/op"
	Old, New   float64 // best value per side
	Ratio      float64
	Regression bool
}

// gatedUnits are the metrics -compare holds to the bound, wherever both
// documents carry them: time always, allocations for benchmarks that call
// b.ReportAllocs.
var gatedUnits = []string{"ns/op", "allocs/op"}

// normalizeName strips the trailing -GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkX/batch=32-4" → "BenchmarkX/batch=32"), so a
// baseline recorded on an N-core runner still compares against a run on an
// M-core one instead of silently sharing no names with it.
func normalizeName(name string) string {
	i := strings.LastIndex(name, "-")
	if i <= 0 {
		return name
	}
	if suffix := name[i+1:]; suffix != "" {
		for _, c := range suffix {
			if c < '0' || c > '9' {
				return name
			}
		}
		return name[:i]
	}
	return name
}

// best folds a document's (possibly repeated) benchmark entries into the
// minimum of one metric per normalized name, keeping only names matching the
// filter expression (nil matches everything).
func best(doc *Document, filter *regexp.Regexp, unit string) map[string]float64 {
	out := make(map[string]float64)
	for _, b := range doc.Benchmarks {
		v, ok := b.Metrics[unit]
		if !ok || (filter != nil && !filter.MatchString(b.Name)) {
			continue
		}
		name := normalizeName(b.Name)
		if cur, seen := out[name]; !seen || v < cur {
			out[name] = v
		}
	}
	return out
}

// Compare evaluates every benchmark present in both documents against the
// allowed regression (0.20 = new may be at most 20% worse), in name order, one
// Delta per gated metric both sides report.
func Compare(oldDoc, newDoc *Document, filter *regexp.Regexp, maxRegress float64) []Delta {
	var deltas []Delta
	for _, unit := range gatedUnits {
		oldBest, newBest := best(oldDoc, filter, unit), best(newDoc, filter, unit)
		for name, o := range oldBest {
			n, ok := newBest[name]
			if !ok {
				continue
			}
			d := Delta{Name: name, Unit: unit, Old: o, New: n}
			if o > 0 {
				d.Ratio = n / o
				d.Regression = d.Ratio > 1+maxRegress
			}
			deltas = append(deltas, d)
		}
	}
	sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas
}

func readDocument(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// compareMain implements -compare: exit 0 when nothing regressed (or nothing
// was comparable), 1 on regression, 2 on usage errors.
func compareMain(oldPath, newPath string, filter *regexp.Regexp, maxRegress float64) int {
	oldDoc, err := readDocument(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newDoc, err := readDocument(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	deltas := Compare(oldDoc, newDoc, filter, maxRegress)
	if len(deltas) == 0 {
		// An empty intersection is a gate that gated nothing: stay green (a
		// renamed benchmark must not fail every future PR) but shout — the
		// ::warning line surfaces as an annotation on GitHub runners.
		fmt.Printf("::warning::benchjson: no benchmark appears in both %s (sha %s) and %s (sha %s); the regression gate compared nothing\n",
			oldPath, oldDoc.SHA, newPath, newDoc.SHA)
		return 0
	}
	regressed := 0
	fmt.Printf("benchjson: comparing %d benchmark metrics against %s (max regression %.0f%%)\n",
		len(deltas), oldDoc.SHA, maxRegress*100)
	for _, d := range deltas {
		verdict := "ok"
		if d.Regression {
			verdict = "REGRESSION"
			regressed++
		}
		fmt.Printf("  %-64s %14.0f -> %14.0f %-9s  %+6.1f%%  %s\n",
			d.Name, d.Old, d.New, d.Unit, (d.Ratio-1)*100, verdict)
	}
	if regressed > 0 {
		fmt.Printf("benchjson: %d of %d benchmark metrics regressed beyond %.0f%%\n", regressed, len(deltas), maxRegress*100)
		return 1
	}
	return 0
}

func main() {
	sha := flag.String("sha", "", "commit SHA recorded in the document")
	compare := flag.Bool("compare", false, "compare two benchmark documents (old.json new.json) instead of converting")
	maxRegress := flag.Float64("max-regress", 0.20, "allowed ns/op and allocs/op regression in -compare mode (0.20 = 20% worse)")
	bench := flag.String("bench", "", "restrict -compare to benchmarks whose name matches this regular expression")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two documents: old.json new.json")
			os.Exit(2)
		}
		if *maxRegress < 0 {
			fmt.Fprintln(os.Stderr, "benchjson: -max-regress must not be negative")
			os.Exit(2)
		}
		var filter *regexp.Regexp
		if *bench != "" {
			var err error
			if filter, err = regexp.Compile(*bench); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: bad -bench expression:", err)
				os.Exit(2)
			}
		}
		os.Exit(compareMain(flag.Arg(0), flag.Arg(1), filter, *maxRegress))
	}
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchjson: unexpected arguments (use -compare to diff documents)")
		os.Exit(2)
	}
	doc, err := Parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	doc.SHA = *sha
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in input")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
