package repro_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestFacadeAnalyze(t *testing.T) {
	rep, err := repro.Analyze("particles")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bottleneck() == nil {
		t.Fatal("no bottleneck in the imbalanced workload")
	}
	if _, err := repro.Analyze("nope"); err == nil {
		t.Fatal("unknown workload must fail")
	}
	names := repro.Workloads()
	if len(names) < 6 {
		t.Fatalf("workload library too small: %v", names)
	}
}

// TestCommands builds and exercises every cmd/ binary end to end: generate a
// summary file with apprentice, analyze it with cosy (all engines and the
// baseline), and check the aslc front end on the canonical specification.
func TestCommands(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"apprentice", "cosy", "aslc"} {
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	summary := filepath.Join(dir, "particles.apr")
	if out, err := exec.Command(bins["apprentice"], "-workload", "particles", "-pes", "2,8,32", "-o", summary).CombinedOutput(); err != nil {
		t.Fatalf("apprentice: %v\n%s", err, out)
	}
	if fi, err := os.Stat(summary); err != nil || fi.Size() == 0 {
		t.Fatalf("summary file: %v", err)
	}

	for _, engine := range []string{"object", "sql", "client"} {
		out, err := exec.Command(bins["cosy"], "-in", summary, "-nope", "32", "-engine", engine).CombinedOutput()
		if err != nil {
			t.Fatalf("cosy -engine %s: %v\n%s", engine, err, out)
		}
		text := string(out)
		if !strings.Contains(text, "bottleneck:") || !strings.Contains(text, "SyncCost") {
			t.Fatalf("cosy -engine %s output:\n%s", engine, text)
		}
	}

	// The refinement-driven search on both engines.
	for _, engine := range []string{"object", "sql"} {
		out, err := exec.Command(bins["cosy"], "-in", summary, "-nope", "32", "-engine", engine, "-guided").CombinedOutput()
		if err != nil {
			t.Fatalf("cosy -guided -engine %s: %v\n%s", engine, err, out)
		}
		if !strings.Contains(string(out), "refinement search:") {
			t.Fatalf("cosy -guided -engine %s output:\n%s", engine, out)
		}
	}

	out, err := exec.Command(bins["cosy"], "-in", summary, "-nope", "32", "-baseline").CombinedOutput()
	if err != nil {
		t.Fatalf("cosy -baseline: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "paradyn") {
		t.Fatalf("baseline output:\n%s", out)
	}

	out, err = exec.Command(bins["aslc"], "-canonical").CombinedOutput()
	if err != nil {
		t.Fatalf("aslc: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "8 properties") {
		t.Fatalf("aslc output: %s", out)
	}
	out, err = exec.Command(bins["aslc"], "-canonical", "-emit", "schema").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "CREATE TABLE Region") {
		t.Fatalf("aslc -emit schema: %v\n%s", err, out)
	}
	out, err = exec.Command(bins["aslc"], "-canonical", "-emit", "sql").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "property SyncCost") {
		t.Fatalf("aslc -emit sql: %v\n%s", err, out)
	}
}

// TestCosyAgainstKojakdb runs the full client/server deployment: a kojakdb
// wire server with the COSY schema, and cosy analyzing through a connection
// pool, prepared statements end to end.
func TestCosyAgainstKojakdb(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"kojakdb", "cosy"} {
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	// cosy creates the schema itself, so the server starts without -schema.
	srv := exec.Command(bins["kojakdb"], "-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Signal(os.Interrupt)
		srv.Wait()
	}()
	// The server prints "kojakdb: serving on <addr> ..." once it is bound.
	var addr string
	{
		buf := make([]byte, 256)
		n, err := stdout.Read(buf)
		if err != nil {
			t.Fatalf("reading server banner: %v", err)
		}
		line := string(buf[:n])
		fields := strings.Fields(line)
		for i, f := range fields {
			if f == "on" && i+1 < len(fields) {
				addr = fields[i+1]
			}
		}
		if addr == "" {
			t.Fatalf("no address in banner %q", line)
		}
	}

	out, err := exec.Command(bins["cosy"],
		"-workload", "particles", "-nope", "32",
		"-engine", "sql", "-db", addr, "-workers", "4").CombinedOutput()
	if err != nil {
		t.Fatalf("cosy -engine sql -db: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "bottleneck:") {
		t.Fatalf("cosy -engine sql -db output:\n%s", out)
	}
}

// TestExamplesRun executes every example main and checks it succeeds.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs examples")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 4 {
		t.Fatalf("expected at least 4 examples, found %d", len(entries))
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			out, err := exec.Command("go", "run", "./examples/"+e.Name()).CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			if len(out) == 0 {
				t.Fatal("example produced no output")
			}
		})
	}
}
