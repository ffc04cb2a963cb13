package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/editor"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// flowDoc is the pipeline test fixture: one two-stage pipeline with a
// counted flow-control loop.
const flowDoc = `
doc flowdoc
var u plane=0 base=0 len=512
var v plane=1 base=0 len=512
place memplane Mu at 1 2 plane=0
place memplane Mv at 40 2 plane=1
place doublet D at 18 1
op D.u0 mul constb=2
op D.u1 add constb=7
connect Mu.rd -> D.u0.a
connect D.u0.o -> D.u1.a
connect D.u1.o -> Mv.wr
dma Mu rd var=u stride=1 count=512
dma Mv wr var=v stride=1 count=512
flow label=top pipe=0 loadctr=4
flow pipe=0 cond=loop ctr=0 branch=top
flow pipe=0 cond=halt
`

// writeDoc scripts the editor and saves the semantic document to a
// temp file, returning its path.
func writeDoc(t *testing.T, script string) string {
	t.Helper()
	inv := arch.MustInventory(arch.Default())
	ed := editor.New(inv, "fixture")
	if _, err := ed.ExecScript(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ed.Doc.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestDiagJSONClean(t *testing.T) {
	doc := writeDoc(t, flowDoc)
	stdout, stderr, code := runCLI(t, "-in", doc, "-diag-json")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	checkGolden(t, "diag_clean", stdout)
}

func TestDiagJSONError(t *testing.T) {
	// Drop the write-side DMA program: the memory plane's write port is
	// wired but never drained, a global-constraint violation.
	broken := strings.Replace(flowDoc, "dma Mv wr var=v stride=1 count=512\n", "", 1)
	doc := writeDoc(t, broken)
	stdout, stderr, code := runCLI(t, "-in", doc, "-diag-json")
	if code != 1 {
		t.Fatalf("exit %d (want 1), stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "nscasm:") {
		t.Fatalf("stderr missing error line:\n%s", stderr)
	}
	checkGolden(t, "diag_error", stdout)
}

func TestStatsIncludesPassesAndCache(t *testing.T) {
	doc := writeDoc(t, flowDoc)
	stdout, stderr, code := runCLI(t, "-in", doc, "-stats")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	for _, want := range []string{"pipeline 0:", "pass check", "pass codegen", "pass validate", "compile cache: 0 hit(s) 1 miss(es) 1 entrie(s)"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stats output missing %q:\n%s", want, stdout)
		}
	}
}

// TestObsFlags: -metrics-json and -trace-out report the compile's
// pass counters and spans. Pass wall times vary run to run, so this
// checks structure, not bytes: one run per pass counter, a cache miss,
// and one trace span per pass.
func TestObsFlags(t *testing.T) {
	doc := writeDoc(t, flowDoc)
	mPath := filepath.Join(t.TempDir(), "metrics.json")
	tPath := filepath.Join(t.TempDir(), "trace.json")
	_, stderr, code := runCLI(t, "-in", doc, "-metrics-json", mPath, "-trace-out", tPath)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	raw, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("metrics output is not JSON: %v", err)
	}
	for _, c := range []string{
		"pipeline.pass.check", "pipeline.pass.codegen", "pipeline.pass.validate",
		"pipeline.cache.miss",
	} {
		if metrics.Counters[c] != 1 {
			t.Errorf("counter %s = %d, want 1 (all: %v)", c, metrics.Counters[c], metrics.Counters)
		}
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	raw, err = os.ReadFile(tPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace output is not JSON: %v", err)
	}
	got := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Cat == "pipeline" {
			got[ev.Name] = true
		}
	}
	for _, p := range []string{"check", "codegen", "validate"} {
		if !got[p] {
			t.Errorf("trace missing pass span %q (has %v)", p, got)
		}
	}
}

func TestUsageExit(t *testing.T) {
	_, stderr, code := runCLI(t)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage:") {
		t.Fatalf("stderr missing usage:\n%s", stderr)
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	doc := writeDoc(t, flowDoc)
	out := filepath.Join(t.TempDir(), "prog.nscm")
	stdout, stderr, code := runCLI(t, "-in", doc, "-dis", "-o", out)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, "--- instr 0 ---") || !strings.Contains(stdout, "seq") {
		t.Errorf("disassembly missing instructions:\n%s", stdout)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("program file not written: %v", err)
	}
	if !strings.Contains(stderr, "instruction(s)") {
		t.Errorf("stderr missing summary:\n%s", stderr)
	}
}
