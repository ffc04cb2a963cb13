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
	"repro/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runCLI invokes the in-process entry point and returns its output.
func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// checkGolden compares got against testdata/<name>.golden, rewriting
// the file under -update.
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
		t.Fatalf("%v (re-run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("output does not match %s (re-run with -update to regenerate):\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestJacobiGoldenClean pins the text report of a clean fixed-sweep
// multi-node solve. The simulation is fully deterministic, so the
// output is stable to the byte.
func TestJacobiGoldenClean(t *testing.T) {
	stdout, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "6")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	checkGolden(t, "clean", stdout)
}

// TestJacobiGoldenFaulted pins the report of a faulted run: injected
// kills and a stall, retry/backoff accounting and sweep-boundary
// checkpoints — with the same solve outcome as the clean run.
func TestJacobiGoldenFaulted(t *testing.T) {
	stdout, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6",
		"-faults", "dispatch:kill@2:1:repeat=2,exchange:stall@3:0:stall=500",
		"-checkpoint-every", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	checkGolden(t, "faulted", stdout)

	// The faulted run's solve line must equal the clean run's: faults
	// cost cycles, never accuracy.
	clean, _, _ := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "6")
	if jacobiLine(stdout) != jacobiLine(clean) {
		t.Errorf("faulted solve diverged:\n%s\n%s", jacobiLine(stdout), jacobiLine(clean))
	}
}

// TestJacobiCheckpointRestartCLI: -checkpoint persists a snapshot and
// -restore resumes from it to the identical solve report.
func TestJacobiCheckpointRestartCLI(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "solve.ckpt")
	full, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6", "-checkpoint-every", "2", "-checkpoint", ck)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	resumed, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6", "-restore", ck)
	if code != 0 {
		t.Fatalf("restore exit %d, stderr: %s", code, stderr)
	}
	if jacobiLine(resumed) != jacobiLine(full) {
		t.Errorf("restored solve diverged:\n%s\n%s", jacobiLine(resumed), jacobiLine(full))
	}
	if !strings.Contains(resumed, "restores=0") {
		t.Errorf("unexpected restore counters:\n%s", resumed)
	}
}

func TestJacobiBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-jacobi", "8", "-faults", "teleport:kill@1:0"}, // bad fault spec
		{"-jacobi", "8", "-restore", "/nonexistent/ck"},  // missing snapshot
		{},                             // no mode selected
		{"-prog", "/nonexistent.nscm"}, // missing program
	} {
		if _, _, code := runCLI(t, args...); code == 0 {
			t.Errorf("args %v: exit 0, want failure", args)
		}
	}
}

// TestFaultBoundsCLI: fault and spare numbers past their bounds exit 1
// with an error naming the token, before any board is built or any
// sweep runs. The stall once ran to a negative machine clock, and the
// seeded event count once panicked in makeslice.
func TestFaultBoundsCLI(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-jacobi", "8", "-cube", "1", "-faults", "exchange:stall@1:0:stall=9223372036854775807"}, "stall=9223372036854775807"},
		{[]string{"-jacobi", "8", "-cube", "1", "-faults", "seed@1:sweeps=4:ranks=2:events=9223372036854775807"}, "events=9223372036854775807"},
		{[]string{"-jacobi", "8", "-cube", "1", "-spares", "-1"}, "add -1 spares"},
		{[]string{"-jacobi", "8", "-cube", "1", "-spares", "1025"}, "add 1025 spares"},
	} {
		stdout, stderr, code := runCLI(t, tc.args...)
		if code != 1 || !strings.Contains(stderr, tc.want) || strings.Contains(stdout, "cycles:") {
			t.Errorf("args %v: exit %d, stderr %q, stdout %q; want exit 1 naming %q before any solve",
				tc.args, code, stderr, stdout, tc.want)
		}
	}
}

// jacobiLine extracts the solve-outcome line from a report.
func jacobiLine(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "jacobi:") {
			return line
		}
	}
	return ""
}

// TestJacobiECCRetryCLI: the ISSUE's worked example — a seeded
// double-bit ECC fault under the retry policy converges to the same
// solve line as the clean run, with the recovery on the traps line.
func TestJacobiECCRetryCLI(t *testing.T) {
	clean, _, _ := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "6")
	faulted, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6",
		"-trap-policy", "retry", "-ecc-faults", "1:0:70:double")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if jacobiLine(faulted) != jacobiLine(clean) {
		t.Errorf("faulted solve diverged:\n%s\n%s", jacobiLine(faulted), jacobiLine(clean))
	}
	if !strings.Contains(faulted, "uncorrectable=1") || !strings.Contains(faulted, "retries=1") {
		t.Errorf("traps line missing the recovery:\n%s", faulted)
	}

	// Halt policy: the same fault fails the run naming the site.
	_, stderr, code = runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6",
		"-trap-policy", "halt", "-ecc-faults", "1:0:70:double")
	if code == 0 {
		t.Fatal("halt policy exited 0 on an uncorrectable fault")
	}
	for _, frag := range []string{"node 1", "plane 0", "addr 70", "cycle"} {
		if !strings.Contains(stderr, frag) {
			t.Errorf("halt error %q does not name %q", stderr, frag)
		}
	}
}

// TestVerifyCheckpointCLI: -verify-checkpoint accepts a pristine
// snapshot and rejects the same file with one flipped bit.
func TestVerifyCheckpointCLI(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "solve.ckpt")
	_, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "6", "-checkpoint-every", "2", "-checkpoint", ck)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	stdout, stderr, code := runCLI(t, "-verify-checkpoint", ck)
	if code != 0 {
		t.Fatalf("pristine snapshot rejected (exit %d): %s", code, stderr)
	}
	if !strings.Contains(stdout, "ok") {
		t.Errorf("verify output: %s", stdout)
	}

	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x04
	if err := os.WriteFile(ck, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, stderr, code = runCLI(t, "-verify-checkpoint", ck)
	if code == 0 {
		t.Fatal("corrupt snapshot verified")
	}
	if !strings.Contains(stderr, "corrupt") && !strings.Contains(stderr, "truncated") {
		t.Errorf("corruption error: %s", stderr)
	}
}

// TestMetricsJSONGolden pins the -metrics-json document of a clean
// fixed-sweep multi-node solve byte for byte. Every recorded value
// derives from simulated state (node cycle clocks, engine critical
// path), so the document is deterministic at any worker count.
func TestMetricsJSONGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	_, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "2", "-sweeps", "4", "-metrics-json", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics", string(got))
}

// TestTraceOutChromeFormat: -trace-out on a 4-rank solve writes a
// trace_event document Perfetto can load — an events array with the
// engine phase track (tid 0) and one track per ring rank (tid 1..4).
func TestTraceOutChromeFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	_, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "2", "-sweeps", "4", "-trace-out", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TID   int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	tids := map[int]bool{}
	phases := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		tids[ev.TID] = true
		if ev.TID == 0 {
			phases[ev.Name] = true
		}
	}
	for tid := 0; tid <= 4; tid++ {
		if !tids[tid] {
			t.Errorf("no events on track %d (tracks: %v)", tid, tids)
		}
	}
	for _, ph := range []string{"dispatch", "combine", "exchange"} {
		if !phases[ph] {
			t.Errorf("engine track missing phase %q (has %v)", ph, phases)
		}
	}
}

// TestProfileFlagsSmoke: -cpuprofile and -memprofile write non-empty
// pprof files and leave the report byte-identical to the unprofiled
// run — the taps observe the host process, never the simulation.
func TestProfileFlagsSmoke(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	plain, _, _ := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "4")
	profiled, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "1", "-sweeps", "4", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if profiled != plain {
		t.Errorf("profiling changed the report:\n%s\n%s", profiled, plain)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s: empty profile", p)
		}
	}

	// An unwritable profile path is a run error, not a silent no-op.
	if _, _, code := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "2",
		"-cpuprofile", filepath.Join(dir, "no", "such", "dir", "cpu.pprof")); code == 0 {
		t.Error("unwritable -cpuprofile exited 0")
	}
}

// TestNoKernelFlagCLI: -no-kernel pins the interpreter and changes
// nothing observable in the report — the kernel contract at CLI level.
func TestNoKernelFlagCLI(t *testing.T) {
	kernel, _, _ := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "6")
	interp, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "1", "-sweeps", "6", "-no-kernel")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if interp != kernel {
		t.Errorf("-no-kernel changed the report:\n%s\n%s", interp, kernel)
	}
}

func TestTrapFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-jacobi", "8", "-trap-policy", "panic"},          // unknown policy
		{"-jacobi", "8", "-ecc-faults", "1:0:70:triple"},   // bad ECC kind
		{"-jacobi", "8", "-ecc-faults", "9:0:70:double"},   // rank off the cube
		{"-prog", "x.nscm", "-ecc-faults", "0:0:1:single"}, // wrong mode
		{"-verify-checkpoint", "/nonexistent/ck"},
	} {
		if _, _, code := runCLI(t, args...); code == 0 {
			t.Errorf("args %v: exit 0, want failure", args)
		}
	}
}

// TestJacobiKillRecoveryCLI: -kill permanently loses a rank mid-solve.
// With -spares the dead slot is refilled from the pool; without, the
// solve re-partitions over the survivors. Either way the solve line is
// bit-identical to the clean run and the report says what happened.
func TestJacobiKillRecoveryCLI(t *testing.T) {
	clean, _, _ := runCLI(t, "-jacobi", "8", "-cube", "2", "-sweeps", "8")
	if strings.Contains(clean, "recovery:") {
		t.Error("clean report grew a recovery line")
	}

	spare, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "2", "-sweeps", "8", "-kill", "3:1", "-spares", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	checkGolden(t, "kill-spare", spare)
	if jacobiLine(spare) != jacobiLine(clean) {
		t.Errorf("spare-recovered solve diverged:\n%s\n%s", jacobiLine(spare), jacobiLine(clean))
	}
	if !strings.Contains(spare, "spares=1") || !strings.Contains(spare, "4 node(s) live") {
		t.Errorf("spare recovery line:\n%s", spare)
	}

	shrink, stderr, code := runCLI(t,
		"-jacobi", "8", "-cube", "2", "-sweeps", "8", "-kill", "3:1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if jacobiLine(shrink) != jacobiLine(clean) {
		t.Errorf("shrink-recovered solve diverged:\n%s\n%s", jacobiLine(shrink), jacobiLine(clean))
	}
	if !strings.Contains(shrink, "shrinks=1") || !strings.Contains(shrink, "3 node(s) live") {
		t.Errorf("shrink recovery line:\n%s", shrink)
	}

	for _, bad := range []string{"3", "x:1", "3:x", "3:4"} {
		if _, _, code := runCLI(t, "-jacobi", "8", "-cube", "2", "-kill", bad); code == 0 {
			t.Errorf("-kill %q: exit 0, want failure", bad)
		}
	}
}

// TestKillFlagIsFaultPlan: -kill tokens are fault-plan events, so they
// fail as -faults events do, with the fault plan's diagnostic. A
// negative point once failed with a plain engine error, and a point
// named twice — across -faults and -kill, or within -kill — once ran:
// the duplicate kill-forever fired again after the shrink and killed
// a second board. A seeded -faults still composes with -kill.
func TestKillFlagIsFaultPlan(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kill", "-1:0"}, "fault plan: engine: fault dispatch:kill-forever@-1:0: negative sweep or rank"},
		{[]string{"-faults", "dispatch:kill@3:1", "-kill", "3:1"}, `fault plan: event "dispatch:kill-forever@3:1" duplicates "dispatch:kill@3:1"`},
		{[]string{"-kill", "3:1,3:1"}, `fault plan: event "dispatch:kill-forever@3:1" duplicates "dispatch:kill-forever@3:1"`},
	} {
		args := append([]string{"-jacobi", "8", "-cube", "2", "-sweeps", "6"}, tc.args...)
		stdout, stderr, code := runCLI(t, args...)
		if code != 1 || !strings.Contains(stderr, tc.want) || strings.Contains(stdout, "cycles:") {
			t.Errorf("args %v: exit %d, stderr %q; want exit 1 naming %q before any solve", tc.args, code, stderr, tc.want)
		}
	}
	stdout, stderr, code := runCLI(t, "-jacobi", "8", "-cube", "2", "-sweeps", "6",
		"-faults", "seed@3:sweeps=6:ranks=4:events=3", "-kill", "3:1")
	if code != 0 || !strings.Contains(stdout, "recoveries=1 dead=1") {
		t.Errorf("seeded -faults with -kill: exit %d, stderr %q, stdout:\n%s", code, stderr, stdout)
	}
}

// TestDumpRangeErrors: a -dump whose count is negative or larger than
// the plane exits 1 with an error naming the range — it once panicked
// in makeslice, or died allocating ~8 TB.
func TestDumpRangeErrors(t *testing.T) {
	inv := arch.MustInventory(arch.Default())
	ed := editor.New(inv, "smoke")
	if _, err := ed.ExecScript(strings.NewReader(`
doc smoke
var u plane=0 base=0 len=16
var v plane=1 base=0 len=16
place memplane Mu at 1 2 plane=0
place memplane Mv at 40 2 plane=1
place singlet S at 20 2
op S.u0 mul constb=3
connect Mu.rd -> S.u0.a
connect S.u0.o -> Mv.wr
dma Mu rd var=u stride=1 count=16
dma Mv wr var=v stride=1 count=16
`)); err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.New(inv).CompileDocument(ed.Doc)
	if err != nil {
		t.Fatal(err)
	}
	prog := filepath.Join(t.TempDir(), "prog.nscm")
	f, err := os.Create(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Prog.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if _, stderr, code := runCLI(t, "-prog", prog, "-dump", "1:0:16"); code != 0 {
		t.Fatalf("in-range dump: exit %d, stderr: %s", code, stderr)
	}
	for _, dump := range []string{"1:0:-1", "1:0:999999999999", "1:16777215:2"} {
		_, stderr, code := runCLI(t, "-prog", prog, "-dump", dump)
		if code != 1 || !strings.Contains(stderr, "do not fit plane 1") {
			t.Errorf("-dump %s: exit %d, stderr %q; want exit 1 naming the range", dump, code, stderr)
		}
	}
}
