package hypercube

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/diag"
	"repro/internal/jacobi"
	"repro/internal/sim"
)

// TestECCRetryConvergesBitIdentical is the tentpole acceptance check:
// a seeded double-bit ECC fault under the retry policy converges to a
// bit-identical Jacobi solution versus the fault-free run, at every
// worker count. The fault fires once on the first read of the word,
// the aborted attempt commits nothing, and the re-dispatch reads the
// true data.
func TestECCRetryConvergesBitIdentical(t *testing.T) {
	prob := func() *jacobi.Problem { return parallelProblem(4) }

	clean, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.SolveJacobi(prob())
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, -1} {
		m, err := New(smallCfg(), 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		m.Trap = arch.TrapConfig{Policy: arch.TrapRetry}
		if err := m.InjectECC(1, sim.ECCFault{Plane: jacobi.PlaneU, Addr: 70, Double: true}); err != nil {
			t.Fatal(err)
		}
		res, err := m.SolveJacobi(prob())
		if err != nil {
			t.Fatalf("workers=%d: recoverable ECC fault failed the solve: %v", workers, err)
		}
		assertSameSolve(t, res, cleanRes)
		if res.Traps.ECCUncorrectable != 1 || res.Traps.Retries != 1 || res.Traps.Halts != 0 {
			t.Errorf("workers=%d: traps = %s, want one uncorrectable + one retry", workers, res.Traps)
		}
		// The recovery cost simulated time: the faulted run's clock must
		// run ahead of the clean one.
		if res.Cycles <= cleanRes.Cycles {
			t.Errorf("workers=%d: faulted cycles %d ≤ clean %d", workers, res.Cycles, cleanRes.Cycles)
		}
	}
}

// TestECCHaltNamesFaultSite: under the halt policy the same seeded
// fault fails the solve with a structured error naming the plane, the
// element and the cycle.
func TestECCHaltNamesFaultSite(t *testing.T) {
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Trap = arch.TrapConfig{Policy: arch.TrapHalt}
	if err := m.InjectECC(1, sim.ECCFault{Plane: jacobi.PlaneU, Addr: 70, Double: true}); err != nil {
		t.Fatal(err)
	}
	_, err = m.SolveJacobi(parallelProblem(4))
	if err == nil {
		t.Fatal("halt policy let an uncorrectable ECC fault pass")
	}
	var te *sim.TrapError
	if !errors.As(err, &te) {
		t.Fatalf("error %v does not wrap *sim.TrapError", err)
	}
	for _, frag := range []string{"node 1", "plane 0", "addr 70", "element", "cycle"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %q", err, frag)
		}
	}
}

// TestECCCorrectedIsFree: single-bit events correct in flight — same
// trajectory, same clock, counted.
func TestECCCorrectedIsFree(t *testing.T) {
	clean, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cleanRes, err := clean.SolveJacobi(parallelProblem(4))
	if err != nil {
		t.Fatal(err)
	}

	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Trap = arch.TrapConfig{Policy: arch.TrapRetry}
	if err := m.InjectECC(0, sim.ECCFault{Plane: jacobi.PlaneU, Addr: 70}); err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveJacobi(parallelProblem(4))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, res, cleanRes)
	if res.Cycles != cleanRes.Cycles {
		t.Errorf("corrected fault changed the clock: %d vs %d", res.Cycles, cleanRes.Cycles)
	}
	if res.Traps.ECCCorrected != 1 {
		t.Errorf("traps = %s, want one corrected event", res.Traps)
	}
}

// TestInjectECCChecksRank: an ECC event aimed outside the 2-node
// machine fails with an R040 diagnostic naming the bad field, as the
// same mistake in a fault plan does.
func TestInjectECCChecksRank(t *testing.T) {
	m, err := New(smallCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	words := m.Cfg.PlaneWords()
	for _, tc := range []struct {
		rank  int
		fault sim.ECCFault
		names string
	}{
		{5, sim.ECCFault{}, "rank 5"},
		{-1, sim.ECCFault{}, "rank -1"},
		{0, sim.ECCFault{Plane: 99, Addr: 70, Double: true}, "plane 99"},
		{1, sim.ECCFault{Addr: words, Double: true}, fmt.Sprintf("address %d", words)},
		{0, sim.ECCFault{Addr: -1}, "address -1"},
	} {
		err := m.InjectECC(tc.rank, tc.fault)
		var de *diag.DiagError
		if !errors.As(err, &de) || de.Rule() != diag.RuleFaultPlan || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("rank %d, fault %s: error %v, want a %s diagnostic naming %s", tc.rank, tc.fault, err, diag.RuleFaultPlan, tc.names)
		}
	}
}

// FuzzRankECCFaults drives the whole -ecc-faults path: a spec parsed
// by ParseRankECCFaults, then every event injected on a 2-node
// machine. Every rejection must be an R040 diagnostic: no untyped
// error, no panic.
func FuzzRankECCFaults(f *testing.F) {
	for _, spec := range []string{
		"9:0:70:double",
		"0:99:70:double",
		"0:0:99999999999:double",
		"0:1:x:single",
		"1:0:70:double,",
		"1:0:70:double, 0:3:5:single",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		faults, err := ParseRankECCFaults(spec)
		if err == nil {
			m, merr := New(smallCfg(), 1)
			if merr != nil {
				t.Fatal(merr)
			}
			for _, ev := range faults {
				if err = m.InjectECC(ev.Rank, ev.Fault); err != nil {
					break
				}
			}
		}
		var de *diag.DiagError
		if err != nil && (!errors.As(err, &de) || de.Rule() != diag.RuleFaultPlan) {
			t.Fatalf("spec %q: error %v, want a %s diagnostic", spec, err, diag.RuleFaultPlan)
		}
	})
}

func TestParseRankECCFaults(t *testing.T) {
	fs, err := ParseRankECCFaults("1:0:70:double, 0:3:5:single")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 ||
		fs[0] != (RankECCFault{Rank: 1, Fault: sim.ECCFault{Plane: 0, Addr: 70, Double: true}}) ||
		fs[1] != (RankECCFault{Rank: 0, Fault: sim.ECCFault{Plane: 3, Addr: 5}}) {
		t.Errorf("parsed %+v", fs)
	}
	if fs, err := ParseRankECCFaults("  "); err != nil || fs != nil {
		t.Errorf("blank spec = %v, %v", fs, err)
	}
	for _, tc := range []struct{ spec, names string }{
		{"1", `"1"`},
		{"1:0:70", `"0:70"`},
		{"x:0:70:double", `rank "x"`},
		{"0:1:x:single", `addr "x"`},
		{"1:0:70:triple", `kind "triple"`},
		{"1:0:70:double:extra", `"0:70:double:extra"`},
		{"1:0:70:double,", `""`},
	} {
		_, err := ParseRankECCFaults(tc.spec)
		var de *diag.DiagError
		if !errors.As(err, &de) || de.Rule() != diag.RuleFaultPlan || !strings.Contains(err.Error(), tc.names) {
			t.Errorf("%q: error %v, want a %s diagnostic naming %s", tc.spec, err, diag.RuleFaultPlan, tc.names)
		}
	}
}

// TestCheckpointCarriesTrapCounters: trap totals survive the
// snapshot/restore cycle like fault and plan-cache counters do.
func TestCheckpointCarriesTrapCounters(t *testing.T) {
	m, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m.Trap = arch.TrapConfig{Policy: arch.TrapRetry}
	m.CheckpointEvery = 4
	if err := m.InjectECC(0, sim.ECCFault{Plane: jacobi.PlaneU, Addr: 70, Double: true}); err != nil {
		t.Fatal(err)
	}
	var keep *Checkpoint
	m.CheckpointSink = func(ck *Checkpoint) error {
		if ck.Sweep == 4 {
			keep = ck
		}
		return nil
	}
	fullRes, err := m.SolveJacobi(parallelProblem(4))
	if err != nil {
		t.Fatal(err)
	}
	if keep == nil {
		t.Fatal("no sweep-4 checkpoint")
	}
	if keep.Traps.ECCUncorrectable != 1 {
		t.Fatalf("snapshot traps = %s, want the sweep-0 ECC event", keep.Traps)
	}

	m2, err := New(smallCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	m2.Trap = arch.TrapConfig{Policy: arch.TrapRetry}
	m2.Restore = keep
	res, err := m2.SolveJacobi(parallelProblem(4))
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolve(t, res, fullRes)
	if res.Traps != fullRes.Traps {
		t.Errorf("resumed traps %s, uninterrupted %s", res.Traps, fullRes.Traps)
	}
}
