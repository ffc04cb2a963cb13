// Differential tests: the same solve replayed at several worker counts
// must produce bit-identical residual series, simulated clocks, and —
// with the unified observability layer armed — identical metric totals.
// CI runs these under the race detector (-race -run TestDifferential)
// so the worker-pool dispatch is checked for data races at the same
// time its determinism contract is checked for drift.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/obs/difftest"
)

// difftestWorkers is the ladder every scenario climbs: sequential
// reference, then increasingly contended pools.
func difftestWorkers() []int {
	return []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)}
}

// TestDifferentialSolvers runs the full battery — Jacobi clean, under
// an empty fault plan, faulted with checkpoint recovery, ECC with trap
// retry, and distributed multigrid — across the worker ladder.
func TestDifferentialSolvers(t *testing.T) {
	for _, sc := range difftest.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			if err := difftest.Check([]difftest.Scenario{sc}, difftestWorkers()); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDifferentialSchedules cross-checks a solve with no fault plan
// against one with an empty plan: arming the fault machinery with
// nothing to inject promises identical simulated observables — grid,
// residual series, both clocks and metrics — not just internal
// consistency.
func TestDifferentialSchedules(t *testing.T) {
	scs := difftest.Scenarios()
	var clean, empty *difftest.Scenario
	for i := range scs {
		switch scs[i].Name {
		case "jacobi/clean":
			clean = &scs[i]
		case "jacobi/empty-plan":
			empty = &scs[i]
		}
	}
	if clean == nil || empty == nil {
		t.Fatal("battery is missing the clean or empty-plan scenario")
	}
	a, err := clean.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := empty.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := difftest.Diff("clean", a, "empty-plan", b); err != nil {
		t.Error(err)
	}
}

// TestDifferentialRecovery pins the harness's strongest claim: the
// faulted run's residual series matches the clean run's bit for bit —
// recovery restores the exact trajectory — while its clocks grow and
// its fault metrics are nonzero.
func TestDifferentialRecovery(t *testing.T) {
	scs := difftest.Scenarios()
	var clean, faulted *difftest.Scenario
	for i := range scs {
		switch scs[i].Name {
		case "jacobi/clean":
			clean = &scs[i]
		case "jacobi/faulted":
			faulted = &scs[i]
		}
	}
	if clean == nil || faulted == nil {
		t.Fatal("battery is missing the clean or faulted scenario")
	}
	a, err := clean.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := faulted.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != len(b.Series) {
		t.Fatalf("series length %d vs %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		if a.Series[i] != b.Series[i] {
			t.Errorf("residual[%d]: clean %.17g faulted %.17g", i, a.Series[i], b.Series[i])
		}
	}
	if b.MachineCycles <= a.MachineCycles {
		t.Errorf("faulted run not slower: %d vs clean %d", b.MachineCycles, a.MachineCycles)
	}
}

// TestDifferentialTopology adds the topology axis to the differential
// battery: every fabric's scenarios are worker-count-invariant on
// their own, and across fabrics the same scenario — clean, both
// degraded-recovery paths, distributed multigrid — produces the same
// solution bits. Only the simulated comm clocks may differ between
// fabrics, which is exactly what SameSolution ignores.
func TestDifferentialTopology(t *testing.T) {
	topologies := difftest.Topologies()
	if len(topologies) < 3 {
		t.Fatalf("topo registry lists %d fabrics, want at least 3", len(topologies))
	}
	ref := difftest.TopologyBattery("hypercube")
	refSigs := make([]*difftest.Signature, len(ref))
	for i := range ref {
		sig, err := ref[i].Run(4)
		if err != nil {
			t.Fatal(err)
		}
		refSigs[i] = sig
	}
	for _, name := range topologies {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			battery := difftest.TopologyBattery(name)
			if err := difftest.Check(battery, []int{1, 4}); err != nil {
				t.Error(err)
			}
			if name == "hypercube" {
				return
			}
			if len(battery) != len(ref) {
				t.Fatalf("battery has %d scenarios, hypercube reference %d", len(battery), len(ref))
			}
			for i := range battery {
				sig, err := battery[i].Run(4)
				if err != nil {
					t.Fatal(err)
				}
				if err := difftest.SameSolution(ref[i].Name, refSigs[i], battery[i].Name, sig); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestDifferentialKernel pins the specialized-kernel contract on every
// fabric: each battery scenario — clean Jacobi, trap-armed ECC retry,
// spare-absorbed node loss, distributed multigrid — is solved with the
// execution kernels on and with every node pinned to the reference
// interpreter, and the two Signatures must agree everywhere outside
// the sim.kernel.* path counters. Check then climbs the worker ladder
// on the kernels-on runs, so kernel dispatch is also proven
// worker-count-invariant.
func TestDifferentialKernel(t *testing.T) {
	for _, name := range difftest.Topologies() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := difftest.Check(difftest.KernelBattery(name), []int{1, 4}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestDifferentialDegraded pins the degraded-mode contract against the
// clean baseline: after a permanent node loss — absorbed by a hot spare
// or by a shrinking re-partition — the residual series still matches
// the clean run bit for bit, and the recovery's simulated price shows
// up as strictly slower clocks.
func TestDifferentialDegraded(t *testing.T) {
	scs := difftest.Scenarios()
	byName := make(map[string]*difftest.Scenario, len(scs))
	for i := range scs {
		byName[scs[i].Name] = &scs[i]
	}
	clean := byName["jacobi/clean"]
	if clean == nil {
		t.Fatal("battery is missing the clean scenario")
	}
	a, err := clean.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"jacobi/degraded-spare", "jacobi/degraded-shrink"} {
		sc := byName[name]
		if sc == nil {
			t.Fatalf("battery is missing the %s scenario", name)
		}
		b, err := sc.Run(4)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Series) != len(b.Series) {
			t.Fatalf("%s: series length %d vs clean %d", name, len(b.Series), len(a.Series))
		}
		for i := range a.Series {
			if a.Series[i] != b.Series[i] {
				t.Errorf("%s residual[%d]: clean %.17g degraded %.17g", name, i, a.Series[i], b.Series[i])
			}
		}
		if b.MachineCycles <= a.MachineCycles {
			t.Errorf("%s: degraded run not slower: %d vs clean %d", name, b.MachineCycles, a.MachineCycles)
		}
	}
}
