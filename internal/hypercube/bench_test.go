package hypercube

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// BenchmarkObsOverhead measures the wall-time cost of the unified
// observability layer on the same solve, disabled (nil Obs — every
// instrumented site takes its zero-cost branch) versus armed (counters,
// histograms and one span per exec/phase). Simulated observables are
// asserted identical first: the layer only reads simulated state, so
// arming it may cost host time but must never move machine time.
func BenchmarkObsOverhead(b *testing.B) {
	solve := func(o *obs.Obs) (*JacobiResult, *Machine) {
		m, err := New(smallCfg(), 3) // 8 nodes
		if err != nil {
			b.Fatal(err)
		}
		m.Workers = runtime.GOMAXPROCS(0)
		m.StopAfter = 12
		m.Obs = o
		res, err := m.SolveJacobi(parallelProblem(m.P()))
		if err != nil {
			b.Fatal(err)
		}
		return res, m
	}
	rd, md := solve(nil)
	re, me := solve(obs.New())
	if md.MachineCycles != me.MachineCycles || md.CommCycles != me.CommCycles ||
		rd.Residual != re.Residual || rd.Iterations != re.Iterations {
		b.Fatalf("obs changed simulated observables: disabled (%d,%d,%g), enabled (%d,%d,%g)",
			md.MachineCycles, md.CommCycles, rd.Residual, me.MachineCycles, me.CommCycles, re.Residual)
	}
	for _, mode := range []struct {
		name  string
		armed bool
	}{
		{"disabled", false},
		{"enabled", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				var o *obs.Obs
				if mode.armed {
					o = obs.New()
				}
				_, m := solve(o)
				cycles = m.MachineCycles
			}
			b.ReportMetric(float64(cycles), "machine-cycles")
		})
	}
}

// buddySolve is the 8-node fixed-sweep solve under a fault plan, with
// the buddy mirror armed (a kill-forever scheduled past the last sweep)
// or not (an empty plan).
func buddySolve(tb testing.TB, armed bool) (*JacobiResult, *Machine) {
	m, err := New(smallCfg(), 3)
	if err != nil {
		tb.Fatal(err)
	}
	m.Workers = runtime.GOMAXPROCS(0)
	m.StopAfter = 12
	m.Faults = engine.MustFaultPlan()
	if armed {
		m.Faults = mirrorPlan()
	}
	res, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		tb.Fatal(err)
	}
	return res, m
}

// BenchmarkBuddyOverhead measures the wall-time cost of sweep-boundary
// buddy mirroring on a fault-free solve, disabled versus armed every
// sweep. Simulated observables are asserted identical first: the
// mirror is host-side bookkeeping, so arming it may cost host time but
// must never move machine time.
func BenchmarkBuddyOverhead(b *testing.B) {
	rd, md := buddySolve(b, false)
	re, me := buddySolve(b, true)
	if md.MachineCycles != me.MachineCycles || md.CommCycles != me.CommCycles ||
		rd.Residual != re.Residual || rd.Iterations != re.Iterations {
		b.Fatalf("buddy mirror changed simulated observables: disabled (%d,%d,%g), enabled (%d,%d,%g)",
			md.MachineCycles, md.CommCycles, rd.Residual, me.MachineCycles, me.CommCycles, re.Residual)
	}
	for _, mode := range []struct {
		name  string
		armed bool
	}{
		{"disabled", false},
		{"every-sweep", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				_, m := buddySolve(b, mode.armed)
				cycles = m.MachineCycles
			}
			b.ReportMetric(float64(cycles), "machine-cycles")
		})
	}
}

// TestBuddyOverheadBudget guards the robustness claim in numbers:
// mirroring every sweep boundary costs under 3% wall time on the
// fault-free solve (its simulated cost is exactly zero, asserted in
// TestBuddyMirrorIsFreeInSimulatedTime). Each estimate is the median
// of 41 paired ratios: the two solves of a pair run back to back, in
// alternating order, so both see the same machine load, and the median
// drops the pairs a burst of load split. Up to three estimates absorb
// scheduler noise; the budget is meaningless under the race detector
// or -short, so those runs skip.
func TestBuddyOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock budget needs repeated full solves")
	}
	if raceEnabled {
		t.Skip("wall-clock budget is meaningless under the race detector")
	}
	timed := func(armed bool) float64 {
		start := time.Now()
		buddySolve(t, armed)
		return float64(time.Since(start))
	}
	overhead := func() float64 {
		ratios := make([]float64, 41)
		for i := range ratios {
			if i%2 == 0 {
				clean := timed(false)
				ratios[i] = timed(true) / clean
			} else {
				buddy := timed(true)
				ratios[i] = buddy / timed(false)
			}
		}
		sort.Float64s(ratios)
		return ratios[len(ratios)/2] - 1
	}
	var over float64
	for attempt := 0; attempt < 3; attempt++ {
		if over = overhead(); over <= 0.03 {
			return
		}
	}
	t.Errorf("buddy mirror wall overhead %.2f%% exceeds the 3%% budget (median of 41 paired solves)", 100*over)
}

// TestFreshSolveBytes holds a fresh machine's solve to its allocation
// budget: a fresh 8-rank hypercube machine solving a seeded 8×8×18
// problem for 12 sweeps, the shape nscbench's jacobi-cold op solves,
// allocates at most 512 KiB on average, machine build included. Each
// rank touches four planes of 256 words; a plane page holds only the
// words written to it, where whole 4,096-word pages would cost 32 KiB
// a plane, 1 MiB a solve.
func TestFreshSolveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is meaningless under the race detector")
	}
	p := boxProblem(8, 18)
	rng := rand.New(rand.NewSource(1))
	for i := range p.F {
		p.F[i], p.U0[i] = rng.Float64(), rng.Float64()
	}
	solve := func() {
		m, err := New(smallCfg(), 3)
		if err != nil {
			t.Fatal(err)
		}
		m.StopAfter = 12
		if _, err := m.SolveJacobi(p); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm-up: the first solve fills the process-wide caches
	const solves = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range solves {
		solve()
	}
	runtime.ReadMemStats(&after)
	perSolve := (after.TotalAlloc - before.TotalAlloc) / solves
	t.Logf("fresh 8-rank solve of 8×8×18 for 12 sweeps: %d KiB", perSolve>>10)
	if perSolve > 512<<10 {
		t.Errorf("a fresh solve allocates %d KiB, want at most 512 KiB", perSolve>>10)
	}
}
