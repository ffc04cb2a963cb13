package hypercube

import (
	"runtime"
	"testing"

	"repro/internal/jacobi"
)

// parallelProblem builds an 8×8×(8·2^dim + 2) model problem whose
// interior planes decompose evenly over the machine's nodes.
func parallelProblem(p int) *jacobi.Problem { return boxProblem(8, p*2+2) }

// boxProblem is the N=n model problem stretched to nz planes.
func boxProblem(n, nz int) *jacobi.Problem {
	return jacobi.NewBoxProblem(n, nz, 1e-4, 400)
}

// TestSolveJacobiParallelMatchesSequential is the contract of the
// parallel driver: dispatching node sweeps across a worker pool is a
// host-side optimization only. Every simulated observable — residual
// series, iteration count, machine cycles, communication cycles and the
// solution field — must be bit-identical to the sequential run.
func TestSolveJacobiParallelMatchesSequential(t *testing.T) {
	solve := func(workers int) (*JacobiResult, *Machine) {
		m, err := New(smallCfg(), 3) // 8 nodes
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = workers
		res, err := m.SolveJacobi(parallelProblem(m.P()))
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}
	seqRes, seqM := solve(1)
	if !seqRes.Converged {
		t.Fatalf("sequential run did not converge (residual %g)", seqRes.Residual)
	}
	for _, workers := range []int{8, -1, runtime.GOMAXPROCS(0)} {
		parRes, parM := solve(workers)
		if parRes.Iterations != seqRes.Iterations {
			t.Errorf("workers=%d: iterations %d vs %d", workers, parRes.Iterations, seqRes.Iterations)
		}
		if parRes.Cycles != seqRes.Cycles {
			t.Errorf("workers=%d: cycles %d vs %d", workers, parRes.Cycles, seqRes.Cycles)
		}
		if parM.MachineCycles != seqM.MachineCycles {
			t.Errorf("workers=%d: machine cycles %d vs %d", workers, parM.MachineCycles, seqM.MachineCycles)
		}
		if parM.CommCycles != seqM.CommCycles {
			t.Errorf("workers=%d: comm cycles %d vs %d", workers, parM.CommCycles, seqM.CommCycles)
		}
		if len(parRes.ResidualSeries) != len(seqRes.ResidualSeries) {
			t.Fatalf("workers=%d: residual series length %d vs %d",
				workers, len(parRes.ResidualSeries), len(seqRes.ResidualSeries))
		}
		for i := range seqRes.ResidualSeries {
			if parRes.ResidualSeries[i] != seqRes.ResidualSeries[i] {
				t.Fatalf("workers=%d: residual[%d] = %g vs %g",
					workers, i, parRes.ResidualSeries[i], seqRes.ResidualSeries[i])
			}
		}
		for i := range seqRes.U {
			if parRes.U[i] != seqRes.U[i] {
				t.Fatalf("workers=%d: u[%d] = %g vs %g", workers, i, parRes.U[i], seqRes.U[i])
			}
		}
	}
}

// TestSolveJacobiPlanCacheAggregation: each node decodes the sweep
// instruction once and replays it every iteration; the result's cache
// counters aggregate over all nodes.
func TestSolveJacobiPlanCacheAggregation(t *testing.T) {
	m, err := New(smallCfg(), 2) // 4 nodes
	if err != nil {
		t.Fatal(err)
	}
	m.Workers = -1
	res, err := m.SolveJacobi(parallelProblem(m.P()))
	if err != nil {
		t.Fatal(err)
	}
	pc := res.PlanCache
	if pc.Misses != int64(pc.Entries) {
		t.Errorf("misses %d != compiled plans %d", pc.Misses, pc.Entries)
	}
	// One sweep instruction per node, replayed every iteration after
	// the first: hits dominate misses for any multi-iteration solve.
	if res.Iterations > 1 && pc.Hits <= pc.Misses {
		t.Errorf("plan cache not reused: %+v over %d iterations", pc, res.Iterations)
	}
}
