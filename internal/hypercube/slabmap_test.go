package hypercube

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/jacobi"
)

// fabrics names every topology a 4-rank machine can be built over.
var fabrics = []string{"hypercube", "mesh2d", "torus2d"}

// sameBits fails t unless got and want hold the same float64 bits, so
// −0.0 and +0.0 differ; it reports how many words differ.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, want %d", what, len(got), len(want))
	}
	diff, first := 0, -1
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			if first < 0 {
				first = i
			}
			diff++
		}
	}
	if diff > 0 {
		t.Fatalf("%s: %d of %d words differ; word %d = %v, want %v",
			what, diff, len(want), first, got[first], want[first])
	}
}

// sameAsReference fails t unless res reproduces ref bit for bit.
func sameAsReference(t *testing.T, res *JacobiResult, ref *jacobi.RefResult) {
	t.Helper()
	if res.Iterations != ref.Iters {
		t.Fatalf("%d iterations, reference %d", res.Iterations, ref.Iters)
	}
	sameBits(t, "residual series", res.ResidualSeries, ref.Residuals)
	sameBits(t, "grid", res.U, ref.U)
}

// negZeroProblem is the 8×8×10 box problem with −0.0 on both global
// boundary planes of U0, run for exactly `sweeps` sweeps. The first
// sweep's blend u + mask·(…) turns those words into +0.0, on the ring
// and in Reference alike, so a result that took its boundary planes
// from U0 would differ from Reference in 2·N² words.
func negZeroProblem(sweeps int) *jacobi.Problem {
	g := jacobi.NewBoxProblem(8, 10, 0, sweeps)
	nn := g.N * g.N
	for i := 0; i < nn; i++ {
		g.U0[i] = math.Copysign(0, -1)
		g.U0[len(g.U0)-1-i] = math.Copysign(0, -1)
	}
	return g
}

// TestSolveJacobiResultBits: SolveJacobi gathers its result from the
// ring, boundary planes included, so it matches Reference bit for bit
// when U0's boundary holds −0.0. An odd sweep count leaves the result
// in plane V and an even one in plane U; it holds on every fabric, at
// every worker count, and for a run restored from a checkpoint.
func TestSolveJacobiResultBits(t *testing.T) {
	for _, sweeps := range []int{5, 6} {
		g := negZeroProblem(sweeps)
		ref := g.Reference()
		for _, topology := range fabrics {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("sweeps%d/%s/w%d", sweeps, topology, workers), func(t *testing.T) {
					m := machineOn(t, topology, 2, sweeps)
					m.Workers = workers
					res, err := m.SolveJacobi(g)
					if err != nil {
						t.Fatal(err)
					}
					sameAsReference(t, res, ref)
				})
			}
		}
	}

	g := negZeroProblem(6)
	ref := g.Reference()
	for _, topology := range fabrics {
		t.Run("restored/"+topology, func(t *testing.T) {
			m := machineOn(t, topology, 2, 6)
			m.CheckpointEvery = 3
			var mid *Checkpoint
			m.CheckpointSink = func(ck *Checkpoint) error {
				if ck.Sweep == 3 {
					mid = ck
				}
				return nil
			}
			if _, err := m.SolveJacobi(g); err != nil {
				t.Fatal(err)
			}
			if mid == nil {
				t.Fatal("no sweep-3 checkpoint was taken")
			}
			fresh := machineOn(t, topology, 2, 6)
			fresh.Restore = mid
			res, err := fresh.SolveJacobi(g)
			if err != nil {
				t.Fatal(err)
			}
			sameAsReference(t, res, ref)
		})
	}
}

// TestSolveJacobiUnevenSlabs: SolveJacobi takes any grid with at least
// one interior plane per rank; the first (Nz−2) mod P ranks own one
// plane more. Every such shape matches Reference bit for bit on every
// fabric, and so does the next solve on a ring a permanent kill shrank
// from 4 ranks to 3 (the 3,3,2 split its recovery ran on). Fewer
// interior planes than ranks is refused.
func TestSolveJacobiUnevenSlabs(t *testing.T) {
	for _, nz := range []int{8, 9, 11, 13} {
		g := jacobi.NewBoxProblem(8, nz, 1e-4, 400)
		ref := g.Reference()
		if !ref.Converged {
			t.Fatalf("nz=%d: reference did not converge", nz)
		}
		for _, topology := range fabrics {
			t.Run(fmt.Sprintf("nz%d/%s", nz, topology), func(t *testing.T) {
				res, err := machineOn(t, topology, 2, 0).SolveJacobi(g)
				if err != nil {
					t.Fatal(err)
				}
				sameAsReference(t, res, ref)
			})
		}
	}

	t.Run("shrunk", func(t *testing.T) {
		m, err := New(smallCfg(), 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Faults = killPlan(t, [2]int{3, 1})
		g := jacobi.NewBoxProblem(8, 10, 1e-4, 400)
		ref := g.Reference()
		for solve := 1; solve <= 2; solve++ {
			res, err := m.SolveJacobi(g)
			if err != nil {
				t.Fatalf("solve %d: %v", solve, err)
			}
			if m.P() != 3 {
				t.Fatalf("solve %d: %d live ranks, want 3", solve, m.P())
			}
			sameAsReference(t, res, ref)
		}
	})

	_, err := machineOn(t, "hypercube", 2, 0).SolveJacobi(jacobi.NewBoxProblem(8, 5, 1e-4, 100))
	if err == nil || !strings.Contains(err.Error(), "cannot partition 3 interior planes across 4 ranks") {
		t.Errorf("3 interior planes over 4 ranks: err = %v", err)
	}
}
