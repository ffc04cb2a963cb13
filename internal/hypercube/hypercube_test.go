package hypercube

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/jacobi"
	"repro/internal/topo"
)

func smallCfg() arch.Config {
	cfg := arch.Default()
	cfg.HypercubeDim = 3
	return cfg
}

func TestNewMachine(t *testing.T) {
	m, err := New(smallCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.P() != 8 {
		t.Fatalf("P = %d", m.P())
	}
	if _, err := New(smallCfg(), -1); err == nil {
		t.Error("negative dim accepted")
	}
	if _, err := New(smallCfg(), 11); err == nil {
		t.Error("dim 11 accepted")
	}
}

// TestGrayRing: the hypercube machine embeds its ring through the Gray
// code, so every pair of consecutive ranks sits on addresses one hop
// apart.
func TestGrayRing(t *testing.T) {
	m, err := New(smallCfg(), 6)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Fabric()
	for r := 0; r < m.P(); r++ {
		if f.Node(r) != m.Nodes[topo.Gray(r)] {
			t.Fatalf("rank %d does not run on Gray address %d", r, topo.Gray(r))
		}
		if r > 0 {
			if h := f.Hops(r-1, r); h != 1 {
				t.Errorf("ranks %d,%d sit %d hops apart, want 1", r-1, r, h)
			}
		}
	}
}

func TestSendCost(t *testing.T) {
	m, _ := New(smallCfg(), 3)
	if m.SendCost(1000, 0) != 0 {
		t.Error("local send should be free")
	}
	one := m.SendCost(800, 1)
	two := m.SendCost(800, 2)
	if two <= one {
		t.Error("more hops should cost more")
	}
	big := m.SendCost(8000, 1)
	if big <= one {
		t.Error("more bytes should cost more")
	}
	// Exact: hops*8 + ceil(bytes/8).
	if got := m.SendCost(801, 2); got != 2*8+101 {
		t.Errorf("send cost = %d", got)
	}
}

// TestMultiNodeMatchesGlobalReference: the decomposed solve agrees with
// the single-grid scalar reference bit-for-bit and converges on the
// same iteration.
func TestMultiNodeMatchesGlobalReference(t *testing.T) {
	cfg := smallCfg()
	// Global grid 8×8×10: 8 interior planes over 4 nodes = 2 each.
	g := jacobi.NewBoxProblem(8, 10, 1e-4, 400)
	ref := g.Reference()
	if !ref.Converged {
		t.Fatal("reference did not converge")
	}

	m, err := New(cfg, 2) // 4 nodes
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.SolveJacobi(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("hypercube solve did not converge (res %g)", res.Residual)
	}
	if res.Iterations != ref.Iters {
		t.Errorf("iterations = %d, reference %d", res.Iterations, ref.Iters)
	}
	for i := range ref.U {
		if res.U[i] != ref.U[i] {
			t.Fatalf("u[%d] = %g, reference %g", i, res.U[i], ref.U[i])
		}
	}
	if res.GFLOPS <= 0 || res.Cycles <= 0 {
		t.Errorf("stats: %+v", res)
	}
	if m.CommCycles == 0 {
		t.Error("multi-node solve charged no communication")
	}
}

func TestSingleNodeDegenerateCase(t *testing.T) {
	cfg := smallCfg()
	g := jacobi.NewModelProblem(8, 1e-3, 200)
	m, err := New(cfg, 0) // 1 node
	if err != nil {
		t.Fatal(err)
	}
	// 6 interior planes over 1 node.
	res, err := m.SolveJacobi(g)
	if err != nil {
		t.Fatal(err)
	}
	ref := g.Reference()
	if res.Iterations != ref.Iters {
		t.Errorf("iterations = %d, want %d", res.Iterations, ref.Iters)
	}
	for i := range ref.U {
		if res.U[i] != ref.U[i] {
			t.Fatalf("u[%d] mismatch", i)
		}
	}
	if m.CommCycles != 0 {
		t.Error("single node charged communication")
	}
}

func TestPeakAndMemoryClaims(t *testing.T) {
	cfg := arch.Default()
	m := &Machine{Cfg: cfg}
	for i := 0; i < 64; i++ {
		m.Nodes = append(m.Nodes, nil)
	}
	if got := m.PeakGFLOPS(); math.Abs(got-40.96) > 1e-9 {
		t.Errorf("64-node peak = %g GFLOPS, paper says ~40", got)
	}
	if got := m.TotalMemoryBytes(); got != 128<<30 {
		t.Errorf("64-node memory = %d, paper says 128 GB", got)
	}
}
