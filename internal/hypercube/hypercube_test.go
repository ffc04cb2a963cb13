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

// Regression: out-of-range plane indices and word ranges must come
// back as errors from the fabric's copy, never as panics (a negative
// count once panicked in makeslice) or out-of-memory aborts, and a
// failed copy prices nothing.
func TestTopologyValidation(t *testing.T) {
	m, _ := New(smallCfg(), 3)
	f := m.Fabric()
	words := m.Cfg.PlaneWords()
	for _, tc := range []struct {
		name               string
		fromPlane, toPlane int
		fromAddr, toAddr   int64
		count              int
	}{
		{"source plane", -1, 0, 0, 0, 4},
		{"dest plane", 0, 99, 0, 0, 4},
		{"negative count", 0, 0, 0, 0, -1},
		{"count past any plane", 0, 0, 0, 0, 999999999999},
		{"source range past plane end", 0, 0, words - 2, 0, 4},
		{"dest range past plane end", 0, 0, 0, words - 2, 4},
	} {
		if cost, err := f.Copy(0, tc.fromPlane, tc.fromAddr, 1, tc.toPlane, tc.toAddr, tc.count); err == nil || cost != 0 {
			t.Errorf("copy %s: cost %d, err %v; want an unpriced error", tc.name, cost, err)
		}
	}
}

// TestCopyWordsMovesDataAndCharges: a valid copy through the fabric
// moves the words and prices them over the pair's hops.
func TestCopyWordsMovesDataAndCharges(t *testing.T) {
	m, _ := New(smallCfg(), 3)
	f := m.Fabric()
	data := []float64{1, 2, 3, 4}
	if err := f.Node(0).WriteWords(0, 100, data); err != nil {
		t.Fatal(err)
	}
	cost, err := f.Copy(0, 0, 100, 5, 2, 200, len(data))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := f.Node(5).ReadWords(2, 200, len(data))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("copied[%d] = %v", i, got[i])
		}
	}
	if want := m.SendCost(int64(len(data))*8, f.Hops(0, 5)); cost != want {
		t.Errorf("copy cost %d, want %d", cost, want)
	}
}

// TestMultiNodeMatchesGlobalReference: the decomposed solve agrees with
// the single-grid scalar reference bit-for-bit and converges on the
// same iteration.
func TestMultiNodeMatchesGlobalReference(t *testing.T) {
	cfg := smallCfg()
	// Global grid 8×8×10: 8 interior planes over 4 nodes = 2 each.
	g := jacobi.NewModelProblem(8, 1e-4, 400)
	g.Nz = 10
	g.F = make([]float64, g.Cells())
	g.U0 = make([]float64, g.Cells())
	g.Mask = make([]float64, g.Cells())
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.N; j++ {
			for i := 0; i < g.N; i++ {
				idx := g.Index(i, j, k)
				g.F[idx] = 1
				if i > 0 && i < g.N-1 && j > 0 && j < g.N-1 && k > 0 && k < g.Nz-1 {
					g.Mask[idx] = 1
				}
			}
		}
	}
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

func TestSolveJacobiRejectsUnevenDecomposition(t *testing.T) {
	m, _ := New(smallCfg(), 2) // 4 nodes
	g := jacobi.NewModelProblem(8, 1e-4, 100)
	// 6 interior planes over 4 nodes: uneven.
	if _, err := m.SolveJacobi(g); err == nil {
		t.Error("uneven decomposition accepted")
	}
}

func TestPeakAndMemoryClaims(t *testing.T) {
	cfg := arch.Default()
	m := &Machine{Cfg: cfg, Dim: 6}
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
