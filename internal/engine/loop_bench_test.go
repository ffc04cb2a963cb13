package engine_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/topo"
)

// BenchmarkLoopPhases times the engine's barriers on multigrid's fine
// slabs: the 17³ model problem over 8 mesh2d ranks, a forward and a
// backward damped-Jacobi sweep, each dispatched and then exchanged,
// with GOMAXPROCS workers. It reports the host time per barrier.
func BenchmarkLoopPhases(b *testing.B) {
	const n, p = 17, 8
	cfg := arch.Default()
	tp, err := topo.New("mesh2d", p)
	if err != nil {
		b.Fatal(err)
	}
	m, err := hypercube.NewWithTopology(cfg, tp)
	if err != nil {
		b.Fatal(err)
	}
	fab := m.Fabric()
	part, err := engine.NewPartition(p, n, n)
	if err != nil {
		b.Fatal(err)
	}
	gen := codegen.New(arch.MustInventory(cfg))
	global := jacobi.NewModelProblem(n, 1e-6, 1)
	fwd, bwd := make([]*microcode.Instr, p), make([]*microcode.Instr, p)
	for r := 0; r < p; r++ {
		lp, err := part.Local(cfg, global, r)
		if err != nil {
			b.Fatal(err)
		}
		if fwd[r], bwd[r], err = lp.Sweeps(gen); err != nil {
			b.Fatal(err)
		}
		if err := lp.Load(fab.Node(r)); err != nil {
			b.Fatal(err)
		}
	}
	loop, err := engine.NewLoop(&engine.Config{Fabric: fab, Part: part, Workers: -1})
	if err != nil {
		b.Fatal(err)
	}
	fwdAt := func(r int) *microcode.Instr { return fwd[r] }
	bwdAt := func(r int) *microcode.Instr { return bwd[r] }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range []struct {
			instr func(int) *microcode.Instr
			plane int
		}{{fwdAt, jacobi.PlaneV}, {bwdAt, jacobi.PlaneU}} {
			if _, err := loop.Dispatch(i, s.instr, s.plane); err != nil {
				b.Fatal(err)
			}
			if _, err := loop.Exchange(i, s.plane); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/barrier")
}
