package multigrid

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/hypercube"
	"repro/internal/microcode"
	"repro/internal/topo"
)

// TestDistributedSharedSlabCompile checks that the distributed build
// compiles each distinct fine slab once. At N=17 over 8 mesh2d ranks
// the slabs hold 2,2,2,2,2,2,2,1 planes, so 2 of the 8 differ. The
// reference oracle is each rank's solo buildLevel with its own
// generator; every one of the five slab instructions must match it.
func TestDistributedSharedSlabCompile(t *testing.T) {
	cfg := arch.Default()
	tp, err := topo.New("mesh2d", 8)
	if err != nil {
		t.Fatal(err)
	}
	m, err := hypercube.NewWithTopology(cfg, tp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDistributed(DistConfig{Fabric: m.Fabric(), Cfg: cfg, N: 17, Levels: 3, Tol: 1e-6, MaxCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	code := func(lv *Level) []*microcode.Instr {
		return []*microcode.Instr{lv.fwd, lv.bwd, lv.residual, lv.correct, lv.copyVU}
	}
	scripts := map[string]bool{}
	distinct := make([]map[*microcode.Instr]bool, 5)
	for i := range distinct {
		distinct[i] = map[*microcode.Instr]bool{}
	}
	for r, lv := range d.slabs {
		scripts[lv.P.Script()+auxScript(lv.P, d.dc.Tol)] = true
		solo := &Level{P: lv.P}
		if err := buildLevel(codegen.New(arch.MustInventory(cfg)), solo, d.dc.Tol); err != nil {
			t.Fatal(err)
		}
		want := code(solo)
		for i, in := range code(lv) {
			if !slices.Equal(in.W, want[i].W) {
				t.Errorf("rank %d instruction %d: shared words differ from the rank's solo compile", r, i)
			}
			distinct[i][in] = true
		}
	}
	if len(scripts) != 2 {
		t.Fatalf("%d distinct slab scripts, want 2", len(scripts))
	}
	for i, set := range distinct {
		if len(set) != len(scripts) {
			t.Errorf("instruction %d: %d distinct over %d ranks, want one per distinct slab (%d)",
				i, len(set), len(d.slabs), len(scripts))
		}
	}
}
