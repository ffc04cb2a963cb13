package hypercube

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/engine"
	"repro/internal/microcode"
)

// TestSharedSlabCompile checks that a Jacobi build compiles each
// distinct slab once and hands every rank of that slab the same
// instructions. The reference oracle is each rank's solo compile: its
// own document build plus codegen.Pipeline, with its own generator.
func TestSharedSlabCompile(t *testing.T) {
	for _, tc := range []struct {
		name       string
		n, nz, dim int
		distinct   int
	}{
		{"8x8x18", 8, 18, 3, 1},    // 2 planes per rank
		{"48x48x34", 48, 34, 3, 1}, // 4 planes per rank
		{"17x17x17", 17, 17, 3, 2}, // planes 2,2,2,2,2,2,2,1
		{"12x12x12", 12, 12, 2, 2}, // planes 3,3,2,2
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallCfg()
			m, err := New(cfg, tc.dim)
			if err != nil {
				t.Fatal(err)
			}
			global := boxProblem(tc.n, tc.nz)
			part, err := engine.NewPartition(m.P(), tc.n, tc.nz)
			if err != nil {
				t.Fatal(err)
			}
			s := newJacobiSolve(m, global)
			if err := s.build(part); err != nil {
				t.Fatal(err)
			}
			scripts := map[string]bool{}
			fwds, bwds := map[*microcode.Instr]bool{}, map[*microcode.Instr]bool{}
			for r := 0; r < part.P; r++ {
				lp, err := part.Local(cfg, global, r)
				if err != nil {
					t.Fatal(err)
				}
				scripts[lp.Script()] = true
				doc, _, err := lp.BuildDocument(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gen := codegen.New(arch.MustInventory(cfg))
				for i, got := range []*microcode.Instr{s.fwd[r], s.bwd[r]} {
					want, _, err := gen.Pipeline(doc, doc.Pipes[i])
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got.W, want.W) {
						t.Errorf("rank %d pipe %d: shared words differ from the rank's solo compile", r, i)
					}
				}
				fwds[s.fwd[r]], bwds[s.bwd[r]] = true, true
			}
			if len(scripts) != tc.distinct {
				t.Fatalf("%d distinct slab scripts, want %d", len(scripts), tc.distinct)
			}
			if len(fwds) != len(scripts) || len(bwds) != len(scripts) {
				t.Errorf("%d forward and %d backward instructions for %d distinct slabs over %d ranks",
					len(fwds), len(bwds), len(scripts), part.P)
			}
		})
	}
}
