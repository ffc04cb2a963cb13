package hypercube

import (
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/engine"
	"repro/internal/jacobi"
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
			m, err := New(smallCfg(), tc.dim)
			if err != nil {
				t.Fatal(err)
			}
			s := buildSolve(t, m, boxProblem(tc.n, tc.nz))
			scripts := soloCompilesMatch(t, s)
			if len(scripts) != tc.distinct {
				t.Fatalf("%d distinct slab scripts, want %d", len(scripts), tc.distinct)
			}
			fwds, bwds := map[*microcode.Instr]bool{}, map[*microcode.Instr]bool{}
			for r := 0; r < s.part.P; r++ {
				fwds[s.fwd[r]], bwds[s.bwd[r]] = true, true
			}
			if len(fwds) != len(scripts) || len(bwds) != len(scripts) {
				t.Errorf("%d forward and %d backward instructions for %d distinct slabs over %d ranks",
					len(fwds), len(bwds), len(scripts), s.part.P)
			}
		})
	}

	// A standing machine keeps the last build's compiles: the same
	// problem again reuses every instruction, and a problem with another
	// tolerance (another compare constant, so other scripts) compiles
	// afresh and leaves only its own slabs kept.
	t.Run("standing", func(t *testing.T) {
		m, err := New(smallCfg(), 3)
		if err != nil {
			t.Fatal(err)
		}
		first := buildSolve(t, m, boxProblem(17, 17))
		again := buildSolve(t, m, boxProblem(17, 17))
		for r := 0; r < first.part.P; r++ {
			if again.fwd[r] != first.fwd[r] || again.bwd[r] != first.bwd[r] {
				t.Errorf("rank %d: second build recompiled its slab", r)
			}
		}
		tighter := boxProblem(17, 17)
		tighter.Tol /= 10
		other := buildSolve(t, m, tighter)
		scripts := soloCompilesMatch(t, other)
		for r := 0; r < other.part.P; r++ {
			if other.fwd[r] == first.fwd[r] || other.bwd[r] == first.bwd[r] {
				t.Errorf("rank %d: a build with another tolerance reused the old compile", r)
			}
		}
		if len(m.slabs) != len(scripts) {
			t.Errorf("machine keeps %d slabs after a build of %d", len(m.slabs), len(scripts))
		}
		for key := range scripts {
			if _, ok := m.slabs[key]; !ok {
				t.Error("machine does not keep a slab of its last build")
			}
		}
	})

	// Another grid spacing alone changes the h² constant of every slab
	// script, so a build that changes only H compiles afresh.
	t.Run("another H", func(t *testing.T) {
		m, err := New(smallCfg(), 3)
		if err != nil {
			t.Fatal(err)
		}
		first := buildSolve(t, m, boxProblem(17, 17))
		wider := boxProblem(17, 17)
		wider.H *= 2
		other := buildSolve(t, m, wider)
		soloCompilesMatch(t, other)
		for r := 0; r < other.part.P; r++ {
			if other.fwd[r] == first.fwd[r] || other.bwd[r] == first.bwd[r] {
				t.Errorf("rank %d: a build with another H reused the old compile", r)
			}
		}
	})
}

// buildSolve runs one Jacobi build of global on m.
func buildSolve(t *testing.T, m *Machine, global *jacobi.Problem) *jacobiSolve {
	t.Helper()
	part, err := engine.NewPartition(m.P(), global.N, global.Nz)
	if err != nil {
		t.Fatal(err)
	}
	s := newJacobiSolve(m, global)
	if err := s.build(part); err != nil {
		t.Fatal(err)
	}
	return s
}

// soloCompilesMatch checks every rank's instructions against the
// rank's solo compile and returns the script keys of the build's
// distinct slab scripts, checking that the keys tell the same slabs
// apart as the script texts do.
func soloCompilesMatch(t *testing.T, s *jacobiSolve) map[jacobi.ScriptKey]bool {
	t.Helper()
	cfg := s.m.Cfg
	scripts, keys := map[string]bool{}, map[jacobi.ScriptKey]bool{}
	for r := 0; r < s.part.P; r++ {
		lp, err := s.part.Local(cfg, s.global, r)
		if err != nil {
			t.Fatal(err)
		}
		scripts[lp.Script()], keys[lp.ScriptKey()] = true, true
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
	}
	if len(keys) != len(scripts) {
		t.Errorf("%d distinct script keys for %d distinct slab scripts", len(keys), len(scripts))
	}
	return keys
}
