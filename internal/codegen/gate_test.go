package codegen_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/jacobi"
)

// TestPipelineAllocGate holds Generator.Pipeline on the 8×8×4 Jacobi
// forward sweep to its allocation budget, which leaves room for one
// check and one analysis of the pipeline: a second of each costs about
// a hundred allocations more.
func TestPipelineAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation adds allocations")
	}
	cfg := arch.Default()
	doc, _, err := jacobi.NewBoxProblem(8, 4, 1e-6, 1).BuildDocument(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := codegen.New(arch.MustInventory(cfg))
	generate := func() {
		if _, _, err := gen.Pipeline(doc, doc.Pipes[0]); err != nil {
			t.Fatal(err)
		}
	}
	generate() // warm-up: the Config's first use builds the shared tables
	allocs := testing.AllocsPerRun(20, generate)
	if allocs > 320 {
		t.Errorf("Generator.Pipeline makes %v allocs on the Jacobi forward sweep, want at most 320", allocs)
	}
	t.Logf("Generator.Pipeline on the 8×8×4 Jacobi forward sweep: %v allocs", allocs)
}
