package codegen_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/diagram"
	"repro/internal/jacobi"
)

// gateDoc builds the 8×8×4 Jacobi document the allocation gates
// measure, and a generator for it.
func gateDoc(t *testing.T) (*diagram.Document, *codegen.Generator) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's instrumentation adds allocations")
	}
	cfg := arch.Default()
	doc, _, err := jacobi.NewBoxProblem(8, 4, 1e-6, 1).BuildDocument(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return doc, codegen.New(arch.MustInventory(cfg))
}

// TestPipelineAllocGate holds Generator.Pipeline on the 8×8×4 Jacobi
// forward sweep to its allocation budget, which leaves room for one
// check and one analysis of the pipeline, with pad names and switch
// ports looked up rather than formatted or mapped per compile. The
// analysis sizes its maps once and visits each pad's drivers without
// building a slice (about twenty allocations; one slice per pad visited
// and maps grown pad by pad cost about forty more), and hardware
// assignment takes ALSs by index over the inventory instead of copying
// its pools and a unit slice per ALS icon (about fifteen more).
func TestPipelineAllocGate(t *testing.T) {
	doc, gen := gateDoc(t)
	generate := func() {
		if _, _, err := gen.Pipeline(doc, doc.Pipes[0]); err != nil {
			t.Fatal(err)
		}
	}
	generate() // warm-up: the Config's first use builds the shared tables
	allocs := testing.AllocsPerRun(20, generate)
	if allocs > 35 {
		t.Errorf("Generator.Pipeline makes %v allocs on the Jacobi forward sweep, want at most 35", allocs)
	}
	t.Logf("Generator.Pipeline on the 8×8×4 Jacobi forward sweep: %v allocs", allocs)
}

// TestDocumentAllocGate holds a whole-document compile — the document
// check, Lower and Validate, the three stages pipeline.CompileDocument
// runs — on the same document to its budget: one check that hands each
// pipeline's analysis to the lowering, which analyses nothing again and
// formats no diagnostic it would drop.
func TestDocumentAllocGate(t *testing.T) {
	doc, gen := gateDoc(t)
	generate := func() {
		ds, ans := gen.Chk.Check(doc)
		if es := checker.Errors(ds); len(es) > 0 {
			t.Fatal(es)
		}
		prog, _, err := gen.Lower(doc, ans)
		if err != nil {
			t.Fatal(err)
		}
		if err := gen.Validate(prog); err != nil {
			t.Fatal(err)
		}
	}
	generate()
	allocs := testing.AllocsPerRun(20, generate)
	if allocs > 85 {
		t.Errorf("compiling the Jacobi document makes %v allocs, want at most 85", allocs)
	}
	t.Logf("check, Lower and Validate on the 8×8×4 Jacobi document: %v allocs", allocs)
}
