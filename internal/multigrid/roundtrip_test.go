package multigrid

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/compiler"
	"repro/internal/diagram"
	"repro/internal/editor"
	"repro/internal/jacobi"
)

// TestEditorDocumentsSurviveLoad: every document the solvers and the
// stencil compiler build through the editor loads back after Save and
// checks to the same findings, warnings included. Load's shape rules
// and the checker's replay of the edit-time rules refuse nothing the
// editor accepted, and add or drop no finding.
func TestEditorDocumentsSurviveLoad(t *testing.T) {
	cfg := arch.Default()
	inv := arch.MustInventory(cfg)
	p := jacobi.NewModelProblem(8, 1e-6, 10)
	jac, _, err := p.BuildDocument(cfg)
	if err != nil {
		t.Fatal(err)
	}
	aux := editor.New(inv, "mg-aux")
	if _, err := aux.ExecScript(strings.NewReader(auxScript(p, 1e-6))); err != nil {
		t.Fatal(err)
	}
	sub, _, err := jacobi.NewModelProblem(6, 1e-3, 100).SubsetBuild(arch.Subset())
	if err != nil {
		t.Fatal(err)
	}
	stencil, err := compiler.CompileProgram([]string{
		"tmp = 0.25*(u@(1,0,0) + u@(-1,0,0) + u@(0,1,0) + u@(0,-1,0))",
		"v = 0.5*u + 0.5*tmp",
	}, inv, compiler.Options{N: 6, Nz: 6, Planes: map[string]int{"u": 0, "tmp": 1, "v": 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		doc  *diagram.Document
		cfg  arch.Config
	}{
		{"jacobi", jac, cfg},
		{"multigrid-aux", aux.Doc, cfg},
		{"subset", sub, arch.Subset()},
		{"compiled-stencil", stencil.Doc, cfg},
	} {
		var buf bytes.Buffer
		if err := tc.doc.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := diagram.Load(&buf)
		if err != nil {
			t.Errorf("%s: Load refuses the document the editor built: %v", tc.name, err)
			continue
		}
		chk := checker.New(arch.MustInventory(tc.cfg))
		if built, back := chk.CheckDocument(tc.doc), chk.CheckDocument(loaded); !reflect.DeepEqual(built, back) {
			t.Errorf("%s: findings change across Save and Load:\n%v\n%v", tc.name, built, back)
		}
	}
}
