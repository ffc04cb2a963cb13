// Package core ties the visual programming environment together as in
// Figure 3: the graphical editor feeds semantic data structures to the
// checker and the microcode generator, whose output executes on the
// (simulated) Navier-Stokes Computer. An Environment owns one instance
// of each component over a shared machine description.
package core

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/diagram"
	"repro/internal/editor"
	"repro/internal/microcode"
	"repro/internal/pipeline"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Environment is one complete visual-programming session: editor,
// checker, generator and a simulated node, all built from the same
// machine configuration. Multi-node machines are hypercube.Machine's
// job; the session drives one node.
type Environment struct {
	Inv *arch.Inventory
	Ed  *editor.Editor
	// Pipe is the session's compilation pipeline: the pass-structured,
	// cached front end every Generate call routes through. Its
	// generator (Pipe.Gen) shares the session's inventory.
	Pipe *pipeline.Pipeline
	Node *sim.Node
}

// New creates an environment for the given machine description.
func New(cfg arch.Config) (*Environment, error) {
	inv, err := arch.NewInventory(cfg)
	if err != nil {
		return nil, err
	}
	node, err := sim.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	return &Environment{
		Inv:  inv,
		Ed:   editor.New(inv, "untitled"),
		Pipe: pipeline.New(inv),
		Node: node,
	}, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg arch.Config) *Environment {
	env, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return env
}

// Script feeds editor commands (one per line) to the graphical editor.
func (env *Environment) Script(src string) ([]editor.Event, error) {
	return env.Ed.ExecScript(strings.NewReader(src))
}

// Check runs the full checker over the document.
func (env *Environment) Check() []checker.Diagnostic { return env.Ed.Check() }

// Generate translates the document to microcode, refusing on checker
// errors (the Figure 3 "thorough check of global constraints"). The
// work routes through the session's compilation pipeline: repeated
// generation of an unchanged document is a compile-cache hit.
func (env *Environment) Generate() (*microcode.Program, *codegen.Report, error) {
	res, err := env.Pipe.CompileDocument(env.Ed.Doc)
	if err != nil {
		return nil, nil, err
	}
	return res.Prog, res.Rep, nil
}

// Execute runs a program on the environment's node.
func (env *Environment) Execute(p *microcode.Program, maxInstrs int64) (sim.RunResult, error) {
	return env.Node.Run(p, maxInstrs)
}

// BuildAndRun is the complete Figure 3 workflow: edit, check, generate,
// execute.
func (env *Environment) BuildAndRun(script string, maxInstrs int64) (*microcode.Program, sim.RunResult, error) {
	if _, err := env.Script(script); err != nil {
		return nil, sim.RunResult{}, fmt.Errorf("core: editing: %w", err)
	}
	prog, _, err := env.Generate()
	if err != nil {
		return nil, sim.RunResult{}, fmt.Errorf("core: generating: %w", err)
	}
	res, err := env.Execute(prog, maxInstrs)
	if err != nil {
		return prog, res, fmt.Errorf("core: executing: %w", err)
	}
	return prog, res, nil
}

// Window renders the Figure 5 display window around the current
// pipeline.
func (env *Environment) Window() string { return render.Window(env.Ed) }

// RenderPipeline renders pipeline n as ASCII art.
func (env *Environment) RenderPipeline(n int) (string, error) {
	p, err := env.Ed.Doc.Pipe(n)
	if err != nil {
		return "", err
	}
	return render.Pipeline(p), nil
}

// RenderSVG renders pipeline n as SVG.
func (env *Environment) RenderSVG(n int) (string, error) {
	p, err := env.Ed.Doc.Pipe(n)
	if err != nil {
		return "", err
	}
	return render.SVG(p), nil
}

// SaveDocument writes the semantic data structures (the prototype's
// output artifact) as JSON.
func (env *Environment) SaveDocument(w io.Writer) error { return env.Ed.Doc.Save(w) }

// LoadDocument replaces the session's document.
func (env *Environment) LoadDocument(r io.Reader) error {
	doc, err := diagram.Load(r)
	if err != nil {
		return err
	}
	env.Ed = editor.Open(env.Inv, doc)
	return nil
}

// Trace executes pipeline n standalone with the debugging extension
// armed and returns the value-annotated diagram for the given element.
func (env *Environment) Trace(n int, element int64) (string, error) {
	p, err := env.Ed.Doc.Pipe(n)
	if err != nil {
		return "", err
	}
	in, info, err := env.Pipe.Gen.Pipeline(env.Ed.Doc, p)
	if err != nil {
		return "", err
	}
	samples, err := trace.Capture(env.Node, in, p, info, element)
	if err != nil {
		return "", err
	}
	return trace.Annotate(p, samples), nil
}
