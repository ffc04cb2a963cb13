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
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/microcode"
	"repro/internal/multigrid"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/render"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Environment is one complete visual-programming session: editor,
// checker, generator and a simulated node, all built from the same
// machine configuration.
type Environment struct {
	Cfg arch.Config
	Inv *arch.Inventory
	Ed  *editor.Editor
	Gen *codegen.Generator
	// Pipe is the session's compilation pipeline: the pass-structured,
	// cached front end every Generate call routes through. It shares
	// the session's generator and checker.
	Pipe *pipeline.Pipeline
	Node *sim.Node
	// Topology names the fabric multi-node machines are built over:
	// "hypercube" (the default when empty), "mesh2d" or "torus2d" — any
	// name topo.New accepts. Changing it invalidates a cached Cube.
	Topology string
	// Cube is the session's multi-node machine, built on demand by
	// Hypercube. Nil until a multi-node solve is requested.
	Cube *hypercube.Machine
	// Trap is the session's exception policy, applied to the node and
	// to any cube (including ones built later) by SetTrapPolicy.
	Trap arch.TrapConfig
	// Obs is the session's observability layer, attached by SetObs to
	// the pipeline, the single node (shard 0) and any cube (including
	// ones built later). Nil keeps every instrumented path disabled.
	Obs *obs.Obs
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
	pipe := pipeline.New(inv)
	return &Environment{
		Cfg:  cfg,
		Inv:  inv,
		Ed:   editor.New(inv, "untitled"),
		Gen:  pipe.Gen,
		Pipe: pipe,
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

// CheckCacheStats reports the editor's incremental check cache
// counters: per-pipeline checks replayed versus re-run.
func (env *Environment) CheckCacheStats() checker.CheckCacheStats {
	return env.Ed.CheckCacheStats()
}

// Execute runs a program on the environment's node.
func (env *Environment) Execute(p *microcode.Program, maxInstrs int64) (sim.RunResult, error) {
	return env.Node.Run(p, maxInstrs)
}

// PlanCacheStats reports the node's decoded-instruction cache
// counters: how often Execute replayed a compiled pipeline
// configuration instead of re-deriving it from the microcode word.
func (env *Environment) PlanCacheStats() sim.PlanCacheStats {
	return env.Node.PlanCacheStats()
}

// Hypercube returns the session's multi-node machine, building a
// 2^dim-node machine over the session's Topology on first use (or when
// the dimension or topology changes). The machine keeps its fault
// plan and checkpoint settings across solves, so a session configures
// robustness once. The name is historical: the
// machine is a hypercube by default but follows env.Topology.
func (env *Environment) Hypercube(dim int) (*hypercube.Machine, error) {
	name := env.Topology
	if name == "" {
		name = "hypercube"
	}
	if env.Cube != nil && len(env.Cube.Nodes) == 1<<uint(dim) && env.Cube.Topo.Name() == name {
		return env.Cube, nil
	}
	t, err := topo.New(name, 1<<uint(dim))
	if err != nil {
		return nil, err
	}
	m, err := hypercube.NewWithTopology(env.Cfg, t)
	if err != nil {
		return nil, err
	}
	m.Trap = env.Trap
	m.Obs = env.Obs
	env.Cube = m
	return m, nil
}

// SetObs arms (or disarms) the unified observability layer for the
// whole session: the compilation pipeline, the single node, and the
// cube's nodes at the start of each multi-node solve.
func (env *Environment) SetObs(o *obs.Obs) {
	env.Obs = o
	env.Pipe.Obs = o
	env.Node.Obs = o
	env.Node.ObsID = 0
	if env.Cube != nil {
		env.Cube.Obs = o
		env.Cube.ArmObs()
	}
}

// DistributedMultigrid runs a V-cycle solve for an n×n×n model problem
// across the session's 2^dim-node cube: slab-decomposed smoothing and
// residual sweeps on every node through the solver engine, the coarse
// chain resident on rank 0. The trajectory is bit-identical to the
// single-node multigrid solver at every cube size.
func (env *Environment) DistributedMultigrid(dim, n, levels int, tol float64, maxCycles int) (*multigrid.DistResult, error) {
	m, err := env.Hypercube(dim)
	if err != nil {
		return nil, err
	}
	m.ArmObs()
	d, err := multigrid.NewDistributed(multigrid.DistConfig{
		Fabric: m.Fabric(), Cfg: env.Cfg,
		N: n, Levels: levels, Tol: tol, MaxCycles: maxCycles,
		Workers: m.Workers, Obs: m.Obs,
	})
	if err != nil {
		return nil, err
	}
	return d.Run()
}

// SetTrapPolicy arms (or disarms) exception detection for the whole
// session: the single node immediately, and the cube's nodes at the
// start of each multi-node solve.
func (env *Environment) SetTrapPolicy(tc arch.TrapConfig) {
	env.Trap = tc
	env.Node.TrapCfg = tc
	if env.Cube != nil {
		env.Cube.Trap = tc
	}
}

// TrapStats reports the cumulative exception/interrupt counters of the
// session: the single node's events plus, when a cube was built, every
// cube node's, merged in node order so the total is deterministic.
func (env *Environment) TrapStats() sim.TrapStats {
	st := env.Node.TrapCounters
	if env.Cube != nil {
		for _, nd := range env.Cube.Nodes {
			st.Add(nd.TrapCounters)
		}
	}
	return st
}

// FaultStats reports the cumulative fault/recovery counters of the
// session's multi-node machine (zero when no cube was ever built or no
// faults were injected).
func (env *Environment) FaultStats() engine.FaultStats {
	if env.Cube == nil {
		return engine.FaultStats{}
	}
	return env.Cube.FaultCounters
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
	in, info, err := env.Gen.Pipeline(env.Ed.Doc, p)
	if err != nil {
		return "", err
	}
	samples, err := trace.Capture(env.Node, in, p, info, element)
	if err != nil {
		return "", err
	}
	return trace.Annotate(p, samples), nil
}
