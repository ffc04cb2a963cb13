package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/topo"
)

// jacobiSpec fixes one Jacobi workload's shape.
type jacobiSpec struct {
	topology      string
	n, nz, sweeps int
	// standing runs every op on one machine built in set-up; otherwise
	// each op builds a fresh machine.
	standing bool
	// machineCycles and commCycles pin the simulated clocks one solve
	// adds; they depend on shape and fabric only, never on the data.
	machineCycles, commCycles int64
}

const (
	ranks     = 8 // every workload's machine has 8 ranks
	inputPool = 4 // seeded problems per Jacobi run, used in turn
)

// benchConfig is the node architecture every workload runs on.
func benchConfig() arch.Config {
	cfg := arch.Default()
	cfg.HypercubeDim = 3
	return cfg
}

// workers is the host worker pool of every machine: one per CPU.
func workers() int { return runtime.NumCPU() }

func newMachine(cfg arch.Config, topology string) (*hypercube.Machine, error) {
	t, err := topo.New(topology, ranks)
	if err != nil {
		return nil, err
	}
	m, err := hypercube.NewWithTopology(cfg, t)
	if err != nil {
		return nil, err
	}
	m.Workers = workers()
	return m, nil
}

// problem turns a seeded input into a solver instance.
func (in jacobiInput) problem() *jacobi.Problem {
	g := &jacobi.Problem{N: in.N, Nz: in.Nz, H: 1 / float64(in.N-1), Tol: 0, MaxIter: in.Sweeps,
		F: in.F, U0: in.U0, Mask: make([]float64, len(in.F))}
	for k := 1; k < g.Nz-1; k++ {
		for j := 1; j < g.N-1; j++ {
			for i := 1; i < g.N-1; i++ {
				g.Mask[g.Index(i, j, k)] = 1
			}
		}
	}
	return g
}

// jacobiOut is what one solve produced: the grid, the residual series
// and the simulated clocks it added.
type jacobiOut struct {
	U, Series     []float64
	Machine, Comm int64
}

// jacobiInst is a set-up Jacobi workload.
type jacobiInst struct {
	spec  jacobiSpec
	cfg   arch.Config
	probs []*jacobi.Problem
	refs  []*jacobi.RefResult
	m     *hypercube.Machine // standing machine, nil when each op builds one

	next    int
	lastIdx int
	last    jacobiOut
	lastErr error
}

func setupJacobi(spec jacobiSpec) func(seed int64) (instance, error) {
	return func(seed int64) (instance, error) {
		j := &jacobiInst{spec: spec, cfg: benchConfig()}
		for _, in := range jacobiInputs(seed, spec.n, spec.nz, spec.sweeps, inputPool) {
			j.probs = append(j.probs, in.problem())
		}
		if spec.standing {
			m, err := newMachine(j.cfg, spec.topology)
			if err != nil {
				return nil, err
			}
			m.StopAfter = spec.sweeps
			j.m = m
		}
		return j, nil
	}
}

// machine returns the standing machine or a fresh one.
func (j *jacobiInst) machine() (*hypercube.Machine, error) {
	if j.m != nil {
		return j.m, nil
	}
	m, err := newMachine(j.cfg, j.spec.topology)
	if err != nil {
		return nil, err
	}
	m.StopAfter = j.spec.sweeps
	return m, nil
}

// solve runs hypercube.Machine.SolveJacobi on problem idx.
func (j *jacobiInst) solve(idx int) (jacobiOut, error) {
	m, err := j.machine()
	if err != nil {
		return jacobiOut{}, err
	}
	mc, cc := m.MachineCycles, m.CommCycles
	res, err := m.SolveJacobi(j.probs[idx])
	if err != nil {
		return jacobiOut{}, err
	}
	return jacobiOut{U: res.U, Series: res.ResidualSeries,
		Machine: m.MachineCycles - mc, Comm: m.CommCycles - cc}, nil
}

func (j *jacobiInst) batch(lat *[]float64) int {
	j.lastIdx = j.next % len(j.probs)
	j.next++
	t0 := time.Now()
	j.last, j.lastErr = j.solve(j.lastIdx)
	*lat = append(*lat, ms(time.Since(t0)))
	return 1
}

func (j *jacobiInst) prepareOracle() error {
	j.refs = make([]*jacobi.RefResult, len(j.probs))
	for i, g := range j.probs {
		j.refs[i] = g.Reference()
	}
	return nil
}

// check compares the last solve with the host reference bit for bit and
// its clocks with the pinned values.
func (j *jacobiInst) check() int {
	if j.lastErr != nil {
		return 1
	}
	ref := j.refs[j.lastIdx]
	if err := sameOut(j.last, jacobiOut{U: ref.U, Series: ref.Residuals,
		Machine: j.spec.machineCycles, Comm: j.spec.commCycles}); err != nil {
		return 1
	}
	return 0
}

// sameOut reports the first difference between two solves: grids and
// residual series compared bit for bit, then the clocks.
func sameOut(got, want jacobiOut) error {
	if err := sameBits("grid", got.U, want.U); err != nil {
		return err
	}
	if err := sameBits("residual series", got.Series, want.Series); err != nil {
		return err
	}
	if got.Machine != want.Machine || got.Comm != want.Comm {
		return fmt.Errorf("clocks %d machine / %d comm cycles, want %d / %d",
			got.Machine, got.Comm, want.Machine, want.Comm)
	}
	return nil
}

func sameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s differs at %d: %v, want %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// decomposed runs one solve through the public calls SolveJacobi makes,
// in its order, with a span around each: partition and slab extraction,
// per-rank document build, codegen (forward and back) and load on the
// worker pool, the engine loop's dispatch/combine/exchange per sweep, and
// the read-back of the owned planes.
func (j *jacobiInst) decomposed(tr *tracer) {
	j.lastIdx = j.next % len(j.probs)
	j.next++
	tr.beginOp()
	root := tr.begin("op", -1)
	j.last, j.lastErr = j.replica(tr, root, j.probs[j.lastIdx])
	tr.end(root)
}

func (j *jacobiInst) replica(tr *tracer, root int, g *jacobi.Problem) (jacobiOut, error) {
	cfg, sweeps := j.cfg, j.spec.sweeps
	m := j.m
	if m == nil {
		s := tr.begin("hypercube.new", root)
		var err error
		m, err = j.machine()
		tr.end(s)
		if err != nil {
			return jacobiOut{}, err
		}
	}
	before := countersOf(m)
	fab := m.Fabric()
	p := fab.P()

	s := tr.begin("engine.partition", root)
	part, err := engine.NewPartition(p, g.N, g.Nz)
	locals := make([]*jacobi.Problem, p)
	for r := 0; err == nil && r < p; r++ {
		locals[r], err = part.Local(cfg, g, r)
	}
	tr.end(s)
	if err != nil {
		return jacobiOut{}, err
	}

	fwd := make([]*microcode.Instr, p)
	bwd := make([]*microcode.Instr, p)
	commands := make([]int, p)
	s = tr.begin("engine.compile", root)
	err = engine.ParallelFor(m.Workers, p, func(r int) error {
		b := tr.begin("editor.build", s)
		doc, ed, err := locals[r].BuildDocument(cfg)
		tr.end(b)
		if err != nil {
			return err
		}
		commands[r] = len(ed.Log)
		c := tr.begin("codegen.pipeline", s)
		gen := codegen.New(arch.MustInventory(cfg))
		fwd[r], _, err = gen.Pipeline(doc, doc.Pipes[0])
		if err == nil {
			bwd[r], _, err = gen.Pipeline(doc, doc.Pipes[1])
		}
		tr.end(c)
		if err != nil {
			return err
		}
		l := tr.begin("jacobi.load", s)
		err = locals[r].Load(fab.Node(r))
		tr.end(l)
		return err
	})
	tr.end(s)
	if err != nil {
		return jacobiOut{}, err
	}

	s = tr.begin("engine.newloop", root)
	lp, err := engine.NewLoop(&engine.Config{Fabric: fab, Part: part, Workers: m.Workers,
		ResidualFU: arch.FUID(11)}) // T4 slot 2, as SolveJacobi configures it
	tr.end(s)
	if err != nil {
		return jacobiOut{}, err
	}
	var series []float64
	for it := 0; it < sweeps; it++ {
		instr, plane := fwd, jacobi.PlaneV
		if it%2 == 1 {
			instr, plane = bwd, jacobi.PlaneU
		}
		s = tr.begin("engine.dispatch", root)
		be, err := lp.Dispatch(it, func(r int) *microcode.Instr { return instr[r] }, plane)
		tr.end(s)
		if err != nil || be != nil {
			return jacobiOut{}, fmt.Errorf("dispatch sweep %d: %v %v", it, err, be)
		}
		s = tr.begin("engine.combine", root)
		worst, be := lp.CombineResidual(it)
		tr.end(s)
		if be != nil {
			return jacobiOut{}, be
		}
		series = append(series, worst)
		if it == sweeps-1 {
			break // a stopped solve ends on the combine, with no exchange
		}
		s = tr.begin("engine.exchange", root)
		be, err = lp.Exchange(it, plane)
		tr.end(s)
		if err != nil || be != nil {
			return jacobiOut{}, fmt.Errorf("exchange sweep %d: %v %v", it, err, be)
		}
	}

	s = tr.begin("hypercube.assemble", root)
	nn := g.N * g.N
	u := make([]float64, len(g.U0))
	final := jacobi.PlaneU
	if sweeps%2 == 1 {
		final = jacobi.PlaneV
	}
	copy(u[:nn], g.U0[:nn])
	copy(u[(g.Nz-1)*nn:], g.U0[(g.Nz-1)*nn:])
	for r := 0; r < p; r++ {
		data, err := fab.Node(r).ReadWords(final, int64(nn), part.Planes[r]*nn)
		if err != nil {
			tr.end(s)
			return jacobiOut{}, err
		}
		copy(u[part.Lo[r]*nn:(part.Lo[r]+part.Planes[r])*nn], data)
	}
	tr.end(s)

	after := countersOf(m)
	after.sub(before)
	after.record(tr)
	total := 0
	for _, c := range commands {
		total += c
	}
	tr.add("editor.commands", float64(total))
	tr.add("engine.sweeps", float64(sweeps))
	tr.add("topo.combine_rounds", float64(len(fab.CombineHops())*sweeps))
	// Words each rank streams per sweep, from the script's DMA programs:
	// u is read for cells+N² elements, f and mask for cells, v written
	// for cells. Computed from array sizes, not measured.
	words := 0
	for r := 0; r < p; r++ {
		cells := nn * part.LocalNz(r)
		words += 4*cells + nn
	}
	bytesPerSweep := float64(words * cfg.WordBytes)
	tr.add("sim.stream_bytes_per_sweep", bytesPerSweep)
	tr.add("sim.flops_per_byte", float64(after.flops)/float64(sweeps)/bytesPerSweep)
	return jacobiOut{U: u, Series: series, Machine: after.machine, Comm: after.comm}, nil
}

// verify runs SolveJacobi on the decomposed op's inputs and fails when
// the two differ in grid, residual series or clocks: a ledger built on a
// replica that solves something else would be worse than none.
func (j *jacobiInst) verify(tr *tracer) error {
	if j.lastErr != nil {
		return fmt.Errorf("decomposed solve: %w", j.lastErr)
	}
	s := tr.begin("hypercube.solve", -1)
	want, err := j.solve(j.lastIdx)
	tr.end(s)
	if err != nil {
		return err
	}
	if err := sameOut(j.last, want); err != nil {
		return fmt.Errorf("decomposed solve diverges from SolveJacobi: %w", err)
	}
	return nil
}

// machineCounters are the simulator and fabric counters an op moves.
type machineCounters struct {
	fast, slow, hits, misses, flops, machine, comm int64
}

func countersOf(m *hypercube.Machine) machineCounters {
	c := machineCounters{machine: m.MachineCycles, comm: m.CommCycles}
	for _, nd := range m.Nodes {
		ks := nd.KernelStatsOf()
		ps := nd.PlanCacheStats()
		c.fast += ks.Fast
		c.slow += ks.Slow
		c.hits += ps.Hits
		c.misses += ps.Misses
		c.flops += nd.Stats.FLOPs
	}
	return c
}

func (c *machineCounters) sub(o machineCounters) {
	c.fast -= o.fast
	c.slow -= o.slow
	c.hits -= o.hits
	c.misses -= o.misses
	c.flops -= o.flops
	c.machine -= o.machine
	c.comm -= o.comm
}

func (c machineCounters) record(tr *tracer) {
	tr.add("sim.kernel_fast", float64(c.fast))
	tr.add("sim.kernel_slow", float64(c.slow))
	tr.add("sim.plan_hits", float64(c.hits))
	tr.add("sim.plan_misses", float64(c.misses))
	tr.add("sim.flops", float64(c.flops))
	tr.add("sim.machine_cycles", float64(c.machine))
	tr.add("topo.comm_cycles", float64(c.comm))
}

// slab returns rank 0's slab problem: the shape the layer probes use.
func (j *jacobiInst) slab() (*jacobi.Problem, error) {
	part, err := engine.NewPartition(ranks, j.spec.n, j.spec.nz)
	if err != nil {
		return nil, err
	}
	return part.Local(j.cfg, j.probs[0], 0)
}
