package sim_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/engine"
	"repro/internal/hypercube"
	"repro/internal/jacobi"
	"repro/internal/sim"
)

// TestPeersCompileOnce dispatches one cold instruction on eight peers
// at once, half of them through an equal copy of it: their table
// decodes it once, each peer counts its own miss, and every peer's
// result matches a lone node's. A node built by NewNode shares no
// table. Run it under -race: the peers read one plan concurrently.
func TestPeersCompileOnce(t *testing.T) {
	p := jacobi.NewModelProblem(8, 1e-4, 10)
	lone, in := sweepNode(t, p, false)
	first, _ := sweepNode(t, p, false)
	peers := []*sim.Node{first}
	for len(peers) < 8 {
		nd := first.NewPeer()
		if err := p.Load(nd); err != nil {
			t.Fatal(err)
		}
		peers = append(peers, nd)
	}
	if sim.SameTable(lone, first) {
		t.Fatal("two nodes from NewNode share a plan table")
	}

	start := make(chan struct{})
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for r, nd := range peers {
		instr := in
		if r%2 == 1 {
			instr = in.Clone()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[r] = nd.Exec(instr)
		}()
	}
	close(start)
	wg.Wait()
	if err := lone.Exec(in); err != nil {
		t.Fatal(err)
	}

	if plans, compiles := sim.TableStats(first); plans != 1 || compiles != 1 {
		t.Errorf("peers' table holds %d plans after %d compiles, want 1 and 1", plans, compiles)
	}
	if plans, compiles := sim.TableStats(lone); plans != 1 || compiles != 1 {
		t.Errorf("lone node's table holds %d plans after %d compiles, want 1 and 1", plans, compiles)
	}
	want, err := lone.ReadWords(jacobi.PlaneV, p.VarBase, p.Cells())
	if err != nil {
		t.Fatal(err)
	}
	for r, nd := range peers {
		if errs[r] != nil {
			t.Fatalf("peer %d: %v", r, errs[r])
		}
		if !sim.SameTable(first, nd) {
			t.Errorf("peer %d has a table of its own", r)
		}
		if st := nd.PlanCacheStats(); st != (sim.PlanCacheStats{Misses: 1, Entries: 1}) {
			t.Errorf("peer %d: plan cache %+v, want 1 miss and 1 entry", r, st)
		}
		got, err := nd.ReadWords(jacobi.PlaneV, p.VarBase, p.Cells())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("peer %d: word %d = %v, lone node's %v", r, i, got[i], want[i])
			}
		}
	}
}

// TestMachineDecodesOncePerInstruction solves the 8×8×18 grid for 12
// sweeps on a fresh 8-rank machine, the jacobi-cold benchmark's op.
// Every rank runs the same two sweep words, so the machine decodes 2
// plans, not 16, while each node still counts its 2 first dispatches
// as misses and the other 10 as hits. A spare that a kill-forever wires
// in reuses the machine's plans, and a second machine shares nothing
// with the first. The test lives here, not in internal/hypercube,
// because it reads the machine's table through this package's test
// hooks.
func TestMachineDecodesOncePerInstruction(t *testing.T) {
	cfg := arch.Default()
	cfg.HypercubeDim = 3
	problem := func() *jacobi.Problem { return jacobi.NewBoxProblem(8, 18, 1e-4, 400) }
	machine := func() *hypercube.Machine {
		m, err := hypercube.New(cfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		m.Workers = 4
		m.StopAfter = 12
		return m
	}
	m := machine()
	if err := m.AddSpares(1); err != nil {
		t.Fatal(err)
	}
	spare := m.Spares[0]
	if _, err := m.SolveJacobi(problem()); err != nil {
		t.Fatal(err)
	}
	if plans, compiles := sim.TableStats(m.Nodes[0]); plans != 2 || compiles != 2 {
		t.Errorf("machine's table: %d plans after %d compiles, want 2 and 2", plans, compiles)
	}
	for r, nd := range m.Nodes {
		if !sim.SameTable(m.Nodes[0], nd) {
			t.Errorf("node %d has a table of its own", r)
		}
		if st := nd.PlanCacheStats(); st != (sim.PlanCacheStats{Hits: 10, Misses: 2, Entries: 2}) {
			t.Errorf("node %d: plan cache %+v, want 10 hits, 2 misses, 2 entries", r, st)
		}
	}

	m.Faults = engine.MustFaultPlan(engine.FaultEvent{
		Sweep: 5, Phase: engine.PhaseDispatch, Rank: 3, Kind: engine.FaultKillForever})
	res, err := m.SolveJacobi(problem())
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.SpareActivations != 1 {
		t.Fatalf("kill-forever activated %d spares, want 1", res.Recovery.SpareActivations)
	}
	if !sim.SameTable(m.Nodes[0], spare) {
		t.Error("spare has a table of its own")
	}
	if st := spare.PlanCacheStats(); st.Misses != 2 || st.Hits == 0 {
		t.Errorf("activated spare: plan cache %+v, want its own 2 misses and some hits", st)
	}
	if plans, compiles := sim.TableStats(m.Nodes[0]); plans != 2 || compiles != 2 {
		t.Errorf("after the spare ran: %d plans after %d compiles, want the first solve's 2 and 2", plans, compiles)
	}

	other := machine()
	if sim.SameTable(m.Nodes[0], other.Nodes[0]) {
		t.Fatal("two machines share a plan table")
	}
	if _, err := other.SolveJacobi(problem()); err != nil {
		t.Fatal(err)
	}
	if plans, compiles := sim.TableStats(other.Nodes[0]); plans != 2 || compiles != 2 {
		t.Errorf("second machine's table: %d plans after %d compiles, want 2 and 2", plans, compiles)
	}
	if _, compiles := sim.TableStats(m.Nodes[0]); compiles != 2 {
		t.Errorf("second machine's solve moved the first's table to %d compiles", compiles)
	}
}
