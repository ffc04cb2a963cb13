package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Degraded-mode recovery: the engine half of surviving permanent node
// loss. A FaultKillForever event marks a rank dead at the dispatch
// barrier; Dispatch reports the dead set through a DeadRankError
// instead of retrying (no retry can resurrect a dead board). When the
// client supplies a Recover hook, Run hands it the error and resumes
// the loop on the configuration the hook returns — same fabric with a
// hot spare wired into the dead slot, or a smaller fabric with the
// surviving ranks re-partitioned. The hook restores the iterate from
// the client's buddy mirrors (or its checkpoint fallback), so the
// resumed trajectory is bit-identical to a fault-free run: recovery is
// mathematically invisible, only the clocks grow.

// DeadRankError reports permanently dead ranks detected at a dispatch
// barrier. Ranks are ring ranks of the partition in force when the
// kill fired, in ascending order.
type DeadRankError struct {
	Sweep int
	Ranks []int
}

func (e *DeadRankError) Error() string {
	rs := make([]string, len(e.Ranks))
	for i, r := range e.Ranks {
		rs[i] = fmt.Sprintf("%d", r)
	}
	return fmt.Sprintf("engine: sweep %d: rank(s) %s permanently dead", e.Sweep, strings.Join(rs, ","))
}

// RecoveryInfo is the Recover hook's report of what it did, used for
// stats and observability. Spared and Shrunk count the dead slots
// refilled from spares and retired by re-partitioning (the recovery
// event's mode is "spare", "shrink" or "spare+shrink" accordingly);
// Source is where the restored state came from ("buddy" or
// "checkpoint").
type RecoveryInfo struct {
	Source      string
	ResumeSweep int
	Spared      int
	Shrunk      int
}

// RecoveryStats counts degraded-mode recoveries. It is deliberately a
// separate struct from FaultStats: FaultStats is embedded in the
// fixed-size checkpoint header, so it cannot grow, and recovery
// counters describe the in-process run, not the persisted state.
type RecoveryStats struct {
	// Recoveries counts completed recovery rounds; DeadRanks the ranks
	// lost across them.
	Recoveries int64
	DeadRanks  int64
	// SpareActivations counts dead slots refilled from Machine.Spares;
	// Shrinks counts slots retired by re-partitioning over survivors.
	SpareActivations int64
	Shrinks          int64
	// BuddyRestores / CheckpointRestores count where the resumed state
	// came from.
	BuddyRestores      int64
	CheckpointRestores int64
	// ResweptSweeps is the simulated work re-executed: the distance from
	// each resume boundary back up to the sweep that died.
	ResweptSweeps int64
}

// Add accumulates o into s.
func (s *RecoveryStats) Add(o RecoveryStats) {
	s.Recoveries += o.Recoveries
	s.DeadRanks += o.DeadRanks
	s.SpareActivations += o.SpareActivations
	s.Shrinks += o.Shrinks
	s.BuddyRestores += o.BuddyRestores
	s.CheckpointRestores += o.CheckpointRestores
	s.ResweptSweeps += o.ResweptSweeps
}

func (s RecoveryStats) String() string {
	return fmt.Sprintf("recoveries=%d dead=%d spares=%d shrinks=%d buddy=%d checkpoint=%d resweeps=%d",
		s.Recoveries, s.DeadRanks, s.SpareActivations, s.Shrinks,
		s.BuddyRestores, s.CheckpointRestores, s.ResweptSweeps)
}

// ChargeScatter prices a host-mediated state scatter after recovery:
// every rank with a non-zero word count receives one message from rank
// 0 (the host's fabric attachment point). The transfers run
// concurrently, so the critical path grows by the worst single
// message while CommCycles takes the aggregate. Purely a function of
// the topology and the word counts, so recovery clocks are
// deterministic.
func ChargeScatter(f Fabric, words []int64) int64 {
	wb := int64(f.WordBytes())
	var worst int64
	for r := 0; r < f.P() && r < len(words); r++ {
		if words[r] == 0 {
			continue
		}
		c := f.SendCost(words[r]*wb, f.Hops(0, r))
		f.AddCommCycles(c)
		if c > worst {
			worst = c
		}
	}
	f.AddMachineCycles(worst)
	return worst
}

// RestoreSlabs writes global plane images back into every rank's
// slab, ghost planes included: images[i] is the global N×N×Nz image of
// planes[i]. It then prices the scatter with ChargeScatter. Survivors
// rewriting their own planes is a simulation artifact (a real survivor
// keeps its memory), so only the dead slots a spare refilled pay —
// unless moved is set, because a re-partition may have moved every
// slab boundary and then every rank pays.
func RestoreSlabs(f Fabric, part *Partition, dead []int, moved bool, planes []int, images ...[]float64) error {
	nn := part.NN()
	words := make([]int64, part.P)
	for r := 0; r < part.P; r++ {
		lo := (part.Lo[r] - 1) * nn
		w := (part.Planes[r] + 2) * nn
		for i, pl := range planes {
			if err := f.Node(r).WriteWords(pl, 0, images[i][lo:lo+w]); err != nil {
				return err
			}
		}
		if moved || slices.Contains(dead, r) {
			words[r] = int64(len(planes) * w)
		}
	}
	ChargeScatter(f, words)
	return nil
}

// deadSet returns the sorted dead ranks marked in the loop's dead
// slate, clearing it, or nil.
func (lp *Loop) deadSet() []int {
	if lp.dead == nil {
		return nil
	}
	var ranks []int
	for r, d := range lp.dead {
		if d {
			ranks = append(ranks, r)
			lp.dead[r] = false
		}
	}
	sort.Ints(ranks)
	return ranks
}
