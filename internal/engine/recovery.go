package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Degraded-mode recovery: surviving permanent node loss, one protocol
// for every client. A FaultKillForever event marks a rank dead at the
// dispatch barrier; Dispatch reports the dead set through a
// DeadRankError instead of retrying (no retry can resurrect a dead
// board). A client declares the planes that hold its state
// (Config.State) and how to rebuild its slabs (Config.Rebuild); Run
// does the rest. It mirrors the state at every iteration boundary, and
// on a death it takes the state from the mirror — or, when a dead
// rank's buddy died too, from the client's checkpoint through
// Config.Rollback — repairs the ring through the fabric (a hot spare
// wired into the dead slot, or the slot deleted and the survivors
// re-partitioned), rebuilds the slabs, writes the state back and
// resumes at the restored boundary. The resumed trajectory is
// bit-identical to a fault-free run: recovery is mathematically
// invisible, only the clocks grow.

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

// ErrNoRestorePoint is the recovery error of a death that neither the
// buddy mirror nor a checkpoint covers.
var ErrNoRestorePoint = errors.New("no buddy mirror and no checkpoint to restore from")

// mirror is the buddy checkpoint: the State planes at the last
// iteration boundary, held as one global N×N×Nz image per plane with
// the boundary's sweep and residual series. Rank r's share is modelled
// as held by its ring buddy (r+1) mod P, so it survives a death exactly
// when the dead rank's buddy does. Like Take snapshots it is host-side
// bookkeeping and costs no simulated cycles.
type mirror struct {
	sweep  int
	series []float64
	images [][]float64
}

// take mirrors the ring's State planes: every rank's owned planes, and
// the global boundary planes from the edge ranks' outer ghosts. At a
// boundary every interior ghost equals its neighbour's owned plane, so
// the image holds each rank's planes, ghosts included.
func (mr *mirror) take(f Fabric, part *Partition, planes []int, sweep int, series []float64) error {
	nn := part.NN()
	if mr.images == nil {
		mr.images = make([][]float64, len(planes))
		for i := range mr.images {
			mr.images[i] = make([]float64, part.Nz*nn)
		}
	}
	last := part.P - 1
	for i, pl := range planes {
		g := mr.images[i]
		if err := f.Node(0).ReadWordsInto(pl, 0, g[:nn]); err != nil {
			return err
		}
		if err := f.Node(last).ReadWordsInto(pl, int64((part.Planes[last]+1)*nn), g[(part.Nz-1)*nn:]); err != nil {
			return err
		}
		for r := 0; r < part.P; r++ {
			lo := part.Lo[r] * nn
			if err := f.Node(r).ReadWordsInto(pl, int64(nn), g[lo:lo+part.Planes[r]*nn]); err != nil {
				return err
			}
		}
	}
	mr.sweep = sweep
	mr.series = append(mr.series[:0], series...)
	return nil
}

// restore writes the mirror into every rank's slab of part, ghost
// planes included, and prices the scatter with ChargeScatter.
// Survivors rewriting their own planes is a simulation artifact (a real
// survivor keeps its memory), so only the dead slots a spare refilled
// pay — unless moved is set, because a re-partition may have moved
// every slab boundary and then every rank pays.
func (mr *mirror) restore(f Fabric, part *Partition, planes, dead []int, moved bool) error {
	nn := part.NN()
	words := make([]int64, part.P)
	for r := 0; r < part.P; r++ {
		lo := (part.Lo[r] - 1) * nn
		w := (part.Planes[r] + 2) * nn
		for i, pl := range planes {
			if err := f.Node(r).WriteWords(pl, 0, mr.images[i][lo:lo+w]); err != nil {
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

// recover runs the protocol for a death in the generation cfg drove
// and returns the configuration of the next one. The mirror holds the
// state unless a dead rank's buddy died too; then Rollback writes the
// client's checkpoint onto the old ring and the mirror takes it from
// there. The fabric repairs the ring, the partition follows it when it
// shrank, the client rebuilds its slabs, and the state is written
// back. rec and the observability layer count the round.
func (mr *mirror) recover(cfg *Config, dre *DeadRankError, rec *RecoveryStats, ts int64) (*Config, error) {
	f, part := cfg.Fabric, cfg.Part
	source := "buddy"
	for _, d := range dre.Ranks {
		if slices.Contains(dre.Ranks, (d+1)%part.P) {
			source = "checkpoint"
		}
	}
	if source == "checkpoint" {
		if cfg.Rollback == nil {
			return nil, ErrNoRestorePoint
		}
		at, series, ok, err := cfg.Rollback()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, ErrNoRestorePoint
		}
		if err := mr.take(f, part, cfg.State, at, series); err != nil {
			return nil, err
		}
	}
	spared, shrunk, err := f.RecoverRanks(dre.Ranks)
	if err != nil {
		return nil, err
	}
	if shrunk > 0 {
		if part, err = NewPartition(f.P(), part.N, part.Nz); err != nil {
			return nil, err
		}
	}
	series := slices.Clone(mr.series)
	if err := cfg.Rebuild(part, mr.sweep, series); err != nil {
		return nil, err
	}
	if err := mr.restore(f, part, cfg.State, dre.Ranks, shrunk > 0); err != nil {
		return nil, err
	}

	rec.Recoveries++
	rec.DeadRanks += int64(len(dre.Ranks))
	rec.SpareActivations += int64(spared)
	rec.Shrinks += int64(shrunk)
	if source == "buddy" {
		rec.BuddyRestores++
	} else {
		rec.CheckpointRestores++
	}
	resweep := int64(dre.Sweep - mr.sweep)
	rec.ResweptSweeps += resweep
	if o := cfg.Obs; o != nil {
		o.Inc("engine.recovery.recoveries")
		mode := "spare+shrink"
		switch {
		case spared == 0:
			mode = "shrink"
		case shrunk == 0:
			mode = "spare"
		}
		if spared > 0 {
			o.Add("engine.recovery.spare", int64(spared))
		}
		if shrunk > 0 {
			o.Add("engine.recovery.shrink", int64(shrunk))
		}
		o.Inc("engine.recovery.source." + source)
		o.Observe("engine.recovery.resweeps", resweep)
		o.Event(0, "engine", "recovery", ts, mode, map[string]int64{
			"resume_sweep": int64(mr.sweep),
			"spared":       int64(spared),
			"shrunk":       int64(shrunk),
		})
	}
	next := *cfg
	next.Part, next.StartSweep, next.StartSeries, next.SkipSnapshotAt = part, mr.sweep, series, mr.sweep
	return &next, nil
}
