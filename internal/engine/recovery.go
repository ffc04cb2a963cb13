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
// rank's buddy died too, from the kept checkpoint — repairs the ring
// through the fabric (a hot spare wired into the dead slot, or the
// slot deleted and the survivors re-partitioned), rebuilds the slabs,
// writes the state back and resumes at the restored boundary. The
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

// Snapshot is a restore point: the State planes at one iteration
// boundary, held as one global N×N×Nz image per plane, with the
// boundary's sweep and the residual series up to it. The buddy mirror,
// every checkpoint and a resume point are snapshots. At a boundary
// every interior ghost plane equals its neighbour's owned plane, so an
// image holds each rank's slab, ghosts included, under any partition
// of the grid: a snapshot taken on one ring restores onto the ring a
// recovery left behind. The per-rank reads of Partition.Gather take
// each image and Partition.Scatter writes it back; both are host-side
// bookkeeping and cost no simulated cycles.
//
// The mirror models rank r's share as held by its ring buddy (r+1) mod
// P, so it survives a death exactly when the dead rank's buddy does.
type Snapshot struct {
	Sweep  int
	Series []float64
	// Images[i] is the global image of State[i].
	Images [][]float64

	// by is the loop that last took the snapshot, and copied[i*P+r]
	// the write count of rank r's plane State[i] when by last copied
	// that share.
	by     *Loop
	copied []uint64
}

// take gathers the ring's State planes into s at boundary sweep,
// reusing its images. Within one loop the ring and the partition stay
// fixed, so a later take by the loop that took s last copies only the
// shares whose planes were written since: a Jacobi boundary copies the
// plane the last sweep wrote and keeps the other.
func (lp *Loop) take(s *Snapshot, sweep int, series []float64) error {
	cfg := lp.cfg
	f, part := cfg.Fabric, cfg.Part
	if s.Images == nil {
		s.Images = make([][]float64, len(cfg.State))
		for i := range s.Images {
			s.Images[i] = make([]float64, part.Nz*part.NN())
		}
	}
	all := s.by != lp
	if all {
		s.copied = make([]uint64, len(cfg.State)*part.P)
	}
	for i, pl := range cfg.State {
		for r := 0; r < part.P; r++ {
			nd, k := f.Node(r), i*part.P+r
			if !all && s.copied[k] == nd.Mem[pl].Writes() {
				continue // unwritten since this loop copied it
			}
			if err := part.gatherRank(f, pl, s.Images[i], r); err != nil {
				return err
			}
			s.copied[k] = nd.Mem[pl].Writes()
		}
	}
	s.by, s.Sweep = lp, sweep
	s.Series = append(s.Series[:0], series...)
	return nil
}

// restore writes s into every rank's slab of part, ghost planes
// included.
func (s *Snapshot) restore(f Fabric, part *Partition, planes []int) error {
	for i, pl := range planes {
		if err := part.Scatter(f, pl, s.Images[i]); err != nil {
			return err
		}
	}
	return nil
}

// recover runs the protocol for a death in the generation rn.cfg drove
// and returns the snapshot the next generation resumes from: the
// mirror, unless a dead rank's buddy died too and the kept checkpoint
// must serve. The fabric repairs the ring, the partition follows it
// when it shrank, the client rebuilds its slabs, and the scatter that
// writes the state back is priced. rn.rec and the observability layer
// count the round.
func (rn *run) recover(dre *DeadRankError) (*Snapshot, error) {
	cfg := rn.cfg
	f, part := cfg.Fabric, cfg.Part
	from, source := rn.mr, "buddy"
	for _, d := range dre.Ranks {
		if slices.Contains(dre.Ranks, (d+1)%part.P) {
			from, source = rn.ck, "checkpoint"
		}
	}
	if from == nil {
		return nil, ErrNoRestorePoint
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
	if err := cfg.Rebuild(part); err != nil {
		return nil, err
	}
	// The state goes back into every slab, ghost planes included.
	// Survivors rewriting their own planes is a simulation artifact (a
	// real survivor keeps its memory), so only the dead slots a spare
	// refilled pay — unless the ring shrank, because the re-partition
	// may have moved every slab boundary and then every rank pays.
	words := make([]int64, part.P)
	for r := range words {
		if shrunk > 0 || slices.Contains(dre.Ranks, r) {
			words[r] = int64(len(cfg.State) * part.LocalNz(r) * part.NN())
		}
	}
	ChargeScatter(f, words)

	rn.rec.Recoveries++
	rn.rec.DeadRanks += int64(len(dre.Ranks))
	rn.rec.SpareActivations += int64(spared)
	rn.rec.Shrinks += int64(shrunk)
	if source == "buddy" {
		rn.rec.BuddyRestores++
	} else {
		rn.rec.CheckpointRestores++
	}
	resweep := int64(dre.Sweep - from.Sweep)
	rn.rec.ResweptSweeps += resweep
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
		o.Event(0, "engine", "recovery", rn.ts, mode, map[string]int64{
			"resume_sweep": int64(from.Sweep),
			"spared":       int64(spared),
			"shrunk":       int64(shrunk),
		})
	}
	next := *cfg
	next.Part = part
	rn.cfg = &next
	if from == rn.mr && rn.ck != nil {
		// The mirror's boundary is at least as new as the kept
		// checkpoint, so a later rollback resumes there.
		rn.ck, rn.mr = rn.mr, &Snapshot{}
	}
	return from, nil
}
