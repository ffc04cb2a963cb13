package sim

import "repro/internal/microcode"

// KernelLanes reports the physical lanes in's kernel lowers to on n,
// or -1 when lowering declines.
func KernelLanes(n *Node, in *microcode.Instr) (int, error) {
	pl, err := n.plan(in)
	if err != nil || pl.kern == nil {
		return -1, err
	}
	return pl.kern.lanes, nil
}

// ScratchBytes reports the bytes of value lanes and of validity lanes
// n's working set holds.
func ScratchBytes(n *Node) (val, ok int) { return 8 * len(n.scratch.val), len(n.scratch.ok) }

// Demand is one kernel op's need as lowered: the cycles [Lo,Hi) of its
// lane it computes.
type Demand struct {
	FU, Reduce bool
	Lo, Hi     int
}

// SinkRead is one sink's committed cycles [Lo,Hi) and the index of the
// op whose lane it reads.
type SinkRead struct{ Op, Lo, Hi int }

// KernelDemand reports the stream length of in's kernel on n, each
// op's need in op order, and what each sink reads; ops is nil when
// lowering declines.
func KernelDemand(n *Node, in *microcode.Instr) (T int, ops []Demand, sinks []SinkRead, err error) {
	pl, err := n.plan(in)
	if err != nil || pl.kern == nil {
		return 0, nil, nil, err
	}
	k := pl.kern
	for _, op := range k.ops {
		ops = append(ops, Demand{FU: op.kind == kFU, Reduce: op.reduce, Lo: op.need.lo, Hi: op.need.hi})
	}
	for _, s := range pl.sinks {
		// A lane a sink reads is never released, so its producer is the
		// last op to write it.
		lane, from := k.views[s.from].lane, 0
		for i, op := range k.ops {
			if op.out == lane {
				from = i
			}
		}
		c0 := s.start + int(s.skip)
		sinks = append(sinks, SinkRead{Op: from, Lo: c0, Hi: c0 + int(s.count)})
	}
	return pl.T, ops, sinks, nil
}
