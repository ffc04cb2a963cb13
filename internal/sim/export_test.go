package sim

import "repro/internal/microcode"

// KernelLanes reports the lane windows in's kernel lowers to on n, or
// -1 when lowering declines. Sources read in place take none.
func KernelLanes(n *Node, in *microcode.Instr) (int, error) {
	pl, err := n.plan(in)
	if err != nil || pl.kern == nil {
		return -1, err
	}
	windows := 0
	for _, l := range pl.kern.lanes {
		if l.w > 0 {
			windows++
		}
	}
	return windows, nil
}

// ScratchBytes reports the bytes of value lanes (the kernel's windows
// and accumulators among them) and of validity lanes n's working set
// holds.
func ScratchBytes(n *Node) (val, ok int) { return 8 * len(n.scratch.val), len(n.scratch.ok) }

// Demand is one kernel op's need as lowered: the cycles [Lo,Hi) of its
// lane it computes.
type Demand struct {
	FU, Reduce bool
	Lo, Hi     int
}

// SinkRead is one sink's committed cycles [Lo,Hi) and the index of the
// op whose lane it reads, or -1 for a source read in place.
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
	for i, s := range k.sinks {
		from := -1
		for j, op := range k.ops {
			if s.in.lane >= 0 && op.out == s.in.lane {
				from = j
			}
		}
		c0 := pl.sinks[i].start + int(pl.sinks[i].skip)
		sinks = append(sinks, SinkRead{Op: from, Lo: c0, Hi: c0 + int(s.fit)})
	}
	return pl.T, ops, sinks, nil
}

// Compile decodes in as a first dispatch on n would, bypassing every
// cache.
func Compile(n *Node, in *microcode.Instr) error {
	_, err := compilePlan(n.Cfg, n.Inv, in)
	return err
}

// TableStats reports how many plans n's table holds and how many
// decodes it has run.
func TableStats(n *Node) (plans, compiles int) {
	n.table.mu.Lock()
	defer n.table.mu.Unlock()
	return len(n.table.plans), n.table.compiles
}

// SameTable reports whether a and b find their plans in one table.
func SameTable(a, b *Node) bool { return a.table == b.table }
