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
