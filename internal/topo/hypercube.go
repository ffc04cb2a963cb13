package topo

import (
	"fmt"
	"math/bits"
)

// Hypercube is the paper's fabric: 2^dim nodes at the corners of a
// dim-dimensional cube, one link per dimension. The ring embeds
// through the Gray code so ring neighbours always differ in exactly
// one address bit.
type Hypercube struct{ dim int }

// NewHypercube builds the fabric for a 2^dim-node machine.
func NewHypercube(dim int) (*Hypercube, error) {
	if dim < 0 || dim > 10 {
		return nil, fmt.Errorf("topo: hypercube dimension %d out of range", dim)
	}
	return &Hypercube{dim: dim}, nil
}

// Name implements Topology.
func (h *Hypercube) Name() string { return "hypercube" }

// Shape implements Topology.
func (h *Hypercube) Shape() string { return fmt.Sprintf("dim %d", h.dim) }

// P implements Topology.
func (h *Hypercube) P() int { return 1 << uint(h.dim) }

// Gray returns the Gray code of r: consecutive values differ in one
// bit, so the ring it induces has single-hop neighbours.
func Gray(r int) int { return r ^ (r >> 1) }

// Addr implements Topology: the Gray-code embedding.
func (h *Hypercube) Addr(rank int) int { return Gray(rank) }

func (h *Hypercube) check(what string, addr int) error {
	if addr < 0 || addr >= h.P() {
		return fmt.Errorf("topo: hypercube %s address %d outside %d nodes", what, addr, h.P())
	}
	return nil
}

// Hops implements Topology: the Hamming distance — every differing
// address bit is one cube link.
func (h *Hypercube) Hops(from, to int) (int, error) {
	if err := h.check("hops from", from); err != nil {
		return 0, err
	}
	if err := h.check("hops to", to); err != nil {
		return 0, err
	}
	return bits.OnesCount(uint(from ^ to)), nil
}

// CombineSteps implements Topology. The hyperspace routers pair nodes
// one hop apart on every recursive-doubling round, so the combine over
// p live ranks is ⌈log₂p⌉ single-hop rounds. This is a modeling choice
// held even for the rings recovery leaves behind — a shrunken ring's
// survivors still combine in ⌈log₂p⌉ one-hop rounds, matching the cost
// model the frozen clock goldens were recorded under.
func (h *Hypercube) CombineSteps(addrs []int) []int {
	p := len(addrs)
	if p <= 1 {
		return nil
	}
	steps := make([]int, bits.Len(uint(p-1)))
	for i := range steps {
		steps[i] = 1
	}
	return steps
}
