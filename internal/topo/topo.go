// Package topo is the interconnect layer of the simulated machine: it
// embeds the solver engine's ring of ranks onto a physical fabric and
// prices the ring's communication there. The engine and the solvers
// address nodes as a ring (rank r exchanges ghost faces with r-1 and
// r+1 and joins a log₂P residual combine); a Topology decides which
// physical node serves each rank, how far apart two physical addresses
// are, and what each round of the residual combine costs.
//
// Three fabrics ship: Hypercube (the paper's machine, with a Gray-code
// ring embedding), Mesh2D and Torus2D (the lattice interconnects of
// related machines, embedded boustrophedon so ring neighbours stay one
// hop apart). Solver results are topology-invariant by construction —
// data movement is identical, only the simulated message pricing
// changes — which the differential tests assert bit for bit.
//
// Every embedding must satisfy two invariants the engine's cost model
// relies on:
//
//   - Ring neighbours are one hop apart: Hops(Addr(r), Addr(r+1)) == 1
//     for every rank of a pristine machine. Recovery may later break
//     this (a shrink deletes a slot), and the engine prices each ring
//     pair at its real distance, so the extra hops are charged.
//   - Addr is a bijection from ranks onto physical addresses.
//
// TestTopologyProperties pins both for every fabric, and checks Hops
// against a breadth-first search over the fabric's links.
package topo

import "fmt"

// Topology maps the engine's ring onto a physical interconnect.
//
// Two address spaces are in play: ring ranks 0..P-1 (what the engine
// and solvers speak) and physical addresses 0..P-1 (positions in the
// fabric: hypercube corners, grid cells). Addr translates the first
// into the second; Hops speaks physical addresses; CombineSteps takes
// the live embedding (addrs[r] = the physical address serving rank r)
// so it keeps working after degraded-mode recovery reshapes the ring.
type Topology interface {
	// Name is the fabric's canonical tag: "hypercube", "mesh2d",
	// "torus2d". It keys checkpoint metadata and obs metrics.
	Name() string
	// Shape is the human-readable geometry ("dim 3", "2×4").
	Shape() string
	// P is the physical node count.
	P() int
	// Addr returns the physical address ring rank r embeds onto.
	Addr(rank int) int
	// Hops returns the shortest-path length between two physical
	// addresses, rejecting out-of-range addresses with an error.
	Hops(from, to int) (int, error)
	// CombineSteps returns the engine's residual-combine pricing: one
	// entry per combine round, each the round's critical-path hop count,
	// for a ring living on the given embedding. Empty for one rank.
	CombineSteps(addrs []int) []int
}

// New builds a topology by name over p physical nodes. Accepted names:
// "hypercube" (p must be a power of two), "mesh2d"/"mesh" and
// "torus2d"/"torus" (near-square factorization of p).
func New(name string, p int) (Topology, error) {
	switch name {
	case "hypercube", "":
		dim := 0
		for 1<<uint(dim) < p {
			dim++
		}
		if 1<<uint(dim) != p {
			return nil, fmt.Errorf("topo: hypercube needs a power-of-two node count, got %d", p)
		}
		return NewHypercube(dim)
	case "mesh2d", "mesh":
		rows, cols := nearSquare(p)
		return NewMesh2D(rows, cols)
	case "torus2d", "torus":
		rows, cols := nearSquare(p)
		return NewTorus2D(rows, cols)
	}
	return nil, fmt.Errorf("topo: unknown topology %q (want hypercube, mesh2d or torus2d)", name)
}

// Names lists the canonical topology names New accepts.
func Names() []string { return []string{"hypercube", "mesh2d", "torus2d"} }

// nearSquare factors p into rows×cols with rows the largest divisor not
// exceeding √p, so the grid is as square as the count allows (8 → 2×4,
// 16 → 4×4, 6 → 2×3, primes → 1×p).
func nearSquare(p int) (rows, cols int) {
	if p < 1 {
		return 1, 1
	}
	rows = 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			rows = d
		}
	}
	return rows, p / rows
}
