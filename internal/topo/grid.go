package topo

import "fmt"

// grid is the shared core of the two lattice fabrics: rows×cols nodes
// at integer coordinates, physical address row*cols+col, links between
// lattice neighbours — with optional wraparound links closing each row
// and column into a cycle (the torus).
//
// The ring embeds boustrophedon ("snake"): rank order walks row 0 left
// to right, row 1 right to left, and so on, so consecutive ranks are
// always lattice neighbours and the engine's ghost exchange stays
// single-hop, exactly as on the hypercube's Gray ring. What changes
// against the hypercube is the distance metric — Manhattan (with
// per-axis wraparound on the torus) instead of Hamming — which reprices
// the combine tree and scatter traffic without touching any data
// movement, so solver results are bit-identical across fabrics.
type grid struct {
	name       string
	rows, cols int
	wrap       bool
}

// Mesh2D is the open rows×cols lattice: no wraparound links, corner to
// corner costs rows+cols−2 hops.
type Mesh2D struct{ grid }

// Torus2D is the closed lattice: every row and column wraps, so each
// axis distance is the shorter way around its cycle.
type Torus2D struct{ grid }

// NewMesh2D builds an open rows×cols lattice fabric.
func NewMesh2D(rows, cols int) (*Mesh2D, error) {
	g, err := newGrid("mesh2d", rows, cols, false)
	if err != nil {
		return nil, err
	}
	return &Mesh2D{grid: g}, nil
}

// NewTorus2D builds a wrapped rows×cols lattice fabric.
func NewTorus2D(rows, cols int) (*Torus2D, error) {
	g, err := newGrid("torus2d", rows, cols, true)
	if err != nil {
		return nil, err
	}
	return &Torus2D{grid: g}, nil
}

func newGrid(name string, rows, cols int, wrap bool) (grid, error) {
	if rows < 1 || cols < 1 || rows*cols > 1<<10 {
		return grid{}, fmt.Errorf("topo: %s shape %d×%d out of range", name, rows, cols)
	}
	return grid{name: name, rows: rows, cols: cols, wrap: wrap}, nil
}

// Name implements Topology.
func (g *grid) Name() string { return g.name }

// Shape implements Topology.
func (g *grid) Shape() string { return fmt.Sprintf("%d×%d", g.rows, g.cols) }

// P implements Topology.
func (g *grid) P() int { return g.rows * g.cols }

// Addr implements Topology: the snake embedding. Odd rows reverse, so
// rank r and rank r+1 always occupy adjacent lattice cells.
func (g *grid) Addr(rank int) int {
	row, col := rank/g.cols, rank%g.cols
	if row%2 == 1 {
		col = g.cols - 1 - col
	}
	return row*g.cols + col
}

func (g *grid) check(what string, addr int) error {
	if addr < 0 || addr >= g.P() {
		return fmt.Errorf("topo: %s %s address %d outside %d nodes", g.name, what, addr, g.P())
	}
	return nil
}

// axisDist is the distance along one axis of length n: straight-line on
// the mesh, the shorter way around the cycle on the torus.
func (g *grid) axisDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if g.wrap && n-d < d {
		d = n - d
	}
	return d
}

// Hops implements Topology: the Manhattan distance under the fabric's
// axis metric.
func (g *grid) Hops(from, to int) (int, error) {
	if err := g.check("hops from", from); err != nil {
		return 0, err
	}
	if err := g.check("hops to", to); err != nil {
		return 0, err
	}
	return g.axisDist(from/g.cols, to/g.cols, g.rows) +
		g.axisDist(from%g.cols, to%g.cols, g.cols), nil
}

// CombineSteps implements Topology: the rank-space recursive-doubling
// combine priced by the lattice metric. An optional fold round squashes
// ranks ≥ 2^⌊log₂n⌋ into the power-of-two core, the butterfly pairs
// ranks across each rank-space bit, and an unfold round copies the
// result back out; each entry is the round's worst pair. Unlike the
// hypercube, whose routers pair one hop per round, a lattice pays real
// distance for the long butterfly pairs, and the torus shortens them by
// wrapping around.
func (g *grid) CombineSteps(addrs []int) []int {
	n := len(addrs)
	if n <= 1 {
		return nil
	}
	core := 1
	for core*2 <= n {
		core *= 2
	}
	var steps []int
	fold := 0
	for r := core; r < n; r++ {
		fold = max(fold, g.pairHops(addrs[r], addrs[r-core]))
	}
	if n > core {
		steps = append(steps, fold)
	}
	for bit := 1; bit < core; bit <<= 1 {
		worst := 0
		for r := 0; r < core; r++ {
			worst = max(worst, g.pairHops(addrs[r], addrs[r^bit]))
		}
		steps = append(steps, worst)
	}
	if n > core {
		steps = append(steps, fold)
	}
	return steps
}

// pairHops prices a pair of the combine tree. The embeddings come from
// the machine's live ring, whose addresses are validated at
// construction and on every recovery, so an out-of-range address here
// is a caller bug, not an input error.
func (g *grid) pairHops(from, to int) int {
	h, err := g.Hops(from, to)
	if err != nil {
		panic(fmt.Sprintf("topo: %s combine over invalid embedding: %v", g.name, err))
	}
	return h
}
