package topo

import (
	"reflect"
	"strings"
	"testing"
)

// fabrics returns one instance of every shipped topology at a spread of
// node counts, including non-square grids and single-node machines.
func fabrics(t *testing.T) map[string]Topology {
	t.Helper()
	out := map[string]Topology{}
	for _, dim := range []int{0, 1, 2, 3, 4} {
		h, err := NewHypercube(dim)
		if err != nil {
			t.Fatal(err)
		}
		out["hypercube/dim"+string(rune('0'+dim))] = h
	}
	for _, shape := range [][2]int{{1, 1}, {1, 5}, {2, 3}, {2, 4}, {3, 3}, {4, 4}} {
		m, err := NewMesh2D(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		out["mesh2d/"+m.Shape()] = m
		tor, err := NewTorus2D(shape[0], shape[1])
		if err != nil {
			t.Fatal(err)
		}
		out["torus2d/"+tor.Shape()] = tor
	}
	return out
}

// pristineAddrs returns the construction-time embedding addrs[r] =
// Addr(r).
func pristineAddrs(tp Topology) []int {
	addrs := make([]int, tp.P())
	for r := range addrs {
		addrs[r] = tp.Addr(r)
	}
	return addrs
}

// links lists the physical neighbours of every address from the
// fabric's wiring, independently of its Hops metric: one link per cube
// dimension on the hypercube, the four lattice steps on a grid, with
// each row and column closed into a cycle on the torus.
func links(t *testing.T, tp Topology) [][]int {
	t.Helper()
	adj := make([][]int, tp.P())
	var g *grid
	switch f := tp.(type) {
	case *Hypercube:
		for a := range adj {
			for d := 0; d < f.dim; d++ {
				adj[a] = append(adj[a], a^(1<<uint(d)))
			}
		}
		return adj
	case *Mesh2D:
		g = &f.grid
	case *Torus2D:
		g = &f.grid
	default:
		t.Fatalf("no link model for %T", tp)
	}
	for a := range adj {
		row, col := a/g.cols, a%g.cols
		for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			r, c := row+d[0], col+d[1]
			if g.wrap {
				r, c = (r+g.rows)%g.rows, (c+g.cols)%g.cols
			}
			if r >= 0 && r < g.rows && c >= 0 && c < g.cols && r*g.cols+c != a {
				adj[a] = append(adj[a], r*g.cols+c)
			}
		}
	}
	return adj
}

// bfsHops returns the shortest-path length between every pair of
// addresses over the fabric's links: the oracle for Hops.
func bfsHops(t *testing.T, tp Topology) [][]int {
	t.Helper()
	adj := links(t, tp)
	dist := make([][]int, len(adj))
	for src := range adj {
		d := make([]int, len(adj))
		for i := range d {
			d[i] = -1
		}
		d[src] = 0
		for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
			a := queue[0]
			for _, b := range adj[a] {
				if d[b] < 0 {
					d[b] = d[a] + 1
					queue = append(queue, b)
				}
			}
		}
		dist[src] = d
	}
	return dist
}

// TestTopologyProperties pins the embedding invariants the engine's
// cost model relies on, for every fabric: Addr is a bijection onto the
// physical addresses, Hops is the shortest path over the fabric's
// links, ring neighbours sit one hop apart, and out-of-range addresses
// are rejected.
func TestTopologyProperties(t *testing.T) {
	for name, tp := range fabrics(t) {
		t.Run(name, func(t *testing.T) {
			p := tp.P()

			// Addr bijection: every rank lands on a distinct in-range
			// address, so all p addresses are covered.
			seen := make(map[int]bool, p)
			for r := 0; r < p; r++ {
				a := tp.Addr(r)
				if a < 0 || a >= p {
					t.Fatalf("Addr(%d) = %d outside %d nodes", r, a, p)
				}
				if seen[a] {
					t.Fatalf("Addr maps two ranks to address %d", a)
				}
				seen[a] = true
			}

			// Hops agrees with a breadth-first search over the links.
			dist := bfsHops(t, tp)
			for a := 0; a < p; a++ {
				for b := 0; b < p; b++ {
					h, err := tp.Hops(a, b)
					if err != nil {
						t.Fatal(err)
					}
					if h != dist[a][b] {
						t.Fatalf("Hops(%d,%d) = %d, shortest path over the links is %d", a, b, h, dist[a][b])
					}
				}
			}

			// Ring neighbours are one hop apart on the pristine embedding.
			for r := 0; r+1 < p; r++ {
				if h := dist[tp.Addr(r)][tp.Addr(r+1)]; h != 1 {
					t.Errorf("ranks %d,%d embed %d hops apart, want 1", r, r+1, h)
				}
			}

			// Out-of-range addresses are rejected, never silently priced.
			for _, bad := range []int{-1, p} {
				if _, err := tp.Hops(bad, 0); err == nil {
					t.Errorf("Hops(%d,0) accepted", bad)
				}
				if _, err := tp.Hops(0, bad); err == nil {
					t.Errorf("Hops(0,%d) accepted", bad)
				}
			}
		})
	}
}

// combineRounds lists the residual combine's tree as physical address
// pairs, round by round: the hypercube's physical butterfly pairs each
// node with its neighbour across one cube dimension per round; a
// lattice runs the rank-space butterfly over the live embedding, with a
// fold round before it and an unfold round after it when the rank count
// is not a power of two.
func combineRounds(tp Topology, addrs []int) [][][2]int {
	var rounds [][][2]int
	if h, ok := tp.(*Hypercube); ok && len(addrs) == tp.P() {
		for d := 0; d < h.dim; d++ {
			var rd [][2]int
			for a := range addrs {
				rd = append(rd, [2]int{a, a ^ (1 << uint(d))})
			}
			rounds = append(rounds, rd)
		}
		return rounds
	}
	n := len(addrs)
	core := 1
	for core*2 <= n {
		core *= 2
	}
	var fold [][2]int
	for r := core; r < n; r++ {
		fold = append(fold, [2]int{addrs[r], addrs[r-core]})
	}
	if fold != nil {
		rounds = append(rounds, fold)
	}
	for bit := 1; bit < core; bit <<= 1 {
		var rd [][2]int
		for r := 0; r < core; r++ {
			rd = append(rd, [2]int{addrs[r], addrs[r^bit]})
		}
		rounds = append(rounds, rd)
	}
	if fold != nil {
		rounds = append(rounds, fold)
	}
	return rounds
}

// combineOracle prices the residual combine round by round from the
// link distances: each round of combineRounds costs its worst pair.
func combineOracle(t *testing.T, tp Topology, addrs []int) []int {
	t.Helper()
	dist := bfsHops(t, tp)
	var steps []int
	for _, rd := range combineRounds(tp, addrs) {
		worst := 0
		for _, e := range rd {
			worst = max(worst, dist[e[0]][e[1]])
		}
		steps = append(steps, worst)
	}
	return steps
}

// TestRoundHopsAreCriticalPath: the pairs of one combine round run
// concurrently, so each round charges the fabric's own Hops of its
// worst pair — never a sum over the round, never a shorter pair.
func TestRoundHopsAreCriticalPath(t *testing.T) {
	for name, tp := range fabrics(t) {
		addrs := pristineAddrs(tp)
		rounds := combineRounds(tp, addrs)
		steps := tp.CombineSteps(addrs)
		if len(steps) != len(rounds) {
			t.Fatalf("%s prices %d combine rounds, the tree has %d", name, len(steps), len(rounds))
		}
		for i, rd := range rounds {
			worst := 0
			for _, e := range rd {
				h, err := tp.Hops(e[0], e[1])
				if err != nil {
					t.Fatalf("%s round %d: %v", name, i, err)
				}
				worst = max(worst, h)
			}
			if steps[i] != worst {
				t.Errorf("%s round %d charges %d hops, worst pair is %d", name, i, steps[i], worst)
			}
		}
	}
}

// TestCollectiveTrees checks, for every fabric, the one collective
// the machine prices — the residual combine's tree: each entry of
// CombineSteps is the worst pair distance of that round, on the
// pristine ring and on the shorter rings a shrink leaves behind (which
// fold their excess ranks into a power-of-two core on a lattice).
func TestCollectiveTrees(t *testing.T) {
	for name, tp := range fabrics(t) {
		t.Run(name, func(t *testing.T) {
			addrs := pristineAddrs(tp)
			if got, want := tp.CombineSteps(addrs), combineOracle(t, tp, addrs); !reflect.DeepEqual(got, want) {
				t.Errorf("pristine combine steps %v, want %v", got, want)
			}
			if _, ok := tp.(*Hypercube); ok {
				return // shrunken rings keep ⌈log₂p⌉ one-hop rounds, see TestCombineStepsPricing
			}
			for drop := 1; drop < len(addrs); drop++ {
				live := append(append([]int(nil), addrs[:drop]...), addrs[drop+1:]...)
				if got, want := tp.CombineSteps(live), combineOracle(t, tp, live); !reflect.DeepEqual(got, want) {
					t.Errorf("combine steps without rank %d: %v, want %v", drop, got, want)
				}
			}
		})
	}
}

// TestShrunkenEmbeddings prices the combine over the rings recovery
// produces: a survivor subset of a hypercube's Gray addresses (no
// longer a power of two) and a shrunken grid ring.
func TestShrunkenEmbeddings(t *testing.T) {
	h, _ := NewHypercube(3)
	m, _ := NewMesh2D(2, 4)
	for name, tc := range map[string]struct {
		tp    Topology
		addrs []int
		want  []int
	}{
		// Six survivors still combine in three one-hop rounds.
		"hypercube-minus-two": {h, []int{0, 1, 3, 7, 5, 4}, []int{1, 1, 1}},
		// Rank 4 on address 6 folds into rank 0 on address 0, three
		// hops away, before and after the two butterfly rounds.
		"mesh-minus-three": {m, []int{0, 1, 2, 3, 6}, []int{3, 1, 2, 3}},
	} {
		t.Run(name, func(t *testing.T) {
			if got := tc.tp.CombineSteps(tc.addrs); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("combine steps %v, want %v", got, tc.want)
			}
		})
	}
}

// TestCombineStepsPricing pins the per-topology combine pricing at
// P=8, the cross-topology clock signal the bench records measure: the
// hypercube pairs one hop per round unconditionally, the open mesh
// pays the full lattice distance for the long butterfly pairs, and the
// torus shortens them by wrapping.
func TestCombineStepsPricing(t *testing.T) {
	for _, tc := range []struct {
		name string
		want []int
	}{
		{"hypercube", []int{1, 1, 1}},
		{"mesh2d", []int{1, 2, 4}},
		{"torus2d", []int{1, 2, 2}},
	} {
		tp, err := New(tc.name, 8)
		if err != nil {
			t.Fatal(err)
		}
		got := tp.CombineSteps(pristineAddrs(tp))
		if len(got) != len(tc.want) {
			t.Fatalf("%s: combine steps %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: combine steps %v, want %v", tc.name, got, tc.want)
			}
		}
	}
	// One rank has nothing to combine.
	for _, name := range Names() {
		tp, err := New(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if steps := tp.CombineSteps([]int{0}); len(steps) != 0 {
			t.Errorf("%s: single-rank combine steps %v", name, steps)
		}
	}
	// The hypercube's all-ones pricing holds even for shrunken rings.
	h, _ := NewHypercube(3)
	if steps := h.CombineSteps(make([]int, 5)); len(steps) != 3 {
		t.Errorf("5 survivors price %d combine rounds, want 3", len(steps))
	}
}

func TestNewByName(t *testing.T) {
	for name, want := range map[string]string{
		"hypercube": "hypercube", "": "hypercube",
		"mesh2d": "mesh2d", "mesh": "mesh2d",
		"torus2d": "torus2d", "torus": "torus2d",
	} {
		tp, err := New(name, 8)
		if err != nil {
			t.Fatalf("New(%q, 8): %v", name, err)
		}
		if tp.Name() != want || tp.P() != 8 {
			t.Errorf("New(%q, 8) = %s over %d nodes", name, tp.Name(), tp.P())
		}
	}
	if _, err := New("ring", 8); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Errorf("unknown name: %v", err)
	}
	if _, err := New("hypercube", 6); err == nil || !strings.Contains(err.Error(), "power-of-two") {
		t.Errorf("non-power-of-two hypercube: %v", err)
	}
	if _, err := NewHypercube(11); err == nil {
		t.Error("dimension 11 accepted")
	}
	if _, err := NewHypercube(-1); err == nil {
		t.Error("dimension -1 accepted")
	}
	if _, err := NewMesh2D(0, 4); err == nil {
		t.Error("0-row mesh accepted")
	}
	if _, err := NewTorus2D(1, 1<<11); err == nil {
		t.Error("oversized torus accepted")
	}
	if got := Names(); len(got) != 3 {
		t.Errorf("Names() = %v", got)
	}
}

func TestNearSquare(t *testing.T) {
	for _, tc := range []struct{ p, rows, cols int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {8, 2, 4},
		{16, 4, 4}, {12, 3, 4}, {7, 1, 7}, {0, 1, 1},
	} {
		if r, c := nearSquare(tc.p); r != tc.rows || c != tc.cols {
			t.Errorf("nearSquare(%d) = %d×%d, want %d×%d", tc.p, r, c, tc.rows, tc.cols)
		}
	}
}

func TestShapesAndGray(t *testing.T) {
	h, _ := NewHypercube(3)
	if h.Shape() != "dim 3" || h.P() != 8 {
		t.Errorf("hypercube shape %q over %d nodes", h.Shape(), h.P())
	}
	m, _ := NewMesh2D(2, 4)
	if m.Shape() != "2×4" || m.P() != 8 {
		t.Errorf("mesh shape %q over %d nodes", m.Shape(), m.P())
	}
	for r := 0; r < 16; r++ {
		if g := Gray(r); r > 0 && popcount(g^Gray(r-1)) != 1 {
			t.Errorf("Gray(%d)=%d and Gray(%d)=%d differ in several bits", r, g, r-1, Gray(r-1))
		}
	}
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// TestInvalidEmbeddingPanics: pricing the combine over an embedding
// with out-of-range addresses is a caller bug and must panic loudly.
func TestInvalidEmbeddingPanics(t *testing.T) {
	m, _ := NewMesh2D(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("invalid embedding priced silently")
		}
	}()
	m.CombineSteps([]int{0, 99, 2, 3})
}
