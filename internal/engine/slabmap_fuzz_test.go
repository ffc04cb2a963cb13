package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/jacobi"
	"repro/internal/sim"
)

// FuzzSlabMap checks Partition's slab map over 1–8 ranks and every
// remainder of the interior planes. Scatter must leave each node
// holding its slab, ghosts included, as explicit plane loops build
// it; Gather must return the image bit for bit from the owned planes
// and the edge ranks' outer ghosts, after every interior ghost has been
// overwritten with junk; and Local's F and U0 must hold their Slab
// windows, capped so that an append to one cannot reach the global
// array, and its Mask a copy of its window, cleared on both ghost
// planes.
func FuzzSlabMap(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), int64(1))
	f.Add(uint8(3), uint8(3), uint8(1), int64(2))
	f.Add(uint8(2), uint8(5), uint8(0), int64(3))
	f.Add(uint8(7), uint8(15), uint8(1), int64(4))
	cfg := arch.Default()
	nodes := make([]*sim.Node, 8)
	for r := range nodes {
		nodes[r] = sim.MustNode(cfg)
	}
	f.Fuzz(func(t *testing.T, p8, extra8, n8 uint8, seed int64) {
		p := int(p8%8) + 1
		n := int(n8%2) + 3 // the smallest grids Local validates
		nz := p + int(extra8%16) + 2
		nn := n * n
		part, err := NewPartition(p, n, nz)
		if err != nil {
			t.Fatal(err)
		}
		fab := &nodeFabric{scatterFabric: scatterFabric{p: p}, nodes: nodes[:p]}
		rng := rand.New(rand.NewSource(seed))
		randomImage := func() []float64 {
			img := make([]float64, nz*nn)
			for i := range img {
				img[i] = rng.NormFloat64()
				if rng.Intn(8) == 0 {
					img[i] = math.Copysign(0, -1)
				}
			}
			return img
		}
		junk := math.Inf(1) // no image word: NormFloat64 is finite
		const plane = 3

		// Scatter: rank r holds global planes lo-1 … lo+Planes[r].
		img := randomImage()
		if err := part.Scatter(fab, plane, img); err != nil {
			t.Fatal(err)
		}
		lo := 1
		for r := 0; r < p; r++ {
			var want []float64
			for k := lo - 1; k <= lo+part.Planes[r]; k++ {
				want = append(want, img[k*nn:(k+1)*nn]...)
			}
			got, err := nodes[r].ReadWords(plane, 0, len(want))
			if err != nil {
				t.Fatal(err)
			}
			sameWords(t, "scatter", r, got, want)
			lo += part.Planes[r]
		}

		// Gather reads no interior ghost: junk there must not surface.
		face := make([]float64, nn)
		for i := range face {
			face[i] = junk
		}
		for r := 0; r < p; r++ {
			if r > 0 {
				if err := nodes[r].WriteWords(plane, 0, face); err != nil {
					t.Fatal(err)
				}
			}
			if r < p-1 {
				if err := nodes[r].WriteWords(plane, int64((part.Planes[r]+1)*nn), face); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := make([]float64, nz*nn)
		for i := range got {
			got[i] = junk
		}
		if err := part.Gather(fab, plane, got); err != nil {
			t.Fatal(err)
		}
		sameWords(t, "gather", -1, got, img)

		// Local caps the F and U0 windows, copies the mask and clears
		// its ghosts.
		g := &jacobi.Problem{N: n, Nz: nz, H: 0.25, Tol: 1e-3, MaxIter: 7,
			F: img, U0: randomImage(), Mask: randomImage()}
		for r := 0; r < p; r++ {
			lp, err := part.Local(cfg, g, r)
			if err != nil {
				t.Fatal(err)
			}
			if lp.N != n || lp.Nz != part.LocalNz(r) || lp.H != g.H || lp.Tol != g.Tol || lp.MaxIter != g.MaxIter {
				t.Fatalf("rank %d: local problem %d×%d×%d h=%g tol=%g max=%d", r, lp.N, lp.N, lp.Nz, lp.H, lp.Tol, lp.MaxIter)
			}
			sameWords(t, "local F", r, lp.F, part.Slab(g.F, r))
			sameWords(t, "local U0", r, lp.U0, part.Slab(g.U0, r))
			mask := part.Slab(g.Mask, r)
			end := len(mask) - nn
			sameWords(t, "local mask", r, lp.Mask[nn:end], mask[nn:end])
			for _, ghost := range [][]float64{lp.Mask[:nn], lp.Mask[end:]} {
				for i, v := range ghost {
					if math.Float64bits(v) != 0 {
						t.Fatalf("rank %d: mask ghost word %d = %v, want +0", r, i, v)
					}
				}
			}
			past := (part.Lo[r] + part.Planes[r] + 1) * nn // the first global word past the slab
			for _, c := range []struct {
				name          string
				local, global []float64
			}{{"F", lp.F, g.F}, {"U0", lp.U0, g.U0}} {
				if grown := append(c.local, junk); &grown[0] == &c.local[0] || past < len(c.global) && c.global[past] == junk {
					t.Fatalf("rank %d: an append to the local %s reached the global array", r, c.name)
				}
			}
			lp.Mask[nn] = junk
			if mask[nn] == junk {
				t.Fatalf("rank %d: the local mask aliases the global one", r)
			}
		}
	})
}

// sameWords fails t unless got and want hold the same float64 bits.
func sameWords(t *testing.T, what string, rank int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s rank %d: %d words, want %d", what, rank, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s rank %d: word %d = %v, want %v", what, rank, i, got[i], want[i])
		}
	}
}
