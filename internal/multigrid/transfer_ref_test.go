package multigrid

import "math"

// restrictRef and prolongRef are the grid transfers as first written:
// generic loops over each stencil's offsets through a bounds-checked
// reader. They are the reference the stencil loops of Restrict and
// Prolong must match bit for bit. One thing changed: each sum's add
// goes through refAdd. Which NaN payload survives a Go float add
// depends on the operand order the compiler picks, and it picks
// differently for the same loop in a normal and in a fuzzing build:
// these loops kept a sum's first NaN term in the one and its last in
// the other. refAdd pins the first, as the normal build did.

// restrictRef applies 27-point full weighting from an nf³ grid to an
// nc³ grid. Coarse boundary values are zero.
func restrictRef(fine []float64, nf, nc int) []float64 {
	out := make([]float64, nc*nc*nc)
	at := func(i, j, k int) float64 {
		if i < 0 || j < 0 || k < 0 || i >= nf || j >= nf || k >= nf {
			return 0
		}
		return fine[i+j*nf+k*nf*nf]
	}
	for K := 1; K < nc-1; K++ {
		for J := 1; J < nc-1; J++ {
			for I := 1; I < nc-1; I++ {
				sum := 0.0
				for dk := -1; dk <= 1; dk++ {
					for dj := -1; dj <= 1; dj++ {
						for di := -1; di <= 1; di++ {
							w := 1.0 / 8
							if di != 0 {
								w /= 2
							}
							if dj != 0 {
								w /= 2
							}
							if dk != 0 {
								w /= 2
							}
							sum = refAdd(sum, w*at(2*I+di, 2*J+dj, 2*K+dk))
						}
					}
				}
				out[I+J*nc+K*nc*nc] = sum
			}
		}
	}
	return out
}

// prolongRef applies trilinear interpolation from an nc³ grid to an
// nf³ grid.
func prolongRef(coarse []float64, nc, nf int) []float64 {
	out := make([]float64, nf*nf*nf)
	at := func(i, j, k int) float64 {
		if i < 0 || j < 0 || k < 0 || i >= nc || j >= nc || k >= nc {
			return 0
		}
		return coarse[i+j*nc+k*nc*nc]
	}
	for k := 0; k < nf; k++ {
		for j := 0; j < nf; j++ {
			for i := 0; i < nf; i++ {
				sum := 0.0
				for _, ck := range halves(k) {
					for _, cj := range halves(j) {
						for _, ci := range halves(i) {
							w := ci.w * cj.w * ck.w
							sum = refAdd(sum, w*at(ci.i, cj.i, ck.i))
						}
					}
				}
				out[i+j*nf+k*nf*nf] = sum
			}
		}
	}
	return out
}

type cw struct {
	i int
	w float64
}

// halves returns the coarse contributors of fine index i.
func halves(i int) []cw {
	if i%2 == 0 {
		return []cw{{i / 2, 1}}
	}
	return []cw{{i / 2, 0.5}, {i/2 + 1, 0.5}}
}

// refAdd returns sum + t but keeps sum once it is NaN.
func refAdd(sum, t float64) float64 {
	if math.IsNaN(sum) {
		return sum
	}
	return sum + t
}
