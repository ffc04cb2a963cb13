package engine

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/jacobi"
)

// Partition is a 1-D slab decomposition of an N×N×Nz grid along k:
// each ring rank owns a contiguous run of interior planes plus one
// ghost/boundary plane on each side. The decomposition is the seed
// driver's inline slab math lifted into a separately testable value,
// generalized to uneven slabs (front ranks take the remainder) so that
// 2^k+1 multigrid grids — whose odd interior plane counts never divide
// evenly — partition too. It is the one map between a rank's slab and
// the global grid: Slab, Gather, Scatter and Local are the only code
// that moves planes between the ring and a global image.
type Partition struct {
	P, N, Nz int
	// Lo[r] is the first global interior plane rank r owns; Planes[r]
	// is how many it owns. The rank's local grid spans global planes
	// [Lo[r]-1, Lo[r]+Planes[r]]: the extra plane each side is the
	// ghost (or, on the edge ranks, the true boundary).
	Lo, Planes []int
}

// NewPartition decomposes the Nz-2 interior planes across p ranks,
// allowing uneven slabs: every rank gets at least one plane, and the
// first Nz-2 mod p ranks get one extra.
func NewPartition(p, n, nz int) (*Partition, error) {
	inner := nz - 2
	if p < 1 || inner < p {
		return nil, fmt.Errorf("engine: cannot partition %d interior planes across %d ranks", inner, p)
	}
	pt := &Partition{P: p, N: n, Nz: nz, Lo: make([]int, p), Planes: make([]int, p)}
	q, rem := inner/p, inner%p
	lo := 1
	for r := 0; r < p; r++ {
		pt.Lo[r] = lo
		pt.Planes[r] = q
		if r < rem {
			pt.Planes[r]++
		}
		lo += pt.Planes[r]
	}
	return pt, nil
}

// NN returns the words in one face (an N×N plane).
func (pt *Partition) NN() int { return pt.N * pt.N }

// LocalNz returns rank r's local grid depth, ghosts included.
func (pt *Partition) LocalNz(r int) int { return pt.Planes[r] + 2 }

// Slab returns rank r's window of a global N×N×Nz image: global
// planes [Lo[r]-1, Lo[r]+Planes[r]], ghosts included. The window
// aliases img.
func (pt *Partition) Slab(img []float64, r int) []float64 {
	nn := pt.NN()
	return img[(pt.Lo[r]-1)*nn : (pt.Lo[r]+pt.Planes[r]+1)*nn]
}

// Gather reads plane `plane` of the ring into img, a global N×N×Nz
// image: every rank's owned planes, and the two global boundary planes
// from the edge ranks' outer ghosts. It reads no interior ghost, so
// the image is right even when the last sweep's faces were never
// exchanged. A host-side copy: it charges no simulated cycles.
func (pt *Partition) Gather(f Fabric, plane int, img []float64) error {
	for r := 0; r < pt.P; r++ {
		if err := pt.gatherRank(f, plane, img, r); err != nil {
			return err
		}
	}
	return nil
}

// gatherRank reads rank r's share of Gather's image in one host
// transfer: its owned planes, with the outer ghost next to them on an
// edge rank. Ranks write disjoint words of img, so they may gather at
// once.
func (pt *Partition) gatherRank(f Fabric, plane int, img []float64, r int) error {
	nn := pt.NN()
	lo, hi, at := pt.Lo[r], pt.Lo[r]+pt.Planes[r], nn // global planes [lo,hi) from local word at
	if r == 0 {
		lo, at = 0, 0
	}
	if r == pt.P-1 {
		hi = pt.Nz
	}
	return f.Node(r).ReadWordsInto(plane, int64(at), img[lo*nn:hi*nn])
}

// Scatter writes every rank's Slab of img, ghosts included, into plane
// `plane` of its node. A host-side copy: it charges no simulated
// cycles.
func (pt *Partition) Scatter(f Fabric, plane int, img []float64) error {
	for r := 0; r < pt.P; r++ {
		if err := f.Node(r).WriteWords(plane, 0, pt.Slab(img, r)); err != nil {
			return err
		}
	}
	return nil
}

// Local extracts rank r's slab problem from the global one. Its F and
// U0 are the Slab windows of the global arrays, capped so that an
// append copies them instead of writing past the slab; callers only
// read them. Its Mask is a copy of the window, cleared on the two
// ghost planes so they enter the pipelines as masked-off boundary.
func (pt *Partition) Local(cfg arch.Config, global *jacobi.Problem, r int) (*jacobi.Problem, error) {
	if r < 0 || r >= pt.P {
		return nil, fmt.Errorf("engine: local slab rank %d outside %d ranks", r, pt.P)
	}
	if global.N != pt.N || global.Nz != pt.Nz {
		return nil, fmt.Errorf("engine: problem %d×%d×%d does not match partition %d×%d×%d",
			global.N, global.N, global.Nz, pt.N, pt.N, pt.Nz)
	}
	// Validating the global problem covers every slab: a slab has its
	// N and at least three planes, and the array lengths checked here
	// keep Slab from reslicing past an array's end into its capacity.
	if err := global.Validate(cfg); err != nil {
		return nil, err
	}
	lp := &jacobi.Problem{
		N: pt.N, Nz: pt.LocalNz(r), H: global.H, Tol: global.Tol, MaxIter: global.MaxIter,
		F:    slices.Clip(pt.Slab(global.F, r)),
		U0:   slices.Clip(pt.Slab(global.U0, r)),
		Mask: slices.Clone(pt.Slab(global.Mask, r)),
	}
	nn := pt.NN()
	clear(lp.Mask[:nn])
	clear(lp.Mask[len(lp.Mask)-nn:])
	return lp, nil
}
