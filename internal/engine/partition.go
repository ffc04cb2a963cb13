package engine

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/jacobi"
)

// Partition is a 1-D slab decomposition of an N×N×Nz grid along k:
// each ring rank owns a contiguous run of interior planes plus one
// ghost/boundary plane on each side. The decomposition is the seed
// driver's inline slab math lifted into a separately testable value,
// generalized to uneven slabs (front ranks take the remainder) so that
// 2^k+1 multigrid grids — whose odd interior plane counts never divide
// evenly — partition too.
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

// Uniform reports whether every rank owns the same number of planes.
func (pt *Partition) Uniform() bool {
	return (pt.Nz-2)%pt.P == 0
}

// NN returns the words in one face (an N×N plane).
func (pt *Partition) NN() int { return pt.N * pt.N }

// LocalNz returns rank r's local grid depth, ghosts included.
func (pt *Partition) LocalNz(r int) int { return pt.Planes[r] + 2 }

// Local extracts rank r's slab problem from the global one: planes
// [Lo[r]-1, Lo[r]+Planes[r]] of F and U0, with the mask kept only on
// the owned interior planes so ghost planes enter the pipelines as
// masked-off boundary.
func (pt *Partition) Local(cfg arch.Config, global *jacobi.Problem, r int) (*jacobi.Problem, error) {
	if r < 0 || r >= pt.P {
		return nil, fmt.Errorf("engine: local slab rank %d outside %d ranks", r, pt.P)
	}
	if global.N != pt.N || global.Nz != pt.Nz {
		return nil, fmt.Errorf("engine: problem %d×%d×%d does not match partition %d×%d×%d",
			global.N, global.N, global.Nz, pt.N, pt.N, pt.Nz)
	}
	nn := pt.NN()
	planes := pt.Planes[r]
	lp := &jacobi.Problem{
		N: pt.N, Nz: planes + 2, H: global.H, Tol: global.Tol, MaxIter: global.MaxIter,
		F:    make([]float64, nn*(planes+2)),
		U0:   make([]float64, nn*(planes+2)),
		Mask: make([]float64, nn*(planes+2)),
	}
	for kz := 0; kz < planes+2; kz++ {
		gk := pt.Lo[r] - 1 + kz
		copy(lp.F[kz*nn:(kz+1)*nn], global.F[gk*nn:(gk+1)*nn])
		copy(lp.U0[kz*nn:(kz+1)*nn], global.U0[gk*nn:(gk+1)*nn])
		if kz > 0 && kz < planes+1 {
			// Interior planes keep the global x/y mask.
			copy(lp.Mask[kz*nn:(kz+1)*nn], global.Mask[gk*nn:(gk+1)*nn])
		}
	}
	if err := lp.Validate(cfg); err != nil {
		return nil, err
	}
	return lp, nil
}
