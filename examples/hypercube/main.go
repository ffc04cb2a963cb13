// hypercube demonstrates the multi-node NSC: the Jacobi solver
// decomposed across a hypercube of nodes with ghost-plane exchange
// over the hyperspace router, swept from 1 to 16 nodes (weak scaling:
// constant planes per node). Aggregate GFLOPS approach the paper's
// headline numbers as nodes are added, with communication holding
// efficiency below linear.
//
//	go run ./examples/hypercube [-n 12] [-slab 4]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/hypercube"
	"repro/internal/jacobi"
)

func main() {
	n := flag.Int("n", 12, "grid points in x and y")
	slab := flag.Int("slab", 4, "interior planes per node (weak scaling)")
	maxDim := flag.Int("dim", 4, "largest hypercube dimension to sweep")
	flag.Parse()

	cfg := arch.Default()
	fmt.Printf("weak scaling: %dx%d x (%d planes per node), tol 1e-3\n", *n, *n, *slab)
	fmt.Printf("%5s %7s %10s %12s %12s %10s %8s\n",
		"nodes", "iters", "cycles", "comm-cycles", "GFLOPS", "peak-GF", "eff%")

	for dim := 0; dim <= *maxDim; dim++ {
		p := 1 << uint(dim)
		g := jacobi.NewBoxProblem(*n, p**slab+2, 1e-3, 4000)

		m, err := hypercube.New(cfg, dim)
		if err != nil {
			log.Fatal(err)
		}
		res, err := m.SolveJacobi(g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d %7d %10d %12d %12.3f %10.2f %7.1f%%\n",
			p, res.Iterations, res.Cycles, m.CommCycles, res.GFLOPS,
			m.PeakGFLOPS(), 100*res.Efficiency(m))
	}
	fmt.Printf("\npaper's 64-node system: %.2f GFLOPS peak, %d GB memory\n",
		arch.Default().PeakSystemFLOPS()/1e9, arch.Default().TotalMemoryBytes()>>30)
}
