// multigrid runs the workload of the paper's reference [6] — multigrid
// for the 3-D Poisson equation — with every smoothing sweep, residual
// evaluation and correction executing as NSC pipelines built through
// the visual environment, and host-side grid transfers standing in for
// the between-phase memory reformatting of §3.
//
//	go run ./examples/multigrid [-n 17] [-levels 3] [-tol 1e-6]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"repro/internal/arch"
	"repro/internal/multigrid"
)

func main() {
	n := flag.Int("n", 17, "fine grid points per dimension (2^k+1)")
	levels := flag.Int("levels", 3, "grid levels")
	tol := flag.Float64("tol", 1e-6, "residual tolerance (max-abs)")
	flag.Parse()

	cfg := arch.Default()
	s, err := multigrid.New(cfg, *n, *levels, *tol, 200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("V(%d,%d) cycle, ω=%.4f, levels:", multigrid.PreSweeps, multigrid.PostSweeps, multigrid.DefaultOmega)
	for _, lv := range s.Levels {
		fmt.Printf(" %d³", lv.P.N)
	}
	fmt.Println()

	res, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged in %d V-cycles; NSC residual register %.3e\n", res.VCycles, res.Residual)
	fmt.Printf("NSC work: %d instructions, %d cycles (%.2f ms at %.0f MHz), %.1f MFLOPS\n",
		res.Stats.Instructions, res.Stats.Cycles, res.Stats.Seconds(cfg.ClockHz)*1e3,
		cfg.ClockHz/1e6, res.Stats.MFLOPS(cfg.ClockHz))

	// Host mirror agreement.
	s2, err := multigrid.New(cfg, *n, *levels, *tol, 200)
	if err != nil {
		log.Fatal(err)
	}
	refU, refCycles, refRes, _ := s2.ReferenceVCycle(200)
	exact := 0
	for g := range refU {
		if res.U[g] == refU[g] {
			exact++
		}
	}
	fmt.Printf("host mirror: %d V-cycles, residual %.3e; %d/%d values bit-identical\n",
		refCycles, refRes, exact, len(refU))

	// Versus plain Jacobi on the machine (the ref [6] motivation).
	fineSweeps := res.VCycles * (multigrid.PreSweeps + multigrid.PostSweeps)
	kappa := 1 - math.Pow(math.Sin(math.Pi/(2*float64(*n-1))), 2) // Jacobi spectral radius estimate
	estJacobi := math.Log(*tol) / math.Log(kappa)
	fmt.Printf("fine-grid sweeps: %d (plain Jacobi would need on the order of %.0f)\n",
		fineSweeps, estJacobi)
}
