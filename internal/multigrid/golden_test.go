package multigrid

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/hypercube"
	"repro/internal/topo"
)

// TestDistributedGolden freezes the fault-free distributed V-cycle on
// every fabric: 8 ranks, N=17, 2 levels. The iteration count, the node
// counters and both simulated clocks are pinned, so a driver rewrite
// that changes the phase sequence, the host-transfer pricing or the
// code each rank runs fails here even when the solution still matches
// the single-node solver. The final grid and the residual series are
// pinned too, as one SHA-256 over their bits: the single-node oracle
// calls the same grid transfers, so a transfer change would otherwise
// move both sides at once. The values are the same at every worker
// count.
func TestDistributedGolden(t *testing.T) {
	const (
		vcycles = 46
		flops   = 38493214
		hits    = 3086
		misses  = 42
		bits    = "339f3247658922ae085110f292052cc8cf763eb70a947021ca62edecb2ebb922"
	)
	clocks := map[string][2]int64{ // machine, comm
		"hypercube": {1056298, 1306906},
		"mesh2d":    {1058506, 1311322},
		"torus2d":   {1057034, 1307642},
	}
	cfg := arch.Default()
	for _, name := range topo.Names() {
		for _, workers := range []int{1, 4} {
			tp, err := topo.New(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			m, err := hypercube.NewWithTopology(cfg, tp)
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDistributed(DistConfig{
				Fabric: m.Fabric(), Cfg: cfg,
				N: 17, Levels: 2, Tol: 1e-6, MaxCycles: 100, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Run()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if res.VCycles != vcycles || res.TotalFLOPs != flops ||
				res.PlanCache.Hits != hits || res.PlanCache.Misses != misses {
				t.Errorf("%s workers=%d: %d V-cycles, %d FLOPs, plan cache %d/%d; want %d, %d, %d/%d",
					name, workers, res.VCycles, res.TotalFLOPs, res.PlanCache.Hits, res.PlanCache.Misses,
					vcycles, flops, hits, misses)
			}
			if got := gridSum(res); got != bits {
				t.Errorf("%s workers=%d: grid and residual series hash %s, want %s", name, workers, got, bits)
			}
			want := clocks[name]
			if m.MachineCycles != want[0] || m.CommCycles != want[1] {
				t.Errorf("%s workers=%d: clocks machine=%d comm=%d, want %d/%d",
					name, workers, m.MachineCycles, m.CommCycles, want[0], want[1])
			}
		}
	}
}

// gridSum hashes the bits of a solve's final grid followed by its
// residual series, each word little-endian.
func gridSum(res *DistResult) string {
	h := sha256.New()
	var w [8]byte
	for _, xs := range [][]float64{res.U, res.ResidualSeries} {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(w[:], math.Float64bits(x))
			h.Write(w[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
