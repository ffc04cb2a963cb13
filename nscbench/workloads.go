package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/jacobi"
)

// instance is a set-up workload.
type instance interface {
	// batch runs the next batch of ops as the timed loop sees them — one
	// solve, or one editor session — appending each op's wall time in
	// milliseconds to lat, and returns the ops attempted.
	batch(lat *[]float64) int
	// prepareOracle computes the reference outputs check compares with.
	prepareOracle() error
	// check applies the output oracle to the last batch and returns how
	// many of its ops failed (errored or produced a wrong output).
	check() int
	// decomposed runs one batch through the same public calls as batch,
	// with a span around each call into a module; a nil tracer records
	// nothing. check applies to its output too.
	decomposed(tr *tracer)
	// verify compares the last decomposed batch with the real op on the
	// same inputs and reports any divergence.
	verify(tr *tracer) error
	// slab returns the rank-0 slab problem the layer probes run on.
	slab() (*jacobi.Problem, error)
}

// workload is one named benchmark workload.
type workload struct {
	name, why string
	// setupReps is how many times a run sets up, reporting the median.
	setupReps int
	// grid is the edge of the 2^k+1 cube the multigrid transfer probe
	// restricts and prolongs: the workload's grid edge, rounded up.
	grid  int
	setup func(seed int64) (instance, error)
}

var workloads = []*workload{
	{
		name: "jacobi-cold",
		why: "fresh 8-rank hypercube and SolveJacobi on 8x8x18 for 12 sweeps per op: " +
			"the whole toolchain per solve, dominated by document build and codegen",
		setupReps: 15, grid: 9,
		setup: setupJacobi(jacobiSpec{topology: "hypercube", n: 8, nz: 18, sweeps: 12,
			machineCycles: 7764, commCycles: 11412}),
	},
	{
		name: "jacobi-long",
		why: "SolveJacobi on one standing 8-rank torus2d, 48x48x34 for 40 sweeps: " +
			"sweep-bound, per-rank working set past the L2, generic collective trees",
		setupReps: 5, grid: 49,
		setup: setupJacobi(jacobiSpec{topology: "torus2d", n: 48, nz: 34, sweeps: 40, standing: true,
			machineCycles: 1013096, commCycles: 1264072}),
	},
	{
		name: "multigrid",
		why: "fresh 8-rank mesh2d, distributed multigrid N=17 2 levels to 1e-6 (46 V-cycles); " +
			"the model problem takes no input data, so this workload ignores the seed",
		setupReps: 5, grid: 17,
		setup: setupMultigrid,
	},
	{
		name: "edit-session",
		why: "one editor command per op: the Jacobi diagram entered with seeded moves, " +
			"undo/redo pairs, checks and compiles, exercising undo restore and both caches",
		setupReps: 15, grid: 9,
		setup: setupEdit,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// setUp prepares wl reps times — inputs, any standing machine and one
// untimed warm-up batch — and returns the last instance with the median
// set-up time in seconds. The oracle is prepared afterwards, untimed, and
// the warm-up batch must pass it.
func setUp(wl *workload, seed int64, reps int) (instance, float64, error) {
	var inst instance
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(seed); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		var warm []float64
		inst.batch(&warm)
		times = append(times, time.Since(t0).Seconds())
	}
	if err := inst.prepareOracle(); err != nil {
		return nil, 0, fmt.Errorf("%s oracle: %w", wl.name, err)
	}
	if f := inst.check(); f != 0 {
		return nil, 0, fmt.Errorf("%s warm-up op failed its output check", wl.name)
	}
	return inst, median(times), nil
}

// runTimed is the end-to-end run: tracing off, one client in a closed
// loop for the given wall time, the oracle and the host calibration
// (calib.go) applied after every batch outside the timed interval. The
// time metrics are host-scaled; the unscaled figures are printed beside
// them.
func runTimed(w io.Writer, wl *workload, seed int64, seconds float64) (*result, error) {
	inst, setupS, err := setUp(wl, seed, wl.setupReps)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	cb := newCalibrator(runtime.NumCPU())
	var (
		lat               []float64
		cal               []float64 // calibration after each batch, ms
		rss               []float64 // resident set after each batch, MB
		attempted, failed int64
		busy              time.Duration
		alloc, mallocs    uint64
		m0, m1            runtime.MemStats
	)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		n := inst.batch(&lat)
		busy += time.Since(t0)
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
		mallocs += m1.Mallocs - m0.Mallocs
		attempted += int64(n)
		failed += int64(inst.check())
		rss = append(rss, rssMB())
		cal = append(cal, cb.run())
	}
	ops := float64(attempted)
	p50 := median(append([]float64(nil), lat...))
	calMS := median(cal)
	scale := refCalibMS / calMS
	tailV, tailP, tailN := tail(lat)
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{
		"op_p50_ms":       {p50 * scale, "ms"},
		"ops_per_s":       {ops / busy.Seconds() / scale, "1/s"},
		"setup_s":         {setupS * scale, "s"},
		"alloc_mb_per_op": {float64(alloc) / (1 << 20) / ops, "MB"},
		"allocs_per_op":   {float64(mallocs) / ops, "count"},
		"rss_mb":          {median(rss), "MB"},
	}}
	fmt.Fprintf(w, "host calibration %.4f ms (reference %.4f ms): time metrics scaled by %.4f; "+
		"unscaled op_p50 %.4f ms, ops/s %.4f, setup %.4f s\n", calMS, refCalibMS, scale, p50, ops/busy.Seconds(), setupS)
	// The tail is reported, not bounded: on edit-session it is the
	// 11th-largest of ~90k samples, a GC pause, and it moved by a third
	// between runs of the same code.
	fmt.Fprintf(w, "op_tail_ms %.4f ms: p%.2f over %d samples (10 beyond it)\n", tailV, tailP, tailN)
	fmt.Fprintf(w, "resident set: peak %.1f MB over the whole run; rss_mb is the median after each batch\n", peakRSSMB())
	fmt.Fprintf(w, "fail_ratio %g (%d of %d ops failed)\n", float64(failed)/ops, failed, attempted)
	for _, name := range endToEndNames {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-16s %14.4f %s\n", name, m.Value, m.Unit)
	}
	return res, nil
}

// endToEndNames lists the end-to-end metrics in report order.
var endToEndNames = []string{"op_p50_ms", "ops_per_s", "setup_s",
	"alloc_mb_per_op", "allocs_per_op", "rss_mb"}
