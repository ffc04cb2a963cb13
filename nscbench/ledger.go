package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/diagram"
	"repro/internal/jacobi"
	"repro/internal/microcode"
	"repro/internal/multigrid"
	"repro/internal/sim"
)

// layerMetric is one per-layer metric of the ledger. Its value comes
// from one of these sources, named by from:
//
//   - "span:<name>": the median over ops of the summed self time of the
//     spans called <name> in one op;
//   - "dur:<name>": the same with whole durations, for a span whose
//     children are phases seen inside it;
//   - "count:<name>": the median over ops of a count the decomposed op
//     recorded at the same boundary;
//   - "probe": one call timed alone on the workload's rank-0 slab, the
//     median of probeReps calls;
//   - "run": a property of this traced run itself.
//
// Span and count metrics come from the workload's own decomposed op when
// it reaches the layer, and otherwise from the decomposed ops of the
// first workload (in BENCHMARK.json order) whose op does.
type layerMetric struct {
	name, unit, from string
}

var layerMetrics = []layerMetric{
	{"editor.build_ms", "ms", "span:editor.build"},
	{"editor.commands", "count", "count:editor.commands"},
	{"editor.alloc_mb", "MB", "probe"},
	{"editor.snapshot_share", "ratio", "probe"},
	{"editor.cmd_p50_us", "us", "span:editor.cmd"},
	{"editor.undo_p50_us", "us", "span:editor.undo"},
	{"editor.redo_p50_us", "us", "span:editor.redo"},
	{"editor.check_p50_us", "us", "span:editor.check"},
	{"jacobi.script_ms", "ms", "probe"},
	{"jacobi.load_ms", "ms", "span:jacobi.load"},
	{"diagram.save_ms", "ms", "probe"},
	{"diagram.load_ms", "ms", "probe"},
	{"diagram.doc_bytes", "bytes", "probe"},
	{"checker.check_ms", "ms", "probe"},
	{"checker.cache_hit_ratio", "ratio", "count:checker.cache_hit_ratio"},
	{"pipeline.compile_cold_ms", "ms", "span:pipeline.compile.cold"},
	{"pipeline.compile_warm_ms", "ms", "span:pipeline.compile.warm"},
	{"pipeline.cache_hit_ratio", "ratio", "count:pipeline.cache_hit_ratio"},
	{"codegen.pipeline_ms", "ms", "span:codegen.pipeline"},
	{"codegen.alloc_mb", "MB", "probe"},
	{"hypercube.new_ms", "ms", "span:hypercube.new"},
	{"hypercube.solve_ms", "ms", "dur:hypercube.solve"},
	{"hypercube.assemble_ms", "ms", "span:hypercube.assemble"},
	{"engine.partition_ms", "ms", "span:engine.partition"},
	{"engine.dispatch_ms", "ms", "span:engine.dispatch"},
	{"engine.combine_ms", "ms", "span:engine.combine"},
	{"engine.exchange_ms", "ms", "span:engine.exchange"},
	{"engine.sweeps", "count", "count:engine.sweeps"},
	{"engine.dispatch_share", "ratio", "span:engine.dispatch"},
	{"sim.exec_us", "us", "probe"},
	{"sim.kernel_fast", "count", "count:sim.kernel_fast"},
	{"sim.kernel_slow", "count", "count:sim.kernel_slow"},
	{"sim.plan_hits", "count", "count:sim.plan_hits"},
	{"sim.plan_misses", "count", "count:sim.plan_misses"},
	{"sim.flops", "flop", "count:sim.flops"},
	{"sim.machine_cycles", "cycles", "count:sim.machine_cycles"},
	{"sim.stream_bytes_per_sweep", "bytes", "count:sim.stream_bytes_per_sweep"},
	{"sim.flops_per_byte", "flop/B", "count:sim.flops_per_byte"},
	{"topo.comm_cycles", "cycles", "count:topo.comm_cycles"},
	{"topo.combine_rounds", "count", "count:topo.combine_rounds"},
	{"multigrid.build_ms", "ms", "span:multigrid.build"},
	{"multigrid.run_ms", "ms", "dur:multigrid.run"},
	{"multigrid.ms_per_vcycle", "ms", "dur:multigrid.run"},
	{"multigrid.vcycles", "count", "count:multigrid.vcycles"},
	{"multigrid.transfer_us", "us", "probe"},
	{"runtime.gc_pause_ms", "ms", "run"},
	{"runtime.gc_cycles", "count", "run"},
	{"trace.overhead_ratio", "ratio", "run"},
	{"trace.replica_ratio", "ratio", "run"},
	{"fail_ratio", "ratio", "run"},
}

// namedTrace is one workload's tracer.
type namedTrace struct {
	name string
	t    *tracer
}

// runTraced is the per-layer run. It sets up once, then for the given
// wall time runs the decomposed op with spans, checking each against
// the real op (verify) and the oracle (check). It then times the
// decomposed op untraced against the real op, to report the tracing
// overhead and how closely the replica tracks the real op; runs a few
// decomposed batches of every other workload for the layers this one
// does not reach; and runs the single-call layer probes.
func runTraced(w io.Writer, wl *workload, seed int64, seconds float64, host, spanDir string) (*result, error) {
	inst, _, err := setUp(wl, seed, 1)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	own := newTracer()
	var (
		traced, plain, direct []float64 // batch wall times, ms
		attempted, failed     int64
		gcPause, gcCycles     float64
		m0, m1                runtime.MemStats
	)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		before := own.op
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		inst.decomposed(own)
		traced = append(traced, ms(time.Since(t0)))
		runtime.ReadMemStats(&m1)
		gcPause += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		gcCycles += float64(m1.NumGC - m0.NumGC)
		attempted += int64(own.op - before)
		if err := inst.verify(own); err != nil {
			return nil, fmt.Errorf("%s traced op: %w", wl.name, err)
		}
		failed += int64(inst.check())
	}
	ownOps := float64(attempted)

	// Alternate untraced decomposed and real batches for at least three
	// pairs and an eighth of the run length, at most 50 pairs.
	start := time.Now()
	for i := 0; i < 50 && (i < 3 || time.Since(start).Seconds() < seconds/8); i++ {
		t0 := time.Now()
		inst.decomposed(nil)
		plain = append(plain, ms(time.Since(t0)))
		failed += int64(inst.check())
		var lat []float64
		t0 = time.Now()
		n := inst.batch(&lat)
		direct = append(direct, ms(time.Since(t0)))
		failed += int64(inst.check())
		attempted += 2 * int64(n)
	}

	srcs := []namedTrace{{wl.name, own}}
	for _, other := range workloads {
		if other == wl {
			continue
		}
		oi, _, err := setUp(other, seed, 1)
		if err != nil {
			return nil, err
		}
		// At least two batches and 0.3 s, so that an edit session's
		// rarer commands (a warm compile) appear.
		ot := newTracer()
		t0 := time.Now()
		for i := 0; i < 50 && (i < 2 || time.Since(t0) < 300*time.Millisecond); i++ {
			oi.decomposed(ot)
			if err := oi.verify(ot); err != nil {
				return nil, fmt.Errorf("%s traced op: %w", other.name, err)
			}
			if oi.check() != 0 {
				return nil, fmt.Errorf("%s traced op failed its output check", other.name)
			}
		}
		srcs = append(srcs, namedTrace{other.name, ot})
	}

	slab, err := inst.slab()
	if err != nil {
		return nil, err
	}
	probe, ws, err := probeLayers(slab, wl.grid)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "rank-0 slab %dx%dx%d: %s\n", slab.N, slab.N, slab.Nz, ws)

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	run := map[string]float64{
		"runtime.gc_pause_ms":  gcPause / ownOps,
		"runtime.gc_cycles":    gcCycles / ownOps,
		"trace.overhead_ratio": median(traced) / median(append([]float64(nil), plain...)),
		"trace.replica_ratio":  median(plain) / median(direct),
		"fail_ratio":           float64(failed) / float64(attempted),
	}
	fmt.Fprintf(w, "%-28s %14s %-7s %s\n", "per-layer metric", "value", "unit", "source")
	for _, lm := range layerMetrics {
		v, src := resolve(lm, srcs, probe, run)
		res.Metrics[lm.name] = metric{v, lm.unit}
		fmt.Fprintf(w, "%-28s %14.4f %-7s %s\n", lm.name, v, lm.unit, src)
	}
	fmt.Fprintf(w, "self time per op, %s decomposed op (median over %d ops):\n", wl.name, own.op+1)
	for _, r := range own.ranked() {
		fmt.Fprintf(w, "  %-26s %10.4f ms\n", r.Name, r.MS)
	}
	if spanDir != "" {
		traces := map[string]*tracer{}
		for _, s := range srcs {
			traces[s.name] = s.t
		}
		header := map[string]string{"workload": wl.name, "seed": fmt.Sprint(seed), "host": host, "slab": ws}
		if err := writeSpans(spanDir, fmt.Sprintf("%s-seed%d.json", wl.name, seed), header, traces); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resolve computes one per-layer metric and names its source.
func resolve(lm layerMetric, srcs []namedTrace, probe, run map[string]float64) (float64, string) {
	switch {
	case lm.from == "probe":
		return probe[lm.name], "probe"
	case lm.from == "run":
		return run[lm.name], "run"
	}
	kind, key, _ := strings.Cut(lm.from, ":")
	for _, s := range srcs {
		var vals []float64
		switch kind {
		case "span":
			vals = s.t.perOp(key)
		case "dur":
			vals = s.t.durations(key)
		default:
			vals = s.t.countValues(key)
		}
		if len(vals) == 0 {
			continue
		}
		v := median(vals)
		switch lm.name {
		case "engine.dispatch_share":
			v /= median(s.t.opDurations())
		case "multigrid.ms_per_vcycle":
			v /= median(s.t.countValues("multigrid.vcycles"))
		}
		if lm.unit == "us" {
			v *= 1000
		}
		return v, "op of " + s.name
	}
	return 0, "unreached"
}

// probeReps is how many times each layer probe repeats; it reports the
// median.
const probeReps = 5

// probeLayers times single calls into the layers on the workload's
// rank-0 slab: the script, one document build (with its allocation),
// one Save and Load, one uncached check, both codegen pipelines (their
// allocation), a warm Node.Exec of the forward sweep, and one Restrict
// plus Prolong on a grid×grid×grid cube. It also returns the slab's
// computed per-rank working set as a report line.
func probeLayers(slab *jacobi.Problem, grid int) (map[string]float64, string, error) {
	cfg := benchConfig()
	inv, err := arch.NewInventory(cfg)
	if err != nil {
		return nil, "", err
	}
	samples := map[string][]float64{}
	timeIt := func(key string, scale float64, f func() error) error {
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("probe %s: %w", key, err)
		}
		samples[key] = append(samples[key], float64(time.Since(t0))/scale)
		return nil
	}
	var (
		doc      *diagram.Document
		commands int
		saved    []byte
		fwd      *microcode.Instr
	)
	var m0, m1 runtime.MemStats
	for i := 0; i < probeReps; i++ {
		if err := timeIt("jacobi.script_ms", 1e6, func() error { _ = slab.Script(); return nil }); err != nil {
			return nil, "", err
		}
		runtime.ReadMemStats(&m0)
		err := timeIt("build_ms", 1e6, func() error {
			d, ed, err := slab.BuildDocument(cfg)
			if err == nil {
				doc, commands = d, len(ed.Log)
			}
			return err
		})
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, "", err
		}
		samples["editor.alloc_mb"] = append(samples["editor.alloc_mb"], float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		if err := timeIt("diagram.save_ms", 1e6, func() error {
			var buf bytes.Buffer
			err := doc.Save(&buf)
			saved = buf.Bytes()
			return err
		}); err != nil {
			return nil, "", err
		}
		if err := timeIt("diagram.load_ms", 1e6, func() error {
			_, err := diagram.Load(bytes.NewReader(saved))
			return err
		}); err != nil {
			return nil, "", err
		}
		if err := timeIt("checker.check_ms", 1e6, func() error {
			if es := checker.Errors(checker.New(inv).CheckDocument(doc)); len(es) > 0 {
				return fmt.Errorf("%v", es[0])
			}
			return nil
		}); err != nil {
			return nil, "", err
		}
		gen := codegen.New(inv)
		runtime.ReadMemStats(&m0)
		in, _, err := gen.Pipeline(doc, doc.Pipes[0])
		if err == nil {
			_, _, err = gen.Pipeline(doc, doc.Pipes[1])
		}
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, "", err
		}
		samples["codegen.alloc_mb"] = append(samples["codegen.alloc_mb"], float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		fwd = in
		fine := make([]float64, grid*grid*grid)
		for c := range fine {
			fine[c] = math.Sin(float64(c))
		}
		nc := (grid-1)/2 + 1
		if err := timeIt("multigrid.transfer_us", 1e3, func() error {
			_ = multigrid.Prolong(multigrid.Restrict(fine, grid, nc), nc, grid)
			return nil
		}); err != nil {
			return nil, "", err
		}
	}
	node, err := sim.NewNode(cfg)
	if err != nil {
		return nil, "", err
	}
	if err := slab.Load(node); err != nil {
		return nil, "", err
	}
	if err := node.Exec(fwd); err != nil { // warm the plan cache
		return nil, "", err
	}
	for i := 0; i < 4*probeReps; i++ {
		if err := timeIt("sim.exec_us", 1e3, func() error { return node.Exec(fwd) }); err != nil {
			return nil, "", err
		}
	}
	out := map[string]float64{}
	for k, v := range samples {
		out[k] = median(v)
	}
	out["diagram.doc_bytes"] = float64(len(saved))
	out["editor.snapshot_share"] = float64(commands) * out["diagram.save_ms"] / out["build_ms"]
	return out, workingSet(slab, doc, cfg), nil
}

// workingSet describes a slab's computed per-rank working set: the sweep
// streams cells+N² elements, the four resident arrays (u and v with
// their drain, f, mask), and the kernel's lanes — one value and one
// validity flag per cycle for every distinct producer pad of the
// forward pipeline. Computed from sizes, not measured.
func workingSet(slab *jacobi.Problem, doc *diagram.Document, cfg arch.Config) string {
	nn := slab.N * slab.N
	cells := slab.Cells()
	stream := cells + nn
	arrays := (2*stream + 2*cells) * cfg.WordBytes
	producers := map[diagram.PadRef]bool{}
	for _, wr := range doc.Pipes[0].Wires {
		producers[wr.From] = true
	}
	lanes := len(producers) * stream * (cfg.WordBytes + 1)
	return fmt.Sprintf("per-rank working set (computed): stream %d words, arrays %d KiB, "+
		"kernel lanes ~%d KiB (%d producers x %d cycles x %d B)",
		stream, arrays>>10, lanes>>10, len(producers), stream, cfg.WordBytes+1)
}
