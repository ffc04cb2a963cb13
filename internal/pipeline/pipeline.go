// Package pipeline owns the one path from a diagram document to
// validated microcode as a sequence of explicit, observable passes:
// check → codegen → validate. Each pass reports problems as typed
// diag.Diagnostic records, each run is timed per pass (Result.Passes
// and, when armed, the obs layer's "pipeline.pass.<name>" metrics),
// and whole compilations are memoized in a content-addressed Cache
// keyed by the machine configuration and the document — the same
// self-invalidating design as the simulator's decoded-instruction plan
// cache. Stencil source reaches the pipeline as a document built by
// compiler.CompileProgram.
//
// The passes are the stages checker.Checker.Check and
// codegen.Generator.Lower/Validate expose, composed without changing
// what they emit: a pipeline compile is bit-identical to calling the
// stages by hand. The check pass runs the checker once over the whole
// document, and the codegen pass lowers each referenced pipeline from
// the timing analysis the check built, without running the rules or
// the analysis again.
package pipeline

import (
	"time"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/diag"
	"repro/internal/diagram"
	"repro/internal/microcode"
	"repro/internal/obs"
)

// state is the working set a run threads through its passes: the
// document on top, pass products below. Each pass reads what earlier
// passes wrote.
type state struct {
	Doc *diagram.Document

	// Check product: every finding (warnings included) and each
	// pipeline's analysis, which the codegen pass lowers from.
	Diags diag.Diagnostics
	Ans   []*checker.Analysis
	// Codegen/validate product.
	Prog *microcode.Program
	Rep  *codegen.Report
}

// pass is one observable stage of a compilation: the stable name used
// in timings and the function that advances the state. A non-nil error
// aborts the run and is recorded as a diagnostic.
type pass struct {
	name string
	run  func(pl *Pipeline, st *state) error
}

// PassTiming is one pass's wall-clock cost within a run.
type PassTiming struct {
	Name     string
	Duration time.Duration
}

// Result is the outcome of one pipeline run.
type Result struct {
	// Prog is the validated microcode program.
	Prog *microcode.Program
	// Rep is the generator's report (hardware maps, fill cycles).
	Rep *codegen.Report
	// Diags collects every finding from every pass, warnings included.
	Diags diag.Diagnostics
	// Passes records per-pass wall-clock timings, in run order.
	Passes []PassTiming
	// CacheHit reports whether the run was served from the compile
	// cache (Passes then holds the timings of the compile that filled
	// it).
	CacheHit bool
}

// Pipeline orchestrates the passes over one machine description.
type Pipeline struct {
	Inv *arch.Inventory
	// Gen is the generator the codegen and validate passes run; the
	// check pass runs its checker, once per compile.
	Gen *codegen.Generator
	// Cache memoizes whole compilations by content address.
	Cache *Cache
	// Obs, when non-nil, routes pass runs and compile-cache probes into
	// the unified observability layer: a "pipeline.pass.<name>" counter
	// and ".us" wall-clock histogram per pass, one span per pass on
	// tracer shard 0, and "pipeline.cache.hit"/".miss" counters. Pass
	// timings are host wall time — unlike the engine's simulated-cycle
	// metrics they vary run to run, so differential comparisons exclude
	// the ".us" histograms.
	Obs *obs.Obs
}

// New returns a pipeline for the inventory with compile caching
// enabled and its own generator.
func New(inv *arch.Inventory) *Pipeline {
	return &Pipeline{Inv: inv, Gen: codegen.New(inv), Cache: NewCache()}
}

// run executes the passes in order, timing each and converting a pass
// failure into a diagnostic on the result.
func (pl *Pipeline) run(st *state) (*Result, error) {
	res := &Result{}
	var failed error
	var runTS int64 // span timeline: μs into this run
	for _, p := range passes {
		t0 := time.Now()
		err := p.run(pl, st)
		d := time.Since(t0)
		res.Passes = append(res.Passes, PassTiming{Name: p.name, Duration: d})
		if o := pl.Obs; o != nil {
			us := d.Microseconds()
			o.Inc("pipeline.pass." + p.name)
			o.Observe("pipeline.pass."+p.name+".us", us)
			o.Span(0, "pipeline", p.name, runTS, us, nil)
			runTS += us
		}
		if err != nil {
			if _, isCheck := err.(*codegen.CheckError); !isCheck {
				// Check failures already appended their findings; every
				// other pass error becomes one typed record.
				st.Diags = append(st.Diags, diag.AsDiagnostic(err, diag.RuleProgram))
			}
			failed = err
			break
		}
	}
	res.Prog = st.Prog
	res.Rep = st.Rep
	res.Diags = st.Diags
	return res, failed
}

// --- The passes ---

// passes is the pass list every compile runs.
var passes = []pass{
	{"check", (*Pipeline).check},
	{"codegen", (*Pipeline).lower},
	{"validate", (*Pipeline).validate},
}

func (pl *Pipeline) check(st *state) error {
	ds, ans := pl.Gen.Chk.Check(st.Doc)
	st.Diags = append(st.Diags, ds...)
	st.Ans = ans
	if es := checker.Errors(ds); len(es) > 0 {
		// The same error type direct codegen clients receive.
		return &codegen.CheckError{Diags: es}
	}
	return nil
}

func (pl *Pipeline) lower(st *state) error {
	prog, rep, err := pl.Gen.Lower(st.Doc, st.Ans)
	if err != nil {
		return err
	}
	rep.Warnings = st.Diags
	st.Prog = prog
	st.Rep = rep
	return nil
}

func (pl *Pipeline) validate(st *state) error {
	return pl.Gen.Validate(st.Prog)
}

// CompileDocument compiles a diagram document to validated microcode:
// check → codegen → validate, served from the compile cache when the
// same (config, document) was compiled before. The returned Result
// always carries the diagnostics; err is non-nil when a pass failed,
// and a failed compile is never cached.
func (pl *Pipeline) CompileDocument(doc *diagram.Document) (*Result, error) {
	key, err := documentCacheKey(pl.Inv.Cfg, doc)
	if err == nil {
		if res, ok := pl.Cache.lookup(key); ok {
			pl.Obs.Inc("pipeline.cache.hit")
			return res, nil
		}
		pl.Obs.Inc("pipeline.cache.miss")
	} else {
		key = "" // unhashable document: compile uncached
	}
	st := &state{Doc: doc}
	res, err := pl.run(st)
	if err == nil && key != "" {
		pl.Cache.store(key, res)
	}
	return res, err
}
