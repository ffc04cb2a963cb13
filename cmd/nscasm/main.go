// Command nscasm is the microcode generator as a standalone tool: it
// reads a semantic document (nsced's JSON output), runs the compilation
// pipeline (check → codegen → validate), and assembles executable NSC
// microcode.
//
// Usage:
//
//	nscasm [-subset] -in doc.json [-o prog.nscm] [-dis] [-stats] [-diag-json]
//
// -diag-json emits every diagnostic the pipeline produced — stable rule
// code, severity, pipeline, icon, source span, message, fix hint — as a
// JSON object on stdout, for editors and CI to consume. The exit code
// still distinguishes success (0) from refused generation (1).
//
// -stats prints per-pipeline elaboration statistics, per-pass timings
// and the compile-cache counters.
//
// -metrics-json and -trace-out arm the unified observability layer on
// the compilation: pass counters and wall-clock histograms plus one
// span per pass, written after the run as sorted metrics JSON and as a
// Chrome trace_event file (chrome://tracing, Perfetto). Either flag
// takes "-" for stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/arch"
	"repro/internal/checker"
	"repro/internal/diag"
	"repro/internal/diagram"
	"repro/internal/microcode"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nscasm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	subset := fs.Bool("subset", false, "use the simplified architectural subset model")
	in := fs.String("in", "", "semantic document (JSON) to assemble")
	asm := fs.String("asm", "", "textual microassembler listing to assemble instead")
	out := fs.String("o", "", "write the microcode program to this file")
	dis := fs.Bool("dis", false, "print the disassembly of the generated program")
	stats := fs.Bool("stats", false, "print elaboration statistics, pass timings and cache counters")
	diagJSON := fs.Bool("diag-json", false, "emit pipeline diagnostics as JSON on stdout")
	metricsJSON := fs.String("metrics-json", "", "write the compile's metrics registry as JSON to this file (- = stdout)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event file of the passes (- = stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *in == "" && *asm == "" {
		fmt.Fprintln(stderr, "usage: nscasm -in doc.json | -asm listing.txt [-o prog.nscm] [-dis] [-stats] [-diag-json]")
		return 2
	}
	cfg := arch.Default()
	if *subset {
		cfg = arch.Subset()
	}
	inv, err := arch.NewInventory(cfg)
	if err != nil {
		return fatal(stderr, err)
	}
	pl := pipeline.New(inv)
	var o *obs.Obs
	if *metricsJSON != "" || *traceOut != "" {
		o = obs.New()
		pl.Obs = o
	}

	var prog *microcode.Program
	if *asm != "" {
		// Hand-written textual microcode: the §6 baseline workflow.
		f, err := os.Open(*asm)
		if err != nil {
			return fatal(stderr, err)
		}
		prog, err = pl.Gen.F.AssembleProgram(f)
		f.Close()
		if err != nil {
			return fatal(stderr, err)
		}
		if err := prog.Validate(); err != nil {
			return fatal(stderr, err)
		}
	} else {
		f, err := os.Open(*in)
		if err != nil {
			return fatal(stderr, err)
		}
		doc, err := diagram.Load(f)
		f.Close()
		if err != nil {
			return fatal(stderr, fmt.Errorf("%s: %w", diag.AsDiagnostic(err, diag.RuleDocIO).Rule, err))
		}
		res, cerr := pl.CompileDocument(doc)
		if *diagJSON {
			if err := writeDiagJSON(stdout, res.Diags); err != nil {
				return fatal(stderr, err)
			}
		}
		if cerr != nil {
			fmt.Fprintln(stderr, "nscasm:", cerr)
			return 1
		}
		for _, w := range res.Rep.Warnings {
			fmt.Fprintln(stderr, "warning:", w)
		}
		if *stats {
			for _, pi := range res.Rep.Pipes {
				fmt.Fprintf(stdout, "pipeline %d: vector=%d fill=%d cycles FUs=%d flops/elem=%d\n",
					pi.Pipe, pi.VectorLen, pi.FillCycles, pi.FUsUsed, pi.FLOPsPerElement)
			}
			for _, pt := range res.Passes {
				fmt.Fprintf(stdout, "pass %-14s %v\n", pt.Name, pt.Duration)
			}
			cs := pl.Cache.Stats()
			fmt.Fprintf(stdout, "compile cache: %d hit(s) %d miss(es) %d entrie(s)\n",
				cs.Hits, cs.Misses, cs.Entries)
		}
		prog = res.Prog
	}
	fmt.Fprintf(stderr, "nscasm: %d instruction(s), %d bits each (%d fields)\n",
		prog.Len(), pl.Gen.F.Bits, pl.Gen.F.NumFields())
	if *dis {
		fmt.Fprint(stdout, prog.Disassemble())
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fatal(stderr, err)
		}
		if _, err := prog.WriteTo(f); err != nil {
			return fatal(stderr, err)
		}
		if err := f.Close(); err != nil {
			return fatal(stderr, err)
		}
	}
	if err := o.WriteFiles(stdout, *metricsJSON, *traceOut); err != nil {
		return fatal(stderr, err)
	}
	return 0
}

// writeDiagJSON renders the machine-readable diagnostics report: a
// stable envelope around the typed records ("code", "severity",
// "pipe", "icon", optional "span" and "hint").
func writeDiagJSON(w io.Writer, ds diag.Diagnostics) error {
	if ds == nil {
		ds = diag.Diagnostics{}
	}
	errs := len(checker.Errors(ds))
	report := struct {
		Diagnostics diag.Diagnostics `json:"diagnostics"`
		Errors      int              `json:"errors"`
		Warnings    int              `json:"warnings"`
	}{ds, errs, len(ds) - errs}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "nscasm:", err)
	return 1
}
