// Command nscbench is the repository's whole-solve benchmark. It runs
// one named workload as a closed loop with one client for a fixed wall
// time, checks every operation's output against an oracle outside the
// timed interval, and prints every end-to-end metric by name and unit.
// With -trace 1 it instead runs the workload's operation decomposed
// into spans around the calls into each module and prints the per-layer
// ledger. The last line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": 212, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from source first:
//
//	bash nscbench/run.sh --workload jacobi-cold --seed 1 --seconds 10 --trace 0
//
// LEDGER.md lists every metric, its unit and module, and the end-to-end
// metric and workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of the measured loop in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the timed loop")
	out := flag.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	res, err := run(os.Stdout, *name, *seed, *seconds, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nscbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nscbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark invocation, writing the human-readable
// report to w, and returns the result line. spanDir, when non-empty,
// receives the traced run's spans as JSON.
func run(w io.Writer, name string, seed int64, seconds float64, traced bool, spanDir string) (*result, error) {
	wl, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	host := hostFacts()
	fmt.Fprintf(w, "workload %s seed %d: %s\n", wl.name, seed, wl.why)
	fmt.Fprintf(w, "host: %s\n", host)
	if traced {
		return runTraced(w, wl, seed, seconds, host, spanDir)
	}
	return runTimed(w, wl, seed, seconds)
}
