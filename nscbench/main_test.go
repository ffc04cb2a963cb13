package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestInputsFollowSeed: the seed alone fixes every input — one seed
// gives byte-identical F/U0 arrays and command sequences, and two seeds
// differ.
func TestInputsFollowSeed(t *testing.T) {
	bits := func(in []jacobiInput) [][]uint64 {
		var out [][]uint64
		for _, p := range in {
			for _, a := range [][]float64{p.F, p.U0} {
				b := make([]uint64, len(a))
				for i, v := range a {
					b[i] = math.Float64bits(v)
				}
				out = append(out, b)
			}
		}
		return out
	}
	a, b, c := jacobiInputs(7, 8, 18, 12, 2), jacobiInputs(7, 8, 18, 12, 2), jacobiInputs(8, 8, 18, 12, 2)
	if !reflect.DeepEqual(bits(a), bits(b)) {
		t.Error("one seed gave different F/U0 arrays")
	}
	if reflect.DeepEqual(bits(a), bits(c)) {
		t.Error("two seeds gave the same F/U0 arrays")
	}

	script := a[0].problem().Script()
	s1, s2, s3 := editSessions(7, script, 4), editSessions(7, script, 4), editSessions(8, script, 4)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("one seed gave different edit sessions")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("two seeds gave the same edit sessions")
	}
	for _, s := range s1 {
		if len(s.Cmds) != len(s1[0].Cmds) {
			t.Errorf("sessions differ in length (%d vs %d): the op mix must not depend on the seed",
				len(s.Cmds), len(s1[0].Cmds))
		}
	}
}

// TestSelfTimeSubtractsChildUnion: a span's self time is its duration
// minus the union of its children's intervals, so overlapping children
// (the per-rank build on the worker pool) are not subtracted twice.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "a", Parent: 0, Start: 20, End: 50},
		{Name: "b", Parent: 0, Start: 60, End: 70},
	}}
	got := tr.selfTimes()
	want := []time.Duration{50, 30, 30, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestTracedRunFailsOnDivergence: a decomposed Jacobi op whose grid
// differs from SolveJacobi's by one bit must fail verification.
func TestTracedRunFailsOnDivergence(t *testing.T) {
	wl, _ := workloadByName("jacobi-cold")
	inst, err := wl.setup(1)
	if err != nil {
		t.Fatal(err)
	}
	j := inst.(*jacobiInst)
	j.decomposed(newTracer())
	if err := j.verify(newTracer()); err != nil {
		t.Fatalf("faithful replica rejected: %v", err)
	}
	j.decomposed(newTracer())
	j.last.U[len(j.last.U)/2] = math.Nextafter(j.last.U[len(j.last.U)/2], 2)
	if err := j.verify(newTracer()); err == nil {
		t.Fatal("a replica one ulp off SolveJacobi passed verification")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the reports must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryWorkloadReportsEveryMetric runs every workload briefly, timed
// and traced, and checks that every metric BENCHMARK.json names is
// reported with its unit and that no op failed.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			res, err := run(io.Discard, w.Name, 3, 0.3, traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d ops failed", w.Name, traced, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json names %d",
					w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: metric %s is %v", w.Name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, got.Value)
				}
			}
			if traced && res.Metrics["fail_ratio"].Value != 0 {
				t.Errorf("%s: fail_ratio %v", w.Name, res.Metrics["fail_ratio"].Value)
			}
		}
	}
}
