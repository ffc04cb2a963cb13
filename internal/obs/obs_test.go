package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

// TestNilObsIsSafe: the disabled state is a nil handle; every method
// must no-op without panicking — this is the zero-overhead off switch
// every instrumented hot path relies on.
func TestNilObsIsSafe(t *testing.T) {
	var o *Obs
	if o.Enabled() {
		t.Fatal("nil Obs reports enabled")
	}
	o.Inc("x")
	o.Add("x", 3)
	o.Observe("h", 42)
	o.Span(0, "cat", "name", 0, 10, nil)
	o.Event(0, "cat", "name", 0, "cause", nil)
}

func TestRegistryCountersHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("runs")
	c.Inc()
	c.Add(4)
	if got := r.Counter("runs").Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	h := r.Histogram("cycles")
	for _, v := range []int64{0, 1, 1, 100, 2000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 2102 {
		t.Errorf("hist count=%d sum=%d, want 5/2102", h.Count(), h.Sum())
	}
	snap := r.Snapshot()
	hs := snap.Histograms["cycles"]
	if hs.Count != 5 || hs.Sum != 2102 {
		t.Errorf("snapshot hist = %+v", hs)
	}
	// 0 → bucket le=0; 1,1 → le=1; 100 → le=127; 2000 → le=2047.
	want := []HistBucket{{0, 1}, {1, 2}, {127, 1}, {2047, 1}}
	if len(hs.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", hs.Buckets, want)
	}
	for i, b := range want {
		if hs.Buckets[i] != b {
			t.Errorf("bucket %d = %v, want %v", i, hs.Buckets[i], b)
		}
	}
	// The top bucket must not overflow.
	h.Observe(math.MaxInt64)
	for _, b := range r.Snapshot().Histograms["cycles"].Buckets {
		if b.Le < 0 {
			t.Errorf("negative bucket bound %d", b.Le)
		}
	}

	names := r.Names()
	if len(names) != 2 || names[0] != "cycles" || names[1] != "runs" {
		t.Errorf("names = %v", names)
	}
}

// TestRegistryTotalsDeterministic: concurrent updates from many
// goroutines must land on exactly the same totals — the property the
// differential harness turns into a cross-worker oracle.
func TestRegistryTotalsDeterministic(t *testing.T) {
	run := func(workers int) map[string]int64 {
		r := NewRegistry()
		var wg sync.WaitGroup
		per := 1000
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					r.Counter("ops").Inc()
					r.Histogram("work").Observe(int64(i))
				}
			}()
		}
		wg.Wait()
		return r.Totals()
	}
	a, b := run(1), run(8)
	// Scale the single-worker totals to 8 workers' worth.
	for k, v := range a {
		a[k] = v * 8
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("totals diverge across worker counts:\n1w×8: %v\n8w:  %v", a, b)
	}
	if b["counter/ops"] != 8000 || b["hist/work.count"] != 8000 {
		t.Errorf("totals = %v", b)
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(2, 16)
	if tr.Shards() != 2 {
		t.Fatalf("shards = %d", tr.Shards())
	}
	for i := 0; i < 40; i++ {
		tr.Emit(0, Span{Name: fmt.Sprintf("s%d", i), TS: int64(i), Dur: 1})
	}
	tr.Emit(1, Span{Name: "other", TS: 0})
	spans := tr.Spans()
	if len(spans) != 17 { // 16 retained on shard 0 + 1 on shard 1
		t.Fatalf("retained %d spans, want 17", len(spans))
	}
	// Shard 0 keeps the newest 16 in emission order.
	if spans[0].Name != "s24" || spans[15].Name != "s39" {
		t.Errorf("ring order: first=%s last=%s", spans[0].Name, spans[15].Name)
	}
	if tr.Dropped() != 24 {
		t.Errorf("dropped = %d, want 24", tr.Dropped())
	}
	if tr.Total() != 41 {
		t.Errorf("total = %d, want 41", tr.Total())
	}
	// Out-of-range shards wrap instead of panicking.
	tr.Emit(7, Span{Name: "wrapped"})
	tr.Emit(-1, Span{Name: "negative"})
}

func TestMetricsJSONDeterministicAndParseable(t *testing.T) {
	o := New()
	o.Inc("b.count")
	o.Inc("a.count")
	o.Observe("lat", 5)
	var w1, w2 bytes.Buffer
	if err := WriteMetricsJSON(&w1, o.Reg); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsJSON(&w2, o.Reg); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w2.String() {
		t.Error("metrics JSON is not byte-stable across writes")
	}
	var doc struct {
		Counters   map[string]int64        `json:"counters"`
		Histograms map[string]HistSnapshot `json:"histograms"`
	}
	if err := json.Unmarshal(w1.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, w1.String())
	}
	if doc.Counters["a.count"] != 1 || doc.Histograms["lat"].Sum != 5 {
		t.Errorf("decoded: %+v", doc)
	}
	// a.count must serialize before b.count (sorted keys).
	if strings.Index(w1.String(), "a.count") > strings.Index(w1.String(), "b.count") {
		t.Error("keys not sorted")
	}
	// Nil registry still writes valid JSON.
	var w3 bytes.Buffer
	if err := WriteMetricsJSON(&w3, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(w3.Bytes()) {
		t.Errorf("nil-registry output invalid: %s", w3.String())
	}
}

func TestChromeTraceFormat(t *testing.T) {
	o := NewWith(2, 64)
	o.Span(0, "engine", "dispatch", 100, 50, map[string]int64{"sweep": 3})
	o.Event(1, "sim", "trap", 120, "div-zero", nil)
	var w bytes.Buffer
	if err := WriteChromeTrace(&w, o.Tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(w.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, w.String())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %v", doc.TraceEvents)
	}
	x := doc.TraceEvents[0]
	if x["ph"] != "X" || x["name"] != "dispatch" || x["dur"] != float64(50) || x["tid"] != float64(0) {
		t.Errorf("complete event = %v", x)
	}
	i := doc.TraceEvents[1]
	if i["ph"] != "i" || i["s"] != "t" || i["cause"] != "div-zero" || i["tid"] != float64(1) {
		t.Errorf("instant event = %v", i)
	}
	// Empty tracer still emits a loadable document.
	var w2 bytes.Buffer
	if err := WriteChromeTrace(&w2, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(w2.Bytes()) {
		t.Errorf("empty trace invalid: %s", w2.String())
	}
}

// TestObsHandleRoutes: the convenience methods land on the right
// metric kinds and the tracer.
func TestObsHandleRoutes(t *testing.T) {
	o := New()
	if !o.Enabled() {
		t.Fatal("enabled Obs reports disabled")
	}
	o.Inc("c")
	o.Add("c", 2)
	o.Observe("h", 8)
	o.Span(3, "cat", "sp", 1, 2, nil)
	tot := o.Reg.Totals()
	if tot["counter/c"] != 3 || tot["hist/h.sum"] != 8 {
		t.Errorf("totals = %v", tot)
	}
	if o.Tr.Total() != 1 {
		t.Errorf("tracer total = %d", o.Tr.Total())
	}
}

// TestNewTracerClampsGeometry: degenerate shard/ring requests clamp to
// workable minimums instead of failing or allocating nothing.
func TestNewTracerClampsGeometry(t *testing.T) {
	tr := NewTracer(0, 1)
	if tr.Shards() != 1 {
		t.Errorf("shards = %d, want 1", tr.Shards())
	}
	if tr.cap != 16 {
		t.Errorf("ring cap = %d, want 16", tr.cap)
	}
}

// TestWriteFiles: the CLI export helper — nil handle and empty paths
// are no-ops, "-" renders to the supplied writer, real paths create
// files, and an uncreatable path surfaces its error.
func TestWriteFiles(t *testing.T) {
	var o *Obs
	if err := o.WriteFiles(nil, "-", "-"); err != nil {
		t.Fatalf("nil handle: %v", err)
	}
	o = New()
	o.Inc("k")
	o.Span(0, "c", "n", 0, 5, nil)
	if err := o.WriteFiles(nil, "", ""); err != nil {
		t.Fatalf("empty paths: %v", err)
	}
	var buf bytes.Buffer
	if err := o.WriteFiles(&buf, "-", "-"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "\"k\": 1") || !strings.Contains(out, "traceEvents") {
		t.Fatalf("stdout output missing artifacts:\n%s", out)
	}
	dir := t.TempDir()
	mPath, tPath := dir+"/m.json", dir+"/t.json"
	if err := o.WriteFiles(nil, mPath, tPath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &metrics); err != nil {
		t.Fatalf("metrics file is not JSON: %v", err)
	}
	if metrics.Counters["k"] != 1 {
		t.Fatalf("metrics file counters = %v", metrics.Counters)
	}
	if raw, err = os.ReadFile(tPath); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(trace.TraceEvents) != 1 {
		t.Fatalf("trace file has %d events, want 1", len(trace.TraceEvents))
	}
	if err := o.WriteFiles(nil, dir+"/no/such/dir/m.json", ""); err == nil {
		t.Fatal("uncreatable metrics path did not error")
	}
	if err := o.WriteFiles(nil, "", dir+"/no/such/dir/t.json"); err == nil {
		t.Fatal("uncreatable trace path did not error")
	}
}
