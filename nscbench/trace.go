package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a module, recorded by the benchmark's own
// code around the public function it calls.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-op counts in memory; they are written out
// when the run ends. A nil *tracer records nothing, so the same
// decomposed operation runs traced and untraced.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	op     int
	spans  []span
	counts []map[string]float64 // per op
	self   []time.Duration      // self times, computed once the run ends
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// beginOp starts a new operation; later spans and counts belong to it.
func (t *tracer) beginOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op++
	t.counts = append(t.counts, map[string]float64{})
	t.mu.Unlock()
}

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// since records a span under parent that starts where the parent's
// latest child ended (or where the parent started) and ends now: the
// host time between two callbacks of code the benchmark cannot wrap.
func (t *tracer) since(name string, parent int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.spans[parent].Start
	for i := len(t.spans) - 1; i > parent; i-- {
		if t.spans[i].Parent == parent {
			start = t.spans[i].End
			break
		}
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: start, End: now})
}

// add adds v to the current operation's count name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[t.op][name] += v
	t.mu.Unlock()
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval that its child spans cover. Children may overlap (the
// per-rank build runs on the worker pool), so the covered part is the
// union of their intervals.
func (t *tracer) selfTimes() []time.Duration {
	if len(t.self) == len(t.spans) {
		return t.self
	}
	kids := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			c := t.spans[k]
			ivs = append(ivs, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, reach int64
		reach = s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = time.Duration(s.End - s.Start - covered)
	}
	t.self = self
	return self
}

// perOp returns, for every operation holding at least one span called
// name, the summed self time of those spans in milliseconds.
func (t *tracer) perOp(name string) []float64 {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	byOp := map[int]float64{}
	for i, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] += ms(self[i])
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v)
	}
	return out
}

// durations returns, for every operation holding at least one span
// called name, the summed duration of those spans in milliseconds.
func (t *tracer) durations(name string) []float64 {
	byOp := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] += ms(time.Duration(s.End - s.Start))
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v)
	}
	return out
}

// opDurations returns the duration in milliseconds of every root span
// called "op": one decomposed operation each.
func (t *tracer) opDurations() []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == "op" && s.Parent < 0 {
			out = append(out, ms(time.Duration(s.End-s.Start)))
		}
	}
	return out
}

// countValues returns count name for every operation that recorded it.
func (t *tracer) countValues(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, c := range t.counts {
		if v, ok := c[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// selfRow is one line of the ranked self-time table.
type selfRow struct {
	Name string
	MS   float64 // median per-op self time
}

// ranked returns every span name inside the decomposed op with its
// median per-op self time, largest first. When the op has an "op" root
// span, other roots (the real op run beside it for comparison) are left
// out.
func (t *tracer) ranked() []selfRow {
	hasOp := len(t.opDurations()) > 0
	seen := map[string]bool{}
	var rows []selfRow
	for i, s := range t.spans {
		root := i
		for t.spans[root].Parent >= 0 {
			root = t.spans[root].Parent
		}
		if seen[s.Name] || hasOp && t.spans[root].Name != "op" {
			continue
		}
		seen[s.Name] = true
		rows = append(rows, selfRow{s.Name, median(t.perOp(s.Name))})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].MS > rows[b].MS })
	return rows
}

// writeSpans writes the run's spans and counts as JSON to dir/file.
func writeSpans(dir, file string, header map[string]string, traces map[string]*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type dump struct {
		Spans  []span               `json:"spans"`
		Counts []map[string]float64 `json:"counts"`
	}
	out := struct {
		Header map[string]string `json:"header"`
		Traces map[string]dump   `json:"traces"`
	}{header, map[string]dump{}}
	for k, t := range traces {
		out.Traces[k] = dump{t.spans, t.counts}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}
