package obs

import (
	"encoding/json"
	"io"
	"os"
)

// This file renders the collected state as two standard artifacts: an
// expvar-style JSON metrics document (sorted keys, so runs can be
// diffed and golden-tested byte for byte) and a Chrome trace_event
// stream that chrome://tracing and Perfetto load directly.

// WriteMetricsJSON writes the registry as one indented JSON object:
// {"counters": {...}, "histograms": {name: {"count":
// n, "sum": s, "buckets": [{"le": bound, "n": count}, ...]}}}. Map
// keys are sorted by the encoder, so output is deterministic for
// deterministic metric values.
func WriteMetricsJSON(w io.Writer, r *Registry) error {
	var s Snapshot
	if r != nil {
		s = r.Snapshot()
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// chromeEvent is one trace_event record: "X" complete events with
// ts+dur, "i" instants. pid is always 0; tid is the tracer shard, so
// Perfetto renders each shard (worker/rank) as one track.
type chromeEvent struct {
	Name  string           `json:"name"`
	Cat   string           `json:"cat"`
	Phase string           `json:"ph"`
	TS    int64            `json:"ts"`
	Dur   *int64           `json:"dur,omitempty"`
	PID   int              `json:"pid"`
	TID   int              `json:"tid"`
	Scope string           `json:"s,omitempty"`
	Cause string           `json:"cause,omitempty"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// WriteChromeTrace writes every retained span as a Chrome trace_event
// JSON document: {"traceEvents": [...], "displayTimeUnit": "ms"}.
// Span timestamps pass through unscaled — simulated cycles display as
// microseconds, which preserves every ratio the timeline is read for.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	if _, err := io.WriteString(w, "{\"traceEvents\": [\n"); err != nil {
		return err
	}
	wroteAny := false
	if t != nil {
		for tid := range t.shards {
			s := &t.shards[tid]
			s.mu.Lock()
			var spans []Span
			if s.total <= int64(t.cap) {
				spans = append(spans, s.ring...)
			} else {
				head := int(s.total % int64(t.cap))
				spans = append(append(spans, s.ring[head:]...), s.ring[:head]...)
			}
			s.mu.Unlock()
			for _, sp := range spans {
				ev := chromeEvent{
					Name: sp.Name, Cat: sp.Cat, TS: sp.TS,
					TID: tid, Cause: sp.Cause, Args: sp.Args,
				}
				if sp.Dur > 0 {
					d := sp.Dur
					ev.Phase, ev.Dur = "X", &d
				} else {
					ev.Phase, ev.Scope = "i", "t"
				}
				b, err := json.Marshal(ev)
				if err != nil {
					return err
				}
				if wroteAny {
					if _, err := io.WriteString(w, ",\n"); err != nil {
						return err
					}
				}
				wroteAny = true
				if _, err := w.Write(b); err != nil {
					return err
				}
			}
		}
	}
	_, err := io.WriteString(w, "\n], \"displayTimeUnit\": \"ms\"}\n")
	return err
}

// WriteFiles renders the layer's artifacts to the named paths — the
// metrics JSON and/or the Chrome trace, as the CLI -metrics-json and
// -trace-out flags expose them. An empty path skips that artifact; "-"
// writes to stdout (the supplied writer). A nil handle writes nothing.
func (o *Obs) WriteFiles(stdout io.Writer, metricsPath, tracePath string) error {
	if o == nil {
		return nil
	}
	write := func(path string, render func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		if path == "-" {
			return render(stdout)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(metricsPath, func(w io.Writer) error { return WriteMetricsJSON(w, o.Reg) }); err != nil {
		return err
	}
	return write(tracePath, func(w io.Writer) error { return WriteChromeTrace(w, o.Tr) })
}
