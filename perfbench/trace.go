package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced run. Spans nest: a span begun
// while another is open is its child. Start and End are host time since
// the tracer's origin; Sim, when set, is the simulated time the span
// advanced.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Sim    time.Duration `json:"sim_ns,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps a traced run's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	run    string
	origin time.Time
	spans  []span
	open   []int // stack of open span ids
}

func newTracer(run string) *tracer { return &tracer{run: run, origin: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.origin)
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// endSim closes span id and records the simulated time it advanced.
func (t *tracer) endSim(id int, d time.Duration) {
	if t == nil {
		return
	}
	t.end(id)
	t.spans[id].Sim = d
}

// durations returns the host durations of every span with the given name,
// in milliseconds, and the simulated seconds they covered.
func (t *tracer) durations(name string) (ms []float64, simS float64) {
	for _, s := range t.spans {
		if s.Name == name {
			ms = append(ms, float64(s.dur())/1e6)
			simS += s.Sim.Seconds()
		}
	}
	return ms, simS
}

// write saves the spans as JSON to dir/<run>.spans.json.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.run+".spans.json"), data, 0o644)
}
