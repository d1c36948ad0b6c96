// Package obs is the repo's dependency-light observability layer:
// structured tracing (Tracer, JSONL and text sinks), a metrics registry
// (counters, gauges, timers, fixed-bucket histograms — all atomic), and
// profiling hooks for the commands.
//
// The design is nil-safe throughout: a nil Tracer is the no-op tracer, and
// every instrumented package guards event construction behind the nil
// check, so untraced runs pay nothing. Metrics are always on — they are
// single atomic adds cached in package-level variables, cheap enough for
// the hot paths they count.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one structured trace record. Spans carry a duration; plain
// events do not. Attrs hold the stage-specific quantities (indices,
// scores, cost deltas); the sink stamps TMS when the event is emitted.
type Event struct {
	// TMS is milliseconds since the sink was created (stamped by the sink).
	TMS float64 `json:"t_ms"`
	// Kind is "span" (has DurMS) or "event".
	Kind string `json:"kind"`
	// Stage is the pipeline stage: restart, column, classify, guide,
	// polish, exact-polish, select, ...
	Stage string `json:"stage"`
	// Name refines the stage (e.g. the classify verdict).
	Name string `json:"name,omitempty"`
	// DurMS is the span duration in milliseconds.
	DurMS float64 `json:"dur_ms,omitempty"`
	// Attrs are the stage-specific quantities.
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// Span and event kinds.
const (
	KindSpan  = "span"
	KindEvent = "event"
)

// Tracer receives structured events. Implementations must be safe for
// concurrent use; a nil Tracer means tracing is off. Emit must not retain
// e.Attrs after returning — hot emitters reuse a pooled map between
// events — so an implementation that stores events (rather than
// serializing them in place) must copy the map.
type Tracer interface {
	Emit(e Event)
}

// Emit forwards e to t when t is non-nil. It is the nil-safe entry point:
// the no-op path performs no allocation (callers building Attrs maps
// should still guard the construction behind their own nil check).
func Emit(t Tracer, e Event) {
	if t != nil {
		t.Emit(e)
	}
}

// MS converts a duration to the milliseconds float the trace records use.
func MS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Tee fans events out to every non-nil tracer. It collapses trivially:
// nil when none remain (tracing stays off and free), the tracer itself
// when exactly one remains (no indirection on the emit path).
func Tee(ts ...Tracer) Tracer {
	var live multiTracer
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// multiTracer is Tee's fan-out sink; elements are non-nil by construction.
type multiTracer []Tracer

// Emit implements Tracer.
func (m multiTracer) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// JSONL is a Tracer writing one JSON object per line.
type JSONL struct {
	mu    sync.Mutex
	w     *bufio.Writer
	start time.Time
}

// NewJSONL returns a JSONL tracer over w. Call Flush when done.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w), start: time.Now()}
}

// Emit implements Tracer.
func (s *JSONL) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.TMS = MS(time.Since(s.start))
	b, err := json.Marshal(e)
	if err != nil {
		return // events are fixed-shape; marshal cannot fail in practice
	}
	s.w.Write(b)
	s.w.WriteByte('\n')
}

// Flush drains the buffered writer.
func (s *JSONL) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Text is a Tracer writing human-oriented lines, one per event.
type Text struct {
	mu    sync.Mutex
	w     *bufio.Writer
	start time.Time
}

// NewText returns a text tracer over w. Call Flush when done.
func NewText(w io.Writer) *Text {
	return &Text{w: bufio.NewWriter(w), start: time.Now()}
}

// Emit implements Tracer.
func (s *Text) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(s.w, "%10.3fms %-5s %-12s", MS(time.Since(s.start)), e.Kind, e.Stage)
	if e.Name != "" {
		fmt.Fprintf(s.w, " %-12s", e.Name)
	}
	if e.Kind == KindSpan {
		fmt.Fprintf(s.w, " dur=%.3fms", e.DurMS)
	}
	keys := make([]string, 0, len(e.Attrs))
	for k := range e.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := e.Attrs[k]
		if v == float64(int64(v)) {
			fmt.Fprintf(s.w, " %s=%d", k, int64(v))
		} else {
			fmt.Fprintf(s.w, " %s=%g", k, v)
		}
	}
	s.w.WriteByte('\n')
}

// Flush drains the buffered writer.
func (s *Text) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// Recorder is a Tracer storing events in memory, for tests.
type Recorder struct {
	mu     sync.Mutex
	Events []Event
}

// Emit implements Tracer. The Attrs map is copied: stored events must
// survive the emitter reusing a pooled map (the Tracer contract).
func (r *Recorder) Emit(e Event) {
	if len(e.Attrs) > 0 {
		a := make(map[string]float64, len(e.Attrs))
		for k, v := range e.Attrs {
			a[k] = v
		}
		e.Attrs = a
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Events = append(r.Events, e)
}

// ByStage returns the recorded events of one stage, in emission order.
//
//lint:ignore deadexport event filter of core's TestTracedRun* and obs's trace and ledger tests
func (r *Recorder) ByStage(stage string) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.Events {
		if e.Stage == stage {
			out = append(out, e)
		}
	}
	return out
}
