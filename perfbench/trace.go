package main

import (
	"sort"
	"sync"
	"time"

	"picola/internal/obs"
)

// span is one timed interval of a traced run: a call into a layer, timed
// by the benchmark around a public entry point or reported by the core
// encoder through its Trace hook.
type span struct {
	Name string `json:"name"`
	// Inst is the instance's position in the pass; -1 for pass-level
	// spans (the fan-out, the store lifecycle).
	Inst int `json:"inst"`
	// Parent indexes the smallest enclosing span of the same instance in
	// the pass's span list; -1 for a root. Set by nest.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// coreStages maps the core encoder's trace stages to layer span names.
var coreStages = map[string]string{
	"restart":      "core.restart",
	"column":       "core.column",
	"polish":       "core.polish",
	"exact-polish": "core.exact_polish",
}

// recorder collects the spans of one instance (or of the pass itself) in
// memory. A nil *recorder records nothing, which is the untraced run.
type recorder struct {
	epoch time.Time
	inst  int

	mu    sync.Mutex
	spans []span
}

func newRecorder(epoch time.Time, inst int) *recorder {
	return &recorder{epoch: epoch, inst: inst}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span named name; the returned func closes it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	start := r.now()
	return func() { r.add(name, start, r.now()) }
}

func (r *recorder) add(name string, start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Inst: r.inst, Parent: -1, Start: start, End: end})
}

// Emit implements obs.Tracer. The core stamps a span's duration when it
// ends and emits it right after, so the span ends now and started its
// duration ago; plain events carry no interval and are dropped.
func (r *recorder) Emit(e obs.Event) {
	if e.Kind != obs.KindSpan {
		return
	}
	name, ok := coreStages[e.Stage]
	if !ok {
		name = "core." + e.Stage
	}
	end := r.now()
	r.add(name, end-int64(e.DurMS*1e6), end)
}

// tracer returns r as the core's Trace hook: a nil interface (tracing off
// and free) for the untraced run, never a typed nil pointer.
func (r *recorder) tracer() obs.Tracer {
	if r == nil {
		return nil
	}
	return r
}

// nestSlack absorbs the skew between a core span's reconstructed start
// and the benchmark's own clock reads around the enclosing call.
const nestSlack = int64(50 * time.Microsecond)

// nest sets each span's Parent to the shortest longer span of the same
// instance that contains it (within nestSlack). Equal-length spans nest
// by list order, so the relation is acyclic.
func nest(spans []span) {
	byInst := map[int][]int{}
	for i := range spans {
		spans[i].Parent = -1
		byInst[spans[i].Inst] = append(byInst[spans[i].Inst], i)
	}
	for _, idx := range byInst {
		for _, i := range idx {
			c := spans[i]
			for _, j := range idx {
				p := spans[j]
				if j == i || p.dur() < c.dur() || (p.dur() == c.dur() && j > i) {
					continue
				}
				if p.Start > c.Start+nestSlack || c.End > p.End+nestSlack {
					continue
				}
				if b := spans[i].Parent; b < 0 || p.dur() < spans[b].dur() {
					spans[i].Parent = j
				}
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Overlapping children are counted once; a child reaching outside its
// parent (within nestSlack) is clipped to it.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if a < b {
				iv = append(iv, [2]int64{a, b})
			}
		}
		self[i] = s.dur() - unionLen(iv)
	}
	return self
}

// unionLen is the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// regDelta is the change of the process-wide obs.Default registry across
// one pass: the registry is cumulative and shared, so only per-pass
// differences are attributable to the pass.
type regDelta struct{ before, after *obs.Snapshot }

func (d regDelta) count(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d regDelta) seconds(timer string) float64 {
	return float64(d.after.Timers[timer].TotalNS-d.before.Timers[timer].TotalNS) / 1e9
}
