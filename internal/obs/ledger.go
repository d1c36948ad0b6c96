package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// LedgerSchema identifies the run-ledger JSON shape. The record layout
// is append-only: fields may be added under the same version, existing
// fields never change meaning, and a breaking change bumps the suffix.
const LedgerSchema = "picola-ledger/v1"

// parentStage returns the stage whose span encloses span e, or "" for a
// top-level span. The flat trace stream carries no span ids, so the
// nesting is static: column-generation spans and a variant's light
// estimate polish (a "polish" span named "light") run inside their
// variant's restart span; the winning variant's full polish ("full")
// runs after the portfolio, outside every restart. A stage's self wall
// is its cumulative wall minus the wall of the spans it encloses.
func parentStage(e Event) string {
	if e.Stage == "column" || e.Stage == "polish" && e.Name == "light" {
		return "restart"
	}
	return ""
}

// StageProfile is one stage's line in a ledger record's flat profile.
type StageProfile struct {
	Stage string `json:"stage"`
	// Spans is the number of span records, Events the number of non-span
	// events the stage emitted.
	Spans  int64 `json:"spans"`
	Events int64 `json:"events,omitempty"`
	// CumNS is the summed span wall; SelfNS subtracts the wall of the
	// spans nested in the stage's spans (clamped at 0: parallel children
	// can overlap their parent).
	CumNS  int64 `json:"cum_ns"`
	SelfNS int64 `json:"self_ns"`
}

// HistSummary is a histogram's deterministic percentile snapshot inside
// a ledger record (see HistStat.Quantile for the estimator).
type HistSummary struct {
	Count int64 `json:"count"`
	P50NS int64 `json:"p50_ns"`
	P90NS int64 `json:"p90_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
}

// CacheStats is the minimization memo-cache traffic of the run, read
// back from the eval.cache.* registry counters.
type CacheStats struct {
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Bypass     int64 `json:"bypass"`
	HitRatePct int64 `json:"hit_rate_pct"`
}

// LedgerRecord is the versioned per-run record the -ledger flag emits
// and the /runs ring retains: a per-stage flat profile aggregated from
// the trace spans, every registry timer, the latency-histogram
// percentiles, and the cache hit rates.
type LedgerRecord struct {
	Schema      string                 `json:"schema"`
	Command     string                 `json:"command"`
	StartUnixMS int64                  `json:"start_unix_ms"`
	WallNS      int64                  `json:"wall_ns"`
	Stages      []StageProfile         `json:"stages,omitempty"`
	Timers      map[string]TimerStat   `json:"timers,omitempty"`
	Histograms  map[string]HistSummary `json:"histograms,omitempty"`
	Cache       *CacheStats            `json:"cache,omitempty"`
}

// WriteJSON writes the record as indented JSON (deterministic for fixed
// values: map keys sort).
func (r *LedgerRecord) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// RunLedger aggregates one run's trace spans into the per-stage flat
// profile of a LedgerRecord. It implements Tracer: install it as the
// session's tracer (alone, or Tee'd with the -trace sink) so every span
// the pipeline emits is folded in, then Finalize at exit. All methods
// are safe for concurrent use.
type RunLedger struct {
	command string
	metrics *Metrics
	start   time.Time

	mu     sync.Mutex
	stages map[string]*stageAgg
	// nestedNS is the wall of the spans nested in each stage's spans
	// (parentStage).
	nestedNS map[string]int64
}

type stageAgg struct{ spans, events, cumNS int64 }

// NewRunLedger starts an empty ledger for one run of command; m is the
// registry Finalize snapshots (nil means Default).
func NewRunLedger(command string, m *Metrics) *RunLedger {
	if m == nil {
		m = Default
	}
	return &RunLedger{
		command:  command,
		metrics:  m,
		start:    time.Now(),
		stages:   map[string]*stageAgg{},
		nestedNS: map[string]int64{},
	}
}

// Emit implements Tracer: spans add a call and their wall to the stage's
// aggregate, and their wall to the enclosing stage's nested wall; plain
// events just count.
func (l *RunLedger) Emit(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	a := l.stages[e.Stage]
	if a == nil {
		a = &stageAgg{}
		l.stages[e.Stage] = a
	}
	if e.Kind == KindSpan {
		ns := int64(e.DurMS * 1e6)
		a.spans++
		a.cumNS += ns
		if parent := parentStage(e); parent != "" {
			l.nestedNS[parent] += ns
		}
	} else {
		a.events++
	}
}

// Finalize snapshots the ledger into its record: the stage profile in
// sorted stage order, plus the registry's timers, latency-histogram
// percentiles, and cache counters. The ledger stays usable (a server
// can finalize the same ledger repeatedly for a live view).
func (l *RunLedger) Finalize() *LedgerRecord {
	rec := l.snapshotStages()

	s := l.metrics.Snapshot()
	rec.Timers = s.Timers
	if len(s.Histograms) > 0 {
		rec.Histograms = make(map[string]HistSummary, len(s.Histograms))
		for k, h := range s.Histograms {
			rec.Histograms[k] = HistSummary{
				Count: h.Count,
				P50NS: h.Quantile(0.50),
				P90NS: h.Quantile(0.90),
				P99NS: h.Quantile(0.99),
				MaxNS: h.Max,
			}
		}
	}
	// The eval.cache.* names are registered by internal/eval; obs reads
	// them back by name to avoid an import cycle.
	hits, okH := s.Counters["eval.cache.hits"]
	misses, okM := s.Counters["eval.cache.misses"]
	if okH || okM {
		cs := &CacheStats{Hits: hits, Misses: misses, Bypass: s.Counters["eval.cache.bypass"]}
		if t := cs.Hits + cs.Misses; t > 0 {
			cs.HitRatePct = cs.Hits * 100 / t
		}
		rec.Cache = cs
	}
	return rec
}

// snapshotStages copies the mutable ledger state into a fresh record
// under the lock; the deferred unlock keeps the ledger usable even if a
// stage-name callback panics mid-snapshot.
func (l *RunLedger) snapshotStages() *LedgerRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := &LedgerRecord{
		Schema:      LedgerSchema,
		Command:     l.command,
		StartUnixMS: l.start.UnixMilli(),
		WallNS:      int64(time.Since(l.start)),
	}
	for _, stage := range sortedNames(l.stages) {
		a := l.stages[stage]
		self := a.cumNS - l.nestedNS[stage]
		if self < 0 {
			self = 0
		}
		rec.Stages = append(rec.Stages, StageProfile{
			Stage: stage, Spans: a.spans, Events: a.events,
			CumNS: a.cumNS, SelfNS: self,
		})
	}
	return rec
}

// RunRing is a bounded ring of recent ledger records: a long-lived
// process (the tables harness today, the encoding daemon later) appends
// each finished run and the introspection server's /runs endpoint
// serves the retained window, oldest first.
type RunRing struct {
	mu   sync.Mutex
	cap  int
	recs []*LedgerRecord
}

// Recent is the process-wide ring the observability sessions append to.
var Recent = NewRunRing(64)

// NewRunRing returns an empty ring retaining at most capacity records
// (a non-positive capacity is rounded up to 1).
func NewRunRing(capacity int) *RunRing {
	if capacity < 1 {
		capacity = 1
	}
	return &RunRing{cap: capacity}
}

// Add appends rec, evicting the oldest record beyond capacity.
func (r *RunRing) Add(rec *LedgerRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, rec)
	if len(r.recs) > r.cap {
		over := len(r.recs) - r.cap
		r.recs = append(r.recs[:0:0], r.recs[over:]...)
	}
}

// Records returns a copy of the retained records, oldest first.
func (r *RunRing) Records() []*LedgerRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*LedgerRecord(nil), r.recs...)
}
