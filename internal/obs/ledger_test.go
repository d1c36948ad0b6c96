package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// span emits one span event of durNS into l.
func span(l *RunLedger, stage string, durNS int64) {
	namedSpan(l, stage, stage, durNS)
}

// namedSpan emits one span event of durNS with the given name into l.
func namedSpan(l *RunLedger, stage, name string, durNS int64) {
	l.Emit(Event{Kind: KindSpan, Stage: stage, Name: name, DurMS: float64(durNS) / 1e6})
}

func TestRunLedgerAggregatesSpans(t *testing.T) {
	m := NewMetrics()
	l := NewRunLedger("testcmd", m)
	span(l, "restart", 100e6)
	span(l, "restart", 100e6)
	span(l, "column", 30e6)
	namedSpan(l, "polish", "light", 20e6)
	l.Emit(Event{Kind: KindEvent, Stage: "select", Name: "winner"})
	rec := l.Finalize()

	if rec.Schema != LedgerSchema || rec.Command != "testcmd" {
		t.Fatalf("header = %q %q", rec.Schema, rec.Command)
	}
	byStage := map[string]StageProfile{}
	for _, st := range rec.Stages {
		byStage[st.Stage] = st
	}
	if got := byStage["restart"]; got.Spans != 2 || got.CumNS != 200e6 {
		t.Errorf("restart = %+v, want 2 spans, 200ms cum", got)
	}
	// column and the light polish run inside restart: restart's self
	// wall subtracts their cumulative wall.
	if got := byStage["restart"].SelfNS; got != 150e6 {
		t.Errorf("restart self = %d, want 150ms", got)
	}
	// Leaves own their whole wall.
	if got := byStage["column"]; got.SelfNS != got.CumNS || got.CumNS != 30e6 {
		t.Errorf("column = %+v, want self == cum == 30ms", got)
	}
	if got := byStage["select"]; got.Events != 1 || got.Spans != 0 {
		t.Errorf("select = %+v, want 1 event, 0 spans", got)
	}
	// Stage order is sorted, so records marshal deterministically.
	for i := 1; i < len(rec.Stages); i++ {
		if rec.Stages[i-1].Stage >= rec.Stages[i].Stage {
			t.Fatalf("stages not sorted: %v", rec.Stages)
		}
	}
}

// TestRunLedgerFullPolishOutsideRestart: the winning variant's full
// polish runs after the portfolio, outside every restart span, so its
// wall is not subtracted from restart's self wall; a variant's light
// polish is.
func TestRunLedgerFullPolishOutsideRestart(t *testing.T) {
	l := NewRunLedger("x", NewMetrics())
	span(l, "restart", 100e6)
	namedSpan(l, "polish", "light", 10e6)
	namedSpan(l, "polish", "full", 40e6)
	rec := l.Finalize()
	byStage := map[string]StageProfile{}
	for _, st := range rec.Stages {
		byStage[st.Stage] = st
	}
	if got := byStage["restart"].SelfNS; got != 90e6 {
		t.Errorf("restart self = %d, want 90ms: only the light polish nests in it", got)
	}
	if got := byStage["polish"]; got.Spans != 2 || got.CumNS != 50e6 || got.SelfNS != 50e6 {
		t.Errorf("polish = %+v, want 2 spans, 50ms cum and self", got)
	}
}

// TestRunLedgerSelfClamped: parallel children can overlap their parent's
// wall, so self never goes negative.
func TestRunLedgerSelfClamped(t *testing.T) {
	l := NewRunLedger("x", NewMetrics())
	span(l, "restart", 10e6)
	span(l, "column", 40e6) // four parallel variants' columns exceed the wall
	rec := l.Finalize()
	for _, st := range rec.Stages {
		if st.Stage == "restart" && st.SelfNS != 0 {
			t.Errorf("restart self = %d, want clamped 0", st.SelfNS)
		}
	}
}

func TestRunLedgerSnapshotsRegistry(t *testing.T) {
	m := NewMetrics()
	l := NewRunLedger("x", m)
	m.Timer("stage.alpha").Observe(5 * time.Millisecond)
	m.LatencyHistogram("alpha_ns").Observe(int64(2 * time.Microsecond))
	m.Counter("eval.cache.hits").Add(3)
	m.Counter("eval.cache.misses").Add(1)
	rec := l.Finalize()
	if ts := rec.Timers["stage.alpha"]; ts.Count != 1 || ts.TotalNS != 5e6 {
		t.Errorf("timer = %+v", ts)
	}
	hs, ok := rec.Histograms["alpha_ns"]
	if !ok || hs.Count != 1 || hs.P50NS != 1<<12 || hs.MaxNS != 2000 {
		t.Errorf("histogram = %+v (ok=%v)", hs, ok)
	}
	if rec.Cache == nil || rec.Cache.Hits != 3 || rec.Cache.HitRatePct != 75 {
		t.Errorf("cache = %+v, want 3 hits at 75%%", rec.Cache)
	}
}

func TestRunLedgerNoCacheCountersMeansNoCacheBlock(t *testing.T) {
	rec := NewRunLedger("x", NewMetrics()).Finalize()
	if rec.Cache != nil {
		t.Errorf("cache = %+v, want nil when the counters were never registered", rec.Cache)
	}
}

func TestLedgerWriteJSONRoundTrip(t *testing.T) {
	m := NewMetrics()
	l := NewRunLedger("roundtrip", m)
	span(l, "restart", 7e6)
	var buf bytes.Buffer
	if err := l.Finalize().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back LedgerRecord
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != LedgerSchema || back.Command != "roundtrip" ||
		len(back.Stages) != 1 || back.Stages[0].CumNS != 7e6 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestRunLedgerConcurrentEmit(t *testing.T) {
	l := NewRunLedger("x", NewMetrics())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				span(l, "restart", 1e6)
			}
		}()
	}
	wg.Wait()
	rec := l.Finalize()
	if rec.Stages[0].Spans != 8000 || rec.Stages[0].CumNS != 8000e6 {
		t.Errorf("concurrent aggregate = %+v", rec.Stages[0])
	}
}

func TestRunRingEvictsOldestFirst(t *testing.T) {
	r := NewRunRing(3)
	for i := 0; i < 5; i++ {
		r.Add(&LedgerRecord{Command: fmt.Sprintf("run%d", i)})
	}
	recs := r.Records()
	if len(recs) != 3 {
		t.Fatalf("len = %d, want capacity 3", len(recs))
	}
	for i, want := range []string{"run2", "run3", "run4"} {
		if recs[i].Command != want {
			t.Errorf("recs[%d] = %q, want %q (oldest first)", i, recs[i].Command, want)
		}
	}
	// Records returns a copy: mutating it must not affect the ring.
	recs[0] = nil
	if r.Records()[0] == nil {
		t.Error("Records aliases the ring's backing slice")
	}
}

func TestRunRingMinimumCapacity(t *testing.T) {
	r := NewRunRing(0)
	r.Add(&LedgerRecord{Command: "a"})
	r.Add(&LedgerRecord{Command: "b"})
	recs := r.Records()
	if len(recs) != 1 || recs[0].Command != "b" {
		t.Errorf("zero-capacity ring = %+v, want just the newest record", recs)
	}
}

// TestTeeFansOut: Tee drops nils and a single live tracer is returned
// unwrapped (the nil-tracer fast path must stay allocation-free).
func TestTeeFansOut(t *testing.T) {
	if Tee(nil, nil) != nil {
		t.Error("Tee of nils should be nil")
	}
	a, b := &Recorder{}, &Recorder{}
	if got := Tee(nil, a); got != Tracer(a) {
		t.Error("single live tracer should be returned unwrapped")
	}
	tee := Tee(a, nil, b)
	Emit(tee, Event{Kind: KindEvent, Stage: "s", Name: "n"})
	if len(a.ByStage("s")) != 1 || len(b.ByStage("s")) != 1 {
		t.Errorf("fan-out: a=%d b=%d events, want 1 each", len(a.ByStage("s")), len(b.ByStage("s")))
	}
}
