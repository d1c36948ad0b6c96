package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// ReadEvents parses a JSONL trace stream back into events (blank lines are
// skipped): the inverse of the JSONL sink.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return nil, fmt.Errorf("obs: bad trace line %q: %w", line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// The nil-tracer path is the default for every encoder run; it must cost
// nothing.
func TestEmitNilAllocatesNothing(t *testing.T) {
	e := Event{Kind: KindEvent, Stage: "column", Name: "x"}
	allocs := testing.AllocsPerRun(1000, func() {
		Emit(nil, e)
	})
	if allocs != 0 {
		t.Fatalf("Emit(nil, ...) allocates %v times per call, want 0", allocs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	want := []Event{
		{Kind: KindSpan, Stage: "restart", DurMS: 1.5,
			Attrs: map[string]float64{"variant": 2, "score": 31}},
		{Kind: KindEvent, Stage: "classify", Name: "infeasible",
			Attrs: map[string]float64{"row": 4, "col": 1}},
		{Kind: KindEvent, Stage: "guide"},
	}
	for _, e := range want {
		s.Emit(e)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].TMS < 0 {
			t.Errorf("event %d: negative timestamp %v", i, got[i].TMS)
		}
		got[i].TMS = 0
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("expected an error on malformed trace input")
	}
}

func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewText(&buf)
	s.Emit(Event{Kind: KindSpan, Stage: "polish", DurMS: 2.25,
		Attrs: map[string]float64{"delta": -3, "passes": 2}})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	for _, want := range []string{"span", "polish", "dur=2.250ms", "delta=-3", "passes=2"} {
		if !strings.Contains(line, want) {
			t.Errorf("text line %q missing %q", line, want)
		}
	}
}

func TestRecorderByStage(t *testing.T) {
	r := &Recorder{}
	r.Emit(Event{Kind: KindEvent, Stage: "a"})
	r.Emit(Event{Kind: KindEvent, Stage: "b"})
	r.Emit(Event{Kind: KindEvent, Stage: "a", Name: "second"})
	got := r.ByStage("a")
	if len(got) != 2 || got[1].Name != "second" {
		t.Fatalf("ByStage returned %+v", got)
	}
}
