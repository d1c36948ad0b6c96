package core

import (
	"testing"

	"picola/internal/face"
	"picola/internal/obs"
)

// tracedProblem is infeasible-heavy: 9 members of 15 symbols need a dim-4
// cube — the whole minimum-length space — so classification fires and a
// guide-constraint is substituted, exercising every trace stage.
func tracedProblem() *face.Problem {
	n := 15
	p := &face.Problem{Names: make([]string, n)}
	big := face.NewConstraint(n)
	for s := 0; s < 9; s++ {
		big.Add(s)
	}
	p.AddConstraint(big)
	p.AddConstraint(face.FromMembers(n, 0, 1))
	p.AddConstraint(face.FromMembers(n, 3, 4, 5))
	return p
}

func TestTracedRunEmitsRestartSpanPerVariant(t *testing.T) {
	p := tracedProblem()
	for _, restarts := range []int{1, 2, 4} {
		rec := &obs.Recorder{}
		if _, err := Encode(p, Options{Restarts: restarts, Trace: rec}); err != nil {
			t.Fatal(err)
		}
		spans := rec.ByStage("restart")
		if len(spans) != restarts {
			t.Fatalf("restarts=%d: got %d restart spans, want %d", restarts, len(spans), restarts)
		}
		for i, e := range spans {
			if e.Kind != obs.KindSpan {
				t.Errorf("restart record %d has kind %q, want span", i, e.Kind)
			}
			if got := e.Attrs["variant"]; got != float64(i) {
				t.Errorf("restart span %d has variant %v", i, got)
			}
		}
	}
}

func TestTracedRunCoversPipelineStages(t *testing.T) {
	p := tracedProblem()
	rec := &obs.Recorder{}
	r, err := Encode(p, Options{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Every restart generates nv columns.
	nv := p.MinLength()
	if cols := rec.ByStage("column"); len(cols) != 4*nv {
		t.Errorf("got %d column spans, want %d", len(cols), 4*nv)
	}
	infeasible := 0
	for _, e := range rec.ByStage("classify") {
		if e.Name == "infeasible" {
			infeasible++
		}
	}
	if infeasible == 0 {
		t.Error("no classify/infeasible events despite an infeasible constraint")
	}
	if len(rec.ByStage("guide")) == 0 {
		t.Error("no guide substitution events")
	}
	if len(rec.ByStage("polish")) == 0 {
		t.Error("no polish spans")
	}
	// The run ledger nests a variant's light polish in its restart span
	// and the winner's full polish in none, by the span name.
	for _, e := range rec.ByStage("polish") {
		if e.Name != "light" && e.Name != "full" {
			t.Errorf("polish span named %q, want light or full", e.Name)
		}
	}
	if len(rec.ByStage("exact-polish")) == 0 {
		t.Error("no exact-polish span")
	}
	winners := rec.ByStage("select")
	if len(winners) != 1 {
		t.Fatalf("got %d select events, want 1", len(winners))
	}
	if !r.Infeasible[0] {
		t.Error("the 9-member constraint should be infeasible")
	}
}

// A traced run must return the same encoding as an untraced one: tracing
// observes, never steers.
func TestTracingDoesNotChangeResult(t *testing.T) {
	p := tracedProblem()
	plain, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Encode(p, Options{Trace: &obs.Recorder{}})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < p.N(); s++ {
		if plain.Encoding.Codes[s] != traced.Encoding.Codes[s] {
			t.Fatalf("symbol %d: traced code %d != untraced %d",
				s, traced.Encoding.Codes[s], plain.Encoding.Codes[s])
		}
	}
}

func TestEncodeCountsColumns(t *testing.T) {
	mColumns := obs.Default.Counter("core.columns")
	before := mColumns.Value()
	p := tracedProblem()
	if _, err := Encode(p, Options{Restarts: 2}); err != nil {
		t.Fatal(err)
	}
	want := int64(2 * p.MinLength())
	if got := mColumns.Value() - before; got != want {
		t.Fatalf("core.columns advanced by %d, want %d", got, want)
	}
}
