package verify_test

import (
	"os"
	"path/filepath"
	"testing"

	"picola/internal/baseline/enc"
	"picola/internal/baseline/nova"
	"picola/internal/benchgen"
	"picola/internal/consfile"
	"picola/internal/core"
	"picola/internal/face"
	"picola/internal/optenc"
	"picola/internal/symbolic"
	"picola/internal/verify"
)

func load(t *testing.T, name string) *face.Problem {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	p, err := consfile.ParseString(string(data))
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return p
}

// heuristicEncoders runs each baseline at minimum code length. Order is
// fixed so subtests are deterministic.
var heuristicEncoders = []struct {
	name   string
	encode func(p *face.Problem) (*face.Encoding, error)
}{
	{"picola", func(p *face.Problem) (*face.Encoding, error) {
		r, err := core.Encode(p)
		if err != nil {
			return nil, err
		}
		return r.Encoding, nil
	}},
	{"nova", func(p *face.Problem) (*face.Encoding, error) {
		return nova.Encode(p, nova.Options{Seed: 1})
	}},
	{"enc", func(p *face.Problem) (*face.Encoding, error) {
		r, err := enc.Encode(p, enc.Options{Seed: 1})
		if err != nil {
			return nil, err
		}
		return r.Encoding, nil
	}},
}

// checkAll runs the whole oracle stack on one (problem, encoding) pair.
func checkAll(t *testing.T, p *face.Problem, e *face.Encoding, minLen bool) {
	t.Helper()
	rep := verify.Audit(p, e, nil, verify.Options{RequireMinLength: minLen})
	rep.Merge(verify.CheckMetamorphic(p, e, 7))
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckEncodingTestdata(t *testing.T) {
	for _, file := range []string{"figure1.cons", "infeasible.cons"} {
		p := load(t, file)
		for _, enc := range heuristicEncoders {
			t.Run(file+"/"+enc.name, func(t *testing.T) {
				e, err := enc.encode(p)
				if err != nil {
					t.Fatalf("%s: %v", enc.name, err)
				}
				checkAll(t, p, e, true)
			})
		}
	}
}

func TestCheckResultPicola(t *testing.T) {
	for _, file := range []string{"figure1.cons", "infeasible.cons"} {
		p := load(t, file)
		r, err := core.Encode(p)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if err := verify.CheckResult(p, r).Err(); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
	}
}

// TestTableIAllEncoders is the acceptance gate: every Table I instance,
// encoded by all four encoders (PICOLA, NOVA, ENC, and the exhaustive
// optimum where it is in range), must pass the validity oracle with zero
// disagreements.
func TestTableIAllEncoders(t *testing.T) {
	specs := benchgen.Table1Specs()
	if testing.Short() {
		specs = specs[:4]
	}
	for _, s := range specs {
		p, _, err := symbolic.ExtractConstraints(benchgen.Generate(s))
		if err != nil {
			t.Fatalf("%s: extract constraints: %v", s.Name, err)
		}
		if p.N() < 2 {
			continue
		}
		for _, enc := range heuristicEncoders {
			t.Run(s.Name+"/"+enc.name, func(t *testing.T) {
				e, err := enc.encode(p)
				if err != nil {
					t.Fatalf("%s: %v", enc.name, err)
				}
				if err := verify.CheckEncoding(p, e, verify.Options{RequireMinLength: true}).Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if p.N() <= optenc.MaxSymbols {
			t.Run(s.Name+"/optenc", func(t *testing.T) {
				r, err := optenc.Optimal(p)
				if err != nil {
					t.Fatalf("optenc: %v", err)
				}
				if err := verify.CheckEncoding(p, r.Encoding, verify.Options{RequireMinLength: true}).Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMetamorphicBenchgenInstances is the acceptance gate for the
// metamorphic properties: on 50 random benchgen instances, every
// heuristic encoder's output must have invariant cube counts under
// symbol/column/constraint transformations.
func TestMetamorphicBenchgenInstances(t *testing.T) {
	count := 50
	if testing.Short() {
		count = 10
	}
	for seed := int64(0); seed < int64(count); seed++ {
		p := benchgen.RandomProblem(seed, 10)
		for _, enc := range heuristicEncoders {
			e, err := enc.encode(p)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, enc.name, err)
			}
			if err := verify.CheckMetamorphic(p, e, seed).Err(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, enc.name, err)
			}
		}
	}
}

// corrupt returns the PICOLA encoding of p with symbol 1's code
// overwritten by symbol 0's — no longer injective, so the oracle must
// reject it.
func corrupt(p *face.Problem) *face.Encoding {
	r, err := core.Encode(p)
	if err != nil {
		return nil
	}
	e := r.Encoding.Clone()
	e.Codes[1] = e.Codes[0]
	return e
}

func TestCheckEncodingRejectsCorruption(t *testing.T) {
	p := load(t, "figure1.cons")
	rep := verify.CheckEncoding(p, corrupt(p))
	if rep.Ok() {
		t.Fatal("oracle accepted an encoding with duplicate codes")
	}
	found := false
	for _, f := range rep.Failures {
		if f.Check == "distinct" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no distinct-codes failure in: %v", rep.Err())
	}

	// The failure shrinks to a minimal instance that still reproduces it,
	// and the repro replays through the consfile round trip.
	fails := func(q *face.Problem) bool {
		e := corrupt(q)
		return e != nil && !verify.CheckEncoding(q, e).Ok()
	}
	shrunk := verify.Shrink(p, fails, 0)
	if !fails(shrunk) {
		t.Fatal("shrunk instance no longer fails")
	}
	if shrunk.N() >= p.N() {
		t.Fatalf("shrinker kept %d symbols, input had %d", shrunk.N(), p.N())
	}
	back, err := consfile.ParseString(verify.Repro(shrunk))
	if err != nil {
		t.Fatalf("repro does not parse: %v\n%s", err, verify.Repro(shrunk))
	}
	if back.N() != shrunk.N() || len(back.Constraints) != len(shrunk.Constraints) {
		t.Fatal("repro round trip changed the instance")
	}
}

func TestCheckEncodingStructural(t *testing.T) {
	p := load(t, "figure1.cons")
	if verify.CheckEncoding(p, nil).Ok() {
		t.Fatal("nil encoding accepted")
	}
	short := face.NewEncoding(p.N(), p.MinLength()-1)
	if verify.CheckEncoding(p, short).Ok() {
		t.Fatal("under-width encoding accepted")
	}
	wide := face.NewEncoding(p.N(), p.MinLength()+1)
	for s := 0; s < p.N(); s++ {
		wide.Codes[s] = uint64(s)
	}
	if rep := verify.CheckEncoding(p, wide, verify.Options{RequireMinLength: true}); rep.Ok() {
		t.Fatal("RequireMinLength accepted an over-length encoding")
	}
	if err := verify.CheckEncoding(p, wide).Err(); err != nil {
		t.Fatalf("over-length encoding without RequireMinLength: %v", err)
	}
	stray := face.NewEncoding(2, 1)
	stray.Codes[0], stray.Codes[1] = 0, 3 // bit 1 is beyond column 0
	two := &face.Problem{Names: []string{"a", "b"}}
	if verify.CheckEncoding(two, stray).Ok() {
		t.Fatal("code with stray high bits accepted")
	}
}

func TestCheckResultRejectsTampering(t *testing.T) {
	p := load(t, "infeasible.cons")
	r, err := core.Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckResult(p, r).Err(); err != nil {
		t.Fatalf("untampered result rejected: %v", err)
	}
	r.Satisfied[0] = !r.Satisfied[0]
	r.Infeasible[0] = !r.Infeasible[0]
	if verify.CheckResult(p, r).Ok() {
		t.Fatal("tampered verdict accepted")
	}
	r.Satisfied[0] = !r.Satisfied[0]
	r.Infeasible[0] = !r.Infeasible[0]
	for i := range r.TheoremICubes {
		r.TheoremICubes[i]++
	}
	if verify.CheckResult(p, r).Ok() {
		t.Fatal("tampered Theorem I counts accepted")
	}
}
