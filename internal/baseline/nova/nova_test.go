package nova

import (
	"math/bits"
	"testing"

	"picola/internal/eval"
	"picola/internal/face"
)

func planesProblem() *face.Problem {
	// 8 symbols; constraints aligned with an achievable cube structure.
	p := &face.Problem{Names: make([]string, 8)}
	p.AddConstraint(face.FromMembers(8, 0, 1, 2, 3))
	p.AddConstraint(face.FromMembers(8, 4, 5, 6, 7))
	p.AddConstraint(face.FromMembers(8, 0, 1))
	p.AddConstraint(face.FromMembers(8, 6, 7))
	return p
}

func TestEncodeInjective(t *testing.T) {
	p := planesProblem()
	e, err := Encode(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.NV != 3 {
		t.Fatalf("NV = %d", e.NV)
	}
	if !e.Injective() {
		t.Fatalf("codes must stay distinct:\n%s", e)
	}
}

func TestEncodeSatisfiesEasyProblem(t *testing.T) {
	p := planesProblem()
	e, err := Encode(p, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sat := 0
	for _, c := range p.Constraints {
		if e.Satisfied(c) {
			sat++
		}
	}
	// All four constraints are simultaneously satisfiable; the annealer
	// should find at least three.
	if sat < 3 {
		t.Fatalf("satisfied %d of 4:\n%s", sat, e)
	}
}

func TestEncodeWithSpareCodes(t *testing.T) {
	// 5 symbols in B^3: 3 spare codes exercise the move-to-spare move.
	p := &face.Problem{Names: make([]string, 5)}
	p.AddConstraint(face.FromMembers(5, 0, 1))
	p.AddConstraint(face.FromMembers(5, 2, 3))
	e, err := Encode(p, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Injective() {
		t.Fatalf("codes must stay distinct:\n%s", e)
	}
	sat := 0
	for _, c := range p.Constraints {
		if e.Satisfied(c) {
			sat++
		}
	}
	if sat != 2 {
		t.Fatalf("satisfied %d of 2", sat)
	}
}

func TestIOHybridPairBonus(t *testing.T) {
	// No face constraints; only output pairs. IOHybrid should make the
	// paired symbols adjacent.
	p := &face.Problem{Names: make([]string, 4)}
	pairs := []Pair{{A: 0, B: 3, Weight: 5}}
	e, err := Encode(p, Options{Variant: IOHybrid, Seed: 2, OutputPairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Injective() {
		t.Fatal("codes must stay distinct")
	}
	d := bits.OnesCount64(e.Codes[0] ^ e.Codes[3])
	if d != 1 {
		t.Fatalf("pair distance = %d, want 1:\n%s", d, e)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	p := planesProblem()
	a, err := Encode(p, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(p, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for s := range a.Codes {
		if a.Codes[s] != b.Codes[s] {
			t.Fatal("same seed must give the same encoding")
		}
	}
}

func TestEvaluableOutput(t *testing.T) {
	p := planesProblem()
	e, err := Encode(p, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.Evaluate(p, e); err != nil {
		t.Fatal(err)
	}
}
