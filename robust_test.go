package picola

import (
	"context"
	"testing"

	"picola/internal/core"
	"picola/internal/face"
)

// TestEncodeEmptyConstraint runs every algorithm on a problem carrying a
// constraint with no member — picola-ir/v1 accepts one — and requires a
// valid encoding that implements that constraint with no cube. The
// other constraint is satisfiable at the minimum length, so "all" must
// stop there, and core's own verdicts must agree with face's.
func TestEncodeEmptyConstraint(t *testing.T) {
	p := &Problem{Name: "empty", Names: []string{"a", "b", "c", "d", "e"},
		Constraints: []Constraint{face.FromMembers(5, 0, 1), face.NewConstraint(5)}}
	b, err := MarshalProblem(p)
	if err != nil {
		t.Fatal(err)
	}
	if p, err = UnmarshalProblem(b); err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		t.Run(algo, func(t *testing.T) {
			res, err := Encode(context.Background(), p, Options{Algorithm: algo, Workers: 1, Evaluate: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Encoding.Injective() {
				t.Fatalf("codes not distinct:\n%s", res.Encoding)
			}
			if !res.Satisfied[1] || res.Cost.Cubes[1] != 0 {
				t.Fatalf("empty constraint: satisfied %v, %d cubes; want satisfied with 0 cubes",
					res.Satisfied[1], res.Cost.Cubes[1])
			}
			if res.Encoding.NV != p.MinLength() {
				t.Fatalf("%d bits, want the minimum %d", res.Encoding.NV, p.MinLength())
			}
		})
	}
	for name, encode := range map[string]func(*face.Problem, ...core.Options) (*core.Result, error){
		"Encode": core.Encode, "EncodeAll": core.EncodeAll,
	} {
		r, err := encode(p, core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range p.Constraints {
			if r.Satisfied[i] != r.Encoding.Satisfied(c) || r.Infeasible[i] == r.Satisfied[i] {
				t.Errorf("core.%s constraint %d: Satisfied %v, Infeasible %v; face says satisfied %v",
					name, i, r.Satisfied[i], r.Infeasible[i], r.Encoding.Satisfied(c))
			}
		}
	}
}

// TestEncodeRejectsBadCodeLength asks every algorithm for a code length
// below zero, one bit short of the minimum and one bit past 64. An
// algorithm that takes a length must return an error; "all" and
// "optimal", which choose their own, must return a valid encoding.
func TestEncodeRejectsBadCodeLength(t *testing.T) {
	p := &Problem{Name: "five", Names: []string{"a", "b", "c", "d", "e"}}
	p.AddConstraint(face.FromMembers(5, 0, 1, 2))
	p.AddConstraint(face.FromMembers(5, 3, 4))
	ownLength := map[string]bool{"all": true, "optimal": true}
	for _, algo := range Algorithms() {
		for _, nv := range []int{-1, p.MinLength() - 1, 65} {
			res, err := Encode(context.Background(), p, Options{Algorithm: algo, NV: nv, Workers: 1})
			switch {
			case !ownLength[algo] && err == nil:
				t.Errorf("%s, NV %d: got an encoding, want an error", algo, nv)
			case ownLength[algo] && err != nil:
				t.Errorf("%s, NV %d: %v", algo, nv, err)
			case ownLength[algo] && (res.Encoding.NV < p.MinLength() || !res.Encoding.Injective()):
				t.Errorf("%s, NV %d: invalid encoding:\n%s", algo, nv, res.Encoding)
			}
		}
	}
}
