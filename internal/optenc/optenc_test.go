package optenc

import (
	"math/rand"
	"testing"

	"picola/internal/baseline/nova"
	"picola/internal/core"
	"picola/internal/face"
)

func TestOptimalSimple(t *testing.T) {
	// 4 symbols in B^2 with one pair constraint: trivially satisfiable,
	// optimum = 2 constraints × 1 cube.
	p := &face.Problem{Names: make([]string, 4)}
	p.AddConstraint(face.FromMembers(4, 0, 1))
	p.AddConstraint(face.FromMembers(4, 2, 3))
	r, err := Optimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cubes != 2 || r.Satisfied != 2 {
		t.Fatalf("optimal = %+v", r)
	}
	if !r.Encoding.Injective() {
		t.Fatal("codes must be distinct")
	}
}

func TestOptimalConflicting(t *testing.T) {
	// 4 symbols in B^2: {0,1}, {1,2}, {2,3}, {3,0} — a 4-cycle of pair
	// constraints. In B^2 all four pairs can be edges of the square, so
	// everything is satisfiable with a Gray-code layout: optimum 4.
	p := &face.Problem{Names: make([]string, 4)}
	p.AddConstraint(face.FromMembers(4, 0, 1))
	p.AddConstraint(face.FromMembers(4, 1, 2))
	p.AddConstraint(face.FromMembers(4, 2, 3))
	p.AddConstraint(face.FromMembers(4, 3, 0))
	r, err := Optimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cubes != 4 || r.Satisfied != 4 {
		t.Fatalf("optimal = %+v (a Gray layout satisfies the 4-cycle)", r)
	}
	// Adding a diagonal makes full satisfaction impossible: the diagonal
	// of a square spans the whole space, intruding on the others.
	p.AddConstraint(face.FromMembers(4, 0, 2))
	r2, err := Optimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Satisfied == 5 {
		t.Fatal("a square cannot satisfy all four edges and a diagonal")
	}
	if r2.Cubes < 6 {
		t.Fatalf("five constraints with one violated cost at least 6, got %d", r2.Cubes)
	}
}

func TestOptimalRejectsLarge(t *testing.T) {
	p := &face.Problem{Names: make([]string, MaxSymbols+1)}
	if _, err := Optimal(p); err == nil {
		t.Fatal("oversized problem must be rejected")
	}
}

func randomSmallProblem(r *rand.Rand) *face.Problem {
	n := 4 + r.Intn(3) // 4..6
	p := &face.Problem{Names: make([]string, n)}
	for k := 0; k < 2+r.Intn(3); k++ {
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if r.Intn(3) == 0 {
				c.Add(s)
			}
		}
		p.AddConstraint(c)
	}
	return p
}

// TestHeuristicsNeverBeatOptimal is the central validation: on random
// small problems, PICOLA's and NOVA's exact costs are lower-bounded by
// the exhaustive optimum, and PICOLA stays within a small gap.
func TestHeuristicsNeverBeatOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	totalOpt, totalPic := 0, 0
	for trial := 0; trial < 15; trial++ {
		p := randomSmallProblem(r)
		if len(p.Constraints) == 0 {
			continue
		}
		opt, err := Optimal(p)
		if err != nil {
			t.Fatal(err)
		}
		pic, err := core.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		picCost, err := exactCost(p, pic.Encoding)
		if err != nil {
			t.Fatal(err)
		}
		if picCost < opt.Cubes {
			t.Fatalf("PICOLA %d beat the exhaustive optimum %d — the optimum is wrong", picCost, opt.Cubes)
		}
		nov, err := nova.Encode(p, nova.Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		novCost, err := exactCost(p, nov)
		if err != nil {
			t.Fatal(err)
		}
		if novCost < opt.Cubes {
			t.Fatalf("NOVA %d beat the exhaustive optimum %d", novCost, opt.Cubes)
		}
		totalOpt += opt.Cubes
		totalPic += picCost
	}
	// PICOLA should track the optimum closely on toy problems.
	if totalPic > totalOpt*13/10 {
		t.Fatalf("PICOLA total %d is more than 30%% above the optimum total %d", totalPic, totalOpt)
	}
}

func TestOptimalDeterministic(t *testing.T) {
	p := &face.Problem{Names: make([]string, 5)}
	p.AddConstraint(face.FromMembers(5, 0, 1, 2))
	p.AddConstraint(face.FromMembers(5, 2, 3))
	a, err := Optimal(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cubes != b.Cubes || a.Evaluated != b.Evaluated {
		t.Fatal("exhaustive search must be deterministic")
	}
	for s := range a.Encoding.Codes {
		if a.Encoding.Codes[s] != b.Encoding.Codes[s] {
			t.Fatal("encodings differ across runs")
		}
	}
}
