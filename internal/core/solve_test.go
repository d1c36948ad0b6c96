package core

import (
	"context"
	"math/rand"
	"testing"

	"picola/internal/face"
)

// TestSolveMaintainsClassCapacity: after every generated column, each
// class of symbols sharing a partial code must fit in the remaining code
// space — the invariant that guarantees a final injective encoding.
func TestSolveMaintainsClassCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(20)
		p := &face.Problem{Names: make([]string, n)}
		for k := 0; k < 1+r.Intn(6); k++ {
			c := face.NewConstraint(n)
			for s := 0; s < n; s++ {
				if r.Intn(3) == 0 {
					c.Add(s)
				}
			}
			p.AddConstraint(c)
		}
		nv := p.MinLength()
		e, err := encodeOnce(context.Background(), p, Options{DisablePolish: true}.withDefaults(), nv, guideWeight, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= nv; j++ {
			classes := map[uint64]int{}
			mask := uint64(1)<<uint(j) - 1
			for s := 0; s < n; s++ {
				classes[e.enc.Codes[s]&mask]++
			}
			cap := 1 << uint(nv-j)
			for code, size := range classes {
				if size > cap {
					t.Fatalf("n=%d nv=%d: after column %d class %b has %d members, cap %d",
						n, nv, j, code, size, cap)
				}
			}
		}
	}
}

// TestClassifyImmediateInfeasible: a constraint whose member count needs
// the whole code space while outsiders exist is flagged infeasible before
// the first column.
func TestClassifyImmediateInfeasible(t *testing.T) {
	p := &face.Problem{Names: make([]string, 10)} // nv = 4
	big := face.NewConstraint(10)
	for s := 0; s < 9; s++ { // needs dim 4 = everything
		big.Add(s)
	}
	p.AddConstraint(big)
	res, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Infeasible[0] {
		t.Fatal("9-of-10 members in B^4 must be infeasible")
	}
}

// TestGuideTracksOnlyOriginalMembers: a guide-constraint's dichotomies
// oppose the original constraint's members (the Theorem I condition), not
// the whole universe.
func TestGuideTracksOnlyOriginalMembers(t *testing.T) {
	// 9 members among 11 symbols need dim 4 — the whole space of B^4 —
	// with two outsiders, so the constraint is infeasible immediately and
	// its guide is the two-intruder set. (A single intruder would not
	// spawn a guide: a 0-cube is already disjoint from the members.)
	p := &face.Problem{Names: make([]string, 11)}
	big := face.NewConstraint(11)
	for s := 0; s < 9; s++ {
		big.Add(s)
	}
	p.AddConstraint(big)
	e, err := encodeOnce(context.Background(), p, Options{}.withDefaults(), p.MinLength(), guideWeight, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.rows) <= e.nOri {
		t.Fatal("an infeasible constraint must spawn a guide row")
	}
	g := e.rows[e.nOri]
	if g.depth == 0 {
		t.Fatal("appended row must be a guide")
	}
	for s := 0; s < 11; s++ {
		if g.outsiders.Has(s) && !big.Has(s) {
			t.Fatalf("guide tracks non-member %d as outsider", s)
		}
	}
}

// TestReclassifyConsistency: after polish rewrites codes, the rebuilt
// diagnostics agree with a direct satisfaction check.
func TestReclassifyConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(223))
	for trial := 0; trial < 20; trial++ {
		n := 4 + r.Intn(12)
		p := &face.Problem{Names: make([]string, n)}
		for k := 0; k < 2+r.Intn(4); k++ {
			c := face.NewConstraint(n)
			for s := 0; s < n; s++ {
				if r.Intn(3) == 0 {
					c.Add(s)
				}
			}
			p.AddConstraint(c)
		}
		res, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range p.Constraints {
			if res.Satisfied[i] != res.Encoding.Satisfied(c) {
				t.Fatalf("constraint %d: reported %v, actual %v",
					i, res.Satisfied[i], res.Encoding.Satisfied(c))
			}
		}
	}
}

// TestColumnCostFavorsNearCompletion: with one dichotomy left, satisfying
// it outweighs a fresh constraint's first dichotomy of equal weight.
func TestColumnCostFavorsNearCompletion(t *testing.T) {
	p := &face.Problem{Names: make([]string, 6)}
	p.Constraints = []face.Constraint{
		face.FromMembers(6, 0, 1),
		face.FromMembers(6, 2, 3),
	}
	e := &encoder{p: p, n: 6, nv: 3, enc: face.NewEncoding(6, 3)}
	a := newTracked(p.Constraints[0], 0, 1)
	b := newTracked(p.Constraints[1], 0, 1)
	// Constraint a has a single unsatisfied dichotomy left (vs symbol 4);
	// b still has all four.
	a.unsat = face.FromMembers(6, 4)
	e.rows = []*tracked{a, b}
	e.collectUnsat()
	// A column putting {0,1} on one side and 4 on the other completes a:
	// weight 1/1. The same column satisfies at most 4 of b's dichotomies:
	// weight ≤ 1. Check a completing column scores at least 1.
	col := face.FromMembers(6, 0, 1) // members of a at 1, symbol 4 at 0
	if got := e.newColScorer(col).cost(); got < 1 {
		t.Fatalf("completing column scores %v", got)
	}
}
