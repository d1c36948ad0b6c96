package core

import (
	"math/rand"
	"testing"

	"picola/internal/eval"
	"picola/internal/face"
)

// estimateCubes is the espresso-free cost surrogate the polish pass
// minimizes, for one constraint: 1 for a satisfied constraint, and
// otherwise the better of the Theorem I count (when the intruders span a
// cube disjoint from the members) and a recursive-split upper bound:
// split the members on a disagreeing code column chosen to isolate
// intruders, and sum the halves.
func estimateCubes(enc *face.Encoding, c face.Constraint) int {
	cm := newCostModel(enc, []face.Constraint{c})
	k := cm.estimate(0)
	cm.flush()
	return k
}

// TestEstimateBounds: the estimate is an achievable cover size, so it is
// at least 1 and never exceeds the member count (the split recursion
// bottoms out at one cube per member).
func TestEstimateBounds(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 500; trial++ {
		n := 3 + r.Intn(16)
		nv := 0
		for (1 << nv) < n {
			nv++
		}
		e := face.NewEncoding(n, nv)
		perm := r.Perm(1 << uint(nv))
		for s := 0; s < n; s++ {
			e.Codes[s] = uint64(perm[s])
		}
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if r.Intn(3) == 0 {
				c.Add(s)
			}
		}
		if c.Count() < 2 || c.Count() >= n {
			continue
		}
		k := estimateCubes(e, c)
		if k < 1 || k > c.Count() {
			t.Fatalf("estimate %d out of [1,%d]", k, c.Count())
		}
		if (k == 1) != e.Satisfied(c) {
			t.Fatalf("estimate 1 iff satisfied: k=%d satisfied=%v", k, e.Satisfied(c))
		}
	}
}

// TestEstimateIsAchievable: the estimate corresponds to a concrete legal
// cover, so the minimized cube count should not exceed it. espresso is
// itself heuristic and occasionally lands one cube above the optimum, so
// a small number of one-off excesses is tolerated; anything larger is a
// genuine estimator bug.
func TestEstimateIsAchievable(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	excesses := 0
	for trial := 0; trial < 120; trial++ {
		n := 4 + r.Intn(10)
		nv := 0
		for (1 << nv) < n {
			nv++
		}
		e := face.NewEncoding(n, nv)
		perm := r.Perm(1 << uint(nv))
		for s := 0; s < n; s++ {
			e.Codes[s] = uint64(perm[s])
		}
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if r.Intn(3) == 0 {
				c.Add(s)
			}
		}
		if c.Count() < 2 || c.Count() >= n {
			continue
		}
		est := estimateCubes(e, c)
		exact, err := (*eval.Cache)(nil).ConstraintCubes(e, c)
		if err != nil {
			t.Fatal(err)
		}
		if exact > est+1 {
			t.Fatalf("espresso %d > estimate+1 %d (estimate must be achievable)", exact, est)
		}
		if exact > est {
			excesses++
		}
	}
	if excesses > 4 {
		t.Fatalf("%d instances exceeded the estimate; espresso misses should be rare", excesses)
	}
}

// TestCostModelMatchesWrapper: the cached model and the one-shot wrapper
// agree.
func TestCostModelMatchesWrapper(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	n, nv := 12, 4
	e := face.NewEncoding(n, nv)
	perm := r.Perm(1 << uint(nv))
	for s := 0; s < n; s++ {
		e.Codes[s] = uint64(perm[s])
	}
	var cons []face.Constraint
	for k := 0; k < 8; k++ {
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if r.Intn(3) == 0 {
				c.Add(s)
			}
		}
		if c.Count() >= 2 && c.Count() < n {
			cons = append(cons, c)
		}
	}
	cm := newCostModel(e, cons)
	for i, c := range cons {
		// Evaluate repeatedly and after code changes: the model must track
		// the current codes, not a snapshot.
		if cm.estimate(i) != estimateCubes(e, c) {
			t.Fatalf("model and wrapper disagree on constraint %d", i)
		}
	}
	e.Codes[0], e.Codes[1] = e.Codes[1], e.Codes[0]
	for i, c := range cons {
		if cm.estimate(i) != estimateCubes(e, c) {
			t.Fatalf("after swap: model and wrapper disagree on constraint %d", i)
		}
	}
}

func TestPartition(t *testing.T) {
	xs := []uint64{5, 2, 7, 0, 4, 1}
	i := partition(xs, 1) // bit 0
	for j := 0; j < i; j++ {
		if xs[j]&1 != 0 {
			t.Fatalf("odd value before boundary: %v", xs)
		}
	}
	for j := i; j < len(xs); j++ {
		if xs[j]&1 != 1 {
			t.Fatalf("even value after boundary: %v", xs)
		}
	}
	if i != 3 {
		t.Fatalf("boundary = %d", i)
	}
}

func TestCompatibleBasics(t *testing.T) {
	// Two 5-member constraints sharing nothing cannot both be satisfied in
	// B^3 over 8 symbols: each needs a dim-3 cube (the whole space).
	p := &face.Problem{Names: make([]string, 8)}
	e := &encoder{p: p, n: 8, nv: 3}
	a := newTracked(face.FromMembers(8, 0, 1, 2, 3, 4), 0, 1)
	b := newTracked(face.FromMembers(8, 5, 6, 7, 3, 2), 0, 1)
	a.satisfied = true
	if e.compatible(a, b) {
		t.Fatal("two 5-member constraints cannot coexist in B^3")
	}
	// Small disjoint constraints in a roomy space are compatible.
	e2 := &encoder{p: p, n: 8, nv: 4}
	c := newTracked(face.FromMembers(8, 0, 1), 0, 1)
	d := newTracked(face.FromMembers(8, 2, 3), 0, 1)
	if !e2.compatible(c, d) {
		t.Fatal("disjoint pairs must be compatible in B^4")
	}
	// A son equal to one father: {0,1} inside {0,1,2,3} is compatible.
	f := newTracked(face.FromMembers(8, 0, 1, 2, 3), 0, 1)
	if !e2.compatible(f, c) {
		t.Fatal("nested constraints must be compatible")
	}
}
