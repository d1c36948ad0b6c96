package nova

import (
	"math/rand"
	"testing"

	"picola/internal/face"
)

// randomProblem builds a random constraint set over n symbols.
func randomProblem(r *rand.Rand, n int) *face.Problem {
	p := &face.Problem{Names: make([]string, n)}
	for k := 0; k < 2+r.Intn(6); k++ {
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

// TestIncrementalStateMatchesRecompute drives the annealer's cached state
// through random swap and move operations and checks the intruder counts
// against a from-scratch recomputation after every step.
func TestIncrementalStateMatchesRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(12)
		nv := 0
		for (1 << nv) < n {
			nv++
		}
		p := randomProblem(r, n)
		if len(p.Constraints) == 0 {
			continue
		}
		e := face.NewEncoding(n, nv)
		perm := r.Perm(1 << uint(nv))
		for s := 0; s < n; s++ {
			e.Codes[s] = uint64(perm[s])
		}
		var spares []uint64
		for code := n; code < 1<<uint(nv); code++ {
			spares = append(spares, uint64(perm[code]))
		}
		st := newState(p, e, Options{})
		for step := 0; step < 60; step++ {
			if len(spares) > 0 && r.Intn(3) == 0 {
				a := r.Intn(n)
				si := r.Intn(len(spares))
				old := st.applyMove(a, spares[si])
				spares[si] = old
			} else {
				a, b := r.Intn(n), r.Intn(n)
				if a == b {
					continue
				}
				st.applySwap(a, b)
			}
			// From-scratch check.
			want := newState(p, e, Options{})
			for i := range p.Constraints {
				if st.intrs[i] != want.intrs[i] {
					t.Fatalf("step %d: constraint %d intruders=%d, want %d",
						step, i, st.intrs[i], want.intrs[i])
				}
				if st.sup[i] != want.sup[i] {
					t.Fatalf("step %d: constraint %d cached face %+v, want %+v",
						step, i, st.sup[i], want.sup[i])
				}
			}
			if st.objective() != want.objective() {
				t.Fatalf("step %d: objective diverged", step)
			}
		}
	}
}

// TestAllocsAnneal is the annealer's allocation gate: on a warmed state,
// a swap, a spare move and their undos rebuild the touched constraints'
// faces and intruder counts without allocating.
func TestAllocsAnneal(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	r := rand.New(rand.NewSource(5))
	n := 24
	p := randomProblem(r, n)
	e := face.NewEncoding(n, 5)
	for s := range e.Codes {
		e.Codes[s] = uint64(s)
	}
	st := newState(p, e, Options{})
	spare := e.SpareCodes()[0]
	allocs := testing.AllocsPerRun(100, func() {
		st.applySwap(2, 17)
		st.applySwap(2, 17)
		st.applyMove(5, st.applyMove(5, spare))
	})
	if allocs != 0 {
		t.Fatalf("warmed applySwap/applyMove allocated %.1f objects, want 0", allocs)
	}
}
