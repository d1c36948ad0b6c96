package enc

import (
	"math/rand"
	"testing"

	"picola/internal/eval"
	"picola/internal/face"
)

// TestAffectedFilterSound: when affected() says a swap cannot change a
// constraint's implementation, its exact cube count and the espresso
// count ENC minimizes indeed stay equal.
func TestAffectedFilterSound(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	counts := func(e *face.Encoding, c face.Constraint) [2]int {
		k, err := (*eval.Cache)(nil).ConstraintCubes(e, c)
		if err != nil {
			t.Fatal(err)
		}
		h, err := (*eval.Cache)(nil).ConstraintCubesHeuristic(e, c)
		if err != nil {
			t.Fatal(err)
		}
		return [2]int{k, h}
	}
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(8)
		nv := 0
		for (1 << nv) < n {
			nv++
		}
		p := &face.Problem{Names: make([]string, n)}
		for k := 0; k < 4; k++ {
			c := face.NewConstraint(n)
			for sym := 0; sym < n; sym++ {
				if r.Intn(3) == 0 {
					c.Add(sym)
				}
			}
			p.AddConstraint(c)
		}
		if len(p.Constraints) == 0 {
			continue
		}
		e := face.NewEncoding(n, nv)
		perm := r.Perm(1 << uint(nv))
		for sym := 0; sym < n; sym++ {
			e.Codes[sym] = uint64(perm[sym])
		}
		s := &searcher{p: p, enc: e}
		for step := 0; step < 30; step++ {
			a, b := r.Intn(n), r.Intn(n)
			if a == b {
				continue
			}
			var before [][2]int
			var unaffected []int
			for i := range p.Constraints {
				if !s.affected(i, a, b) {
					unaffected = append(unaffected, i)
					before = append(before, counts(e, p.Constraints[i]))
				}
			}
			e.Codes[a], e.Codes[b] = e.Codes[b], e.Codes[a]
			for j, i := range unaffected {
				if k := counts(e, p.Constraints[i]); k != before[j] {
					t.Fatalf("swap(%d,%d) changed 'unaffected' constraint %d: exact and espresso %v -> %v",
						a, b, i, before[j], k)
				}
			}
		}
	}
}
