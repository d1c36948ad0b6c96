package core

import (
	"math/rand"
	"testing"

	"picola/internal/eval"
	"picola/internal/face"
)

// randomCarryProblem builds a small random problem the exact-polish pass
// actually runs on (n ≤ 32, so spare codes exist at minimum length).
func randomCarryProblem(r *rand.Rand) *face.Problem {
	n := 3 + r.Intn(14)
	p := &face.Problem{Names: make([]string, n)}
	for k := 0; k < 1+r.Intn(6); k++ {
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if r.Intn(3) == 0 {
				c.Add(s)
			}
		}
		if c.Count() == 0 {
			c.Add(r.Intn(n))
		}
		p.AddConstraint(c)
	}
	return p
}

// TestPolishCarryLemma checks the lemma behind the exact-polish carry on
// every move the carry would answer: over random small encodings with
// spare codes, for every symbol, every spare code and every constraint
// where carryHolds, the exact count before and after the move is equal.
// descend decides each carry with carryHolds, so equal carried values
// give the same search trajectory as re-minimizing every constraint.
func TestPolishCarryLemma(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	carried := 0
	for trial := 0; trial < 100; trial++ {
		p := randomCarryProblem(r)
		n := p.N()
		nv := p.MinLength() + r.Intn(2)
		enc := face.NewEncoding(n, nv)
		for s, code := range r.Perm(1 << uint(nv))[:n] {
			enc.Codes[s] = uint64(code)
		}
		for a := 0; a < n; a++ {
			old := enc.Codes[a]
			for _, nw := range spareCodes(enc) {
				for i, c := range p.Constraints {
					aMem := c.Has(a)
					var sup bcube
					if !aMem {
						sup, _ = supercubeOf(enc, c)
					}
					if !carryHolds(aMem, sup, old, nw) {
						continue
					}
					before, err := eval.ConstraintCubes(enc, c)
					if err != nil {
						t.Fatal(err)
					}
					enc.Codes[a] = nw
					after, err := eval.ConstraintCubes(enc, c)
					enc.Codes[a] = old
					if err != nil {
						t.Fatal(err)
					}
					if before != after {
						t.Fatalf("trial %d: moving symbol %d from %b to %b changes constraint %d from %d to %d cubes",
							trial, a, old, nw, i, before, after)
					}
					carried++
				}
			}
		}
	}
	if carried == 0 {
		t.Fatal("the carry predicate never held")
	}
	t.Logf("%d carried moves checked", carried)
}

// TestPolishCarryFires guards against the carry silently dying: on the
// paper problem, at least one constraint evaluation must be answered by
// the dirty-set carry rather than a minimizer request.
func TestPolishCarryFires(t *testing.T) {
	before := mPolishCarried.Value()
	if _, err := Encode(paperProblem()); err != nil {
		t.Fatal(err)
	}
	if mPolishCarried.Value() == before {
		t.Fatal("exact-polish carry never fired on the paper problem")
	}
}

// columnCost is the scalar reference of colScorer's column cost,
// recomputed from the member sets and unsatisfied lists of every row.
func (e *encoder) columnCost(col face.Constraint) float64 {
	total := 0.0
	for ri, t := range e.rows {
		u := e.unsat[ri]
		if t.satisfied || len(u) == 0 {
			continue
		}
		in := t.members.IntersectCount(col)
		cnt := t.members.Count()
		var bit int
		switch in {
		case 0:
			bit = 0
		case cnt:
			bit = 1
		default:
			continue // members not uniform: no dichotomy satisfied
		}
		newly := 0
		for _, s := range u {
			sBit := 0
			if col.Has(s) {
				sBit = 1
			}
			if sBit != bit {
				newly++
			}
		}
		if newly > 0 {
			total += t.weight * float64(newly) / float64(len(u))
		}
	}
	return total
}

// TestColumnCostIncrementalParity drives colScorer over the encoder states
// of the classify parity runs (every column of randomized encodes, guide
// rows included) and requires its cost to equal the scalar columnCost bit
// for bit (same rows, same order, same float expressions; not an epsilon
// comparison) at a random start column and after each of a run of random
// bit flips.
func TestColumnCostIncrementalParity(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	flips := rand.New(rand.NewSource(53))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		p, nv := randomParityProblem(r)
		driveClassify(p, nv, false, func(e *encoder, j int) {
			e.collectUnsat()
			col := face.NewConstraint(e.n)
			for s := 0; s < e.n; s++ {
				if flips.Intn(2) == 0 {
					col.Add(s)
				}
			}
			cs := e.newColScorer(col)
			for k := 0; ; k++ {
				if got, want := cs.cost(), e.columnCost(col); got != want {
					t.Fatalf("trial %d col %d flip %d: incremental %v, generic %v (col %v)",
						trial, j, k, got, want, col)
				}
				checked++
				if k == 4*e.n {
					break
				}
				s := flips.Intn(e.n)
				flip(col, s)
				cs.flip(s, col.Has(s))
			}
		})
	}
	t.Logf("%d column costs cross-checked", checked)
}

// TestWordInside pins the raw-word supercube membership the carry
// predicate relies on.
func TestWordInside(t *testing.T) {
	b := bcube{agree: 0b0101, vals: 0b0001} // col0 fixed 1, col2 fixed 0
	cases := []struct {
		w    uint64
		want bool
	}{
		{0b0001, true},
		{0b1011, true},  // free columns may differ
		{0b0000, false}, // col0 wrong
		{0b0101, false}, // col2 wrong
	}
	for _, c := range cases {
		if got := wordInside(c.w, b); got != c.want {
			t.Errorf("wordInside(%04b) = %v, want %v", c.w, got, c.want)
		}
	}
	if !wordInside(0xFFFF, bcube{}) {
		t.Error("empty supercube summary must contain every word")
	}
}
