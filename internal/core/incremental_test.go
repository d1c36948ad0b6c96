package core

import (
	"fmt"
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

// TestAffectedSetLemma checks the move rule both polishes run on:
// over random small encodings with spare codes, for every swap and every
// spare move, each constraint left off the candidate's list keeps its
// exact count, and under a spare move its estimate too. Equal values
// off the list give the trajectory of scoring every constraint. Some
// candidates are kept, moves mid-scan without a new snapshot, as the
// polishes keep them. The estimate is not checked under swaps: its Theorem I test
// reads the intruder list after the split recursion has compacted it in
// place, so a swap of two non-members can move it (18 of 154,329 such
// swaps over 3,000 of these problems; TestPolishScoresCurrentEstimate).
func TestAffectedSetLemma(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	exact := func(enc *face.Encoding, c face.Constraint) int {
		k, err := (*eval.Cache)(nil).ConstraintCubes(enc, c)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	swaps, moves, off := 0, 0, 0
	for trial := 0; trial < 100; trial++ {
		p := randomCarryProblem(r)
		n := p.N()
		nv := p.MinLength() + r.Intn(2)
		enc := face.NewEncoding(n, nv)
		for s, code := range r.Perm(1 << uint(nv))[:n] {
			enc.Codes[s] = uint64(code)
		}
		cm := newCostModel(enc, p.Constraints)
		as := newAffectedSet(enc, p.Constraints)
		cubes := make([]int, len(p.Constraints))
		est := make([]int, len(p.Constraints))
		listed := make([]bool, len(p.Constraints))
		// check applies a candidate, requires every constraint off its
		// list to keep its count (and estimate, when withEst), and keeps
		// the candidate with probability 1/4; undo reverts it.
		check := func(idx []int, apply, undo func(), withEst bool, what string) {
			for i, c := range p.Constraints {
				cubes[i], est[i], listed[i] = exact(enc, c), cm.estimate(i), false
			}
			for _, i := range idx {
				listed[i] = true
			}
			apply()
			for i, c := range p.Constraints {
				if listed[i] {
					continue
				}
				off++
				if k := exact(enc, c); k != cubes[i] {
					t.Fatalf("trial %d: %s changes unlisted constraint %d from %d to %d cubes", trial, what, i, cubes[i], k)
				}
				if k := cm.estimate(i); withEst && k != est[i] {
					t.Fatalf("trial %d: %s changes unlisted constraint %d's estimate from %d to %d", trial, what, i, est[i], k)
				}
			}
			if r.Intn(4) != 0 {
				undo()
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				swap := func() { enc.Codes[a], enc.Codes[b] = enc.Codes[b], enc.Codes[a] }
				check(as.swap(a, b), swap, swap, false, fmt.Sprintf("swapping %d and %d", a, b))
				swaps++
			}
			spares := enc.SpareCodes()
			as.snapshot()
			for si := range spares {
				old, nw := enc.Codes[a], spares[si]
				check(as.move(a, old, nw), func() { enc.Codes[a], spares[si] = nw, old },
					func() { enc.Codes[a], spares[si] = old, nw }, true,
					fmt.Sprintf("moving %d from %b to %b", a, old, nw))
				moves++
			}
		}
	}
	if swaps == 0 || moves == 0 || off == 0 {
		t.Fatalf("%d swaps, %d moves, %d unlisted constraints checked", swaps, moves, off)
	}
	t.Logf("%d swaps and %d spare moves, %d unlisted constraints checked", swaps, moves, off)
}

// TestPolishScoresCurrentEstimate pins a stale committed estimate, found
// by drawing problems and codes as TestAffectedSetLemma does (seed 47)
// and trying every swap of two non-members: swapping 1 and 8 moves L0's
// estimate from 4 to 3 although the swap's list does not hold L0. After
// that swap is committed, a swap of L0's members 2 and 5 must be scored
// at L0's current estimate, 3, computed the first time and remembered
// the second, not at its committed 4.
func TestPolishScoresCurrentEstimate(t *testing.T) {
	p := &face.Problem{Names: make([]string, 9)}
	p.AddConstraint(face.FromMembers(9, 2, 3, 4, 5, 7))
	p.AddConstraint(face.FromMembers(9, 3, 4, 7))
	e := &encoder{p: p, n: 9, nv: 4, enc: face.NewEncoding(9, 4)}
	copy(e.enc.Codes, []uint64{14, 5, 0, 13, 12, 15, 4, 7, 9})
	cm := newCostModel(e.enc, p.Constraints)
	s := e.newEstimateSearch(cm)
	idx := s.aff.swap(1, 8)
	s.swapCodes(1, 8)
	if _, err := s.score(idx); err != nil {
		t.Fatal(err)
	}
	s.commit(idx)
	if cur := cm.estimate(0); s.cost[0] != 4 || cur != 3 {
		t.Fatalf("L0 committed at %d, now %d; the pinned case needs 4 and 3", s.cost[0], cur)
	}
	for try := 0; try < 2; try++ {
		idx := s.aff.swap(2, 5)
		s.swapCodes(2, 5)
		d, err := s.score(idx)
		s.swapCodes(2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != 1 || idx[0] != 0 || s.next[0] != 3 || d != -1 {
			t.Fatalf("try %d: swapping 2 and 5 scores %v at %v (delta %d), want L0 at 3 (delta -1)",
				try, idx, s.next[:len(idx)], d)
		}
	}
	if s.reused != 1 {
		t.Fatalf("%d answers reused, want 1", s.reused)
	}
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

// TestAllocsPolishCandidate is the polishes' allocation gate: on a
// warmed estimate-polish search over the paper problem, one swap
// candidate and one spare-move candidate (list the constraints, apply,
// score, then revert or keep) each allocate nothing. commitSeq moves
// before every candidate, so the don't-look memory never skips one.
func TestAllocsPolishCandidate(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	p := paperProblem()
	n, nv := p.N(), p.MinLength()
	e := &encoder{p: p, n: n, nv: nv, enc: face.NewEncoding(n, nv)}
	for s := range e.enc.Codes {
		e.enc.Codes[s] = uint64(s)
	}
	s := e.newEstimateSearch(newCostModel(e.enc, p.Constraints))
	if len(s.spares) == 0 {
		t.Fatal("the paper problem has no spare code at minimum length")
	}
	// Symbols 1 and 5 share L1, whose estimate is remembered; 1 is in
	// L2 and 5 in L4.
	if allocs := testing.AllocsPerRun(200, func() {
		s.commitSeq++
		if _, _, err := s.trySwap(1, 5); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a swap candidate allocated %.1f objects, want 0", allocs)
	}
	s.aff.snapshot()
	if allocs := testing.AllocsPerRun(200, func() {
		s.commitSeq++
		if _, err := s.tryMove(1, 0); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a spare-move candidate allocated %.1f objects, want 0", allocs)
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
