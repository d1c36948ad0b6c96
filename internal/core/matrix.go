package core

import (
	"math/bits"

	"picola/internal/face"
)

// tracked is one row of the working constraint matrix.
type tracked struct {
	depth     int // guide nesting depth (0 for originals)
	weight    float64
	members   face.Constraint
	outsiders face.Constraint // symbols whose seed dichotomies are tracked
	// unsat holds the outsiders whose seed dichotomy no generated column
	// satisfies yet: the zero entries of the paper's matrix row, the only
	// entries any step reads. Intruder counts are its popcount.
	unsat face.Constraint
	// agree counts the generated columns where all members received the
	// same bit: dim(super) = nv − agree.
	agree int
	// cnt/dLo: member count and its minimum cube dimension — constants of
	// the fixed member set, precomputed at row creation.
	cnt int
	dLo int

	satisfied  bool
	infeasible bool
}

// intruders returns the outsiders whose dichotomies are still unsatisfied
// — the constraint's current intruder set I_k.
func (t *tracked) intruders() face.Constraint {
	return t.unsat.Clone()
}

// Result reports the outcome of an encoding run.
type Result struct {
	Encoding *face.Encoding
	// Satisfied[i] for each original constraint of the problem.
	Satisfied []bool
	// Infeasible[i]: constraint i was detected infeasible during the run
	// (its guide-constraint, if any, steered the remaining columns).
	Infeasible []bool
	// Guides lists the guide-constraints generated, in creation order.
	Guides []face.Constraint
	// TheoremICubes[i]: for violated constraint i, the product-term count
	// guaranteed by Theorem I when its intruders span a disjoint cube, or
	// 0 when the theorem does not apply (evaluate exactly instead).
	TheoremICubes []int
}

// reclassifyFromScratch rebuilds every row's constraint-matrix state from
// the (possibly polished) final encoding so the reported diagnostics match
// the returned codes.
func (e *encoder) reclassifyFromScratch() {
	for _, t := range e.rows {
		t.agree = 0
		t.satisfied = false
		t.infeasible = false
		t.unsat = t.outsiders.Clone()
		for col := 0; col < e.nv; col++ {
			e.creditColumn(t, col)
		}
	}
}

func newTracked(members face.Constraint, depth int, weight float64) *tracked {
	t := &tracked{
		depth:     depth,
		weight:    weight,
		members:   members.Clone(),
		outsiders: members.Complement(),
	}
	t.cnt = t.members.Count()
	t.dLo = minDim(t.cnt)
	t.unsat = t.outsiders.Clone()
	return t
}

// minDim returns ceil(log2 m): the smallest cube dimension that can hold m
// distinct codes.
func minDim(m int) int {
	if m <= 1 {
		return 0
	}
	return bits.Len(uint(m - 1))
}

// creditColumn updates one row's unsatisfied outsiders and agreeing-column
// count for an already-generated column col.
func (e *encoder) creditColumn(t *tracked, col int) {
	uniform, bit := e.columnUniform(t.members, col)
	if !uniform {
		return
	}
	t.agree++
	for s := 0; s < e.n; s++ {
		if t.unsat.Has(s) && e.enc.Bit(s, col) != bit {
			t.unsat.Remove(s)
		}
	}
}

// columnUniform reports whether all members share the same bit in an
// already-generated column, and that bit.
func (e *encoder) columnUniform(members face.Constraint, col int) (bool, int) {
	first := -1
	for s := 0; s < e.n; s++ {
		if !members.Has(s) {
			continue
		}
		b := e.enc.Bit(s, col)
		if first < 0 {
			first = b
		} else if b != first {
			return false, 0
		}
	}
	if first < 0 {
		return false, 0
	}
	return true, first
}

// apply writes the column into the encoding and updates every row's
// constraint matrix state.
func (e *encoder) apply(col face.Constraint, j int) {
	for s := 0; s < e.n; s++ {
		b := 0
		if col.Has(s) {
			b = 1
		}
		e.enc.SetBit(s, j, b)
	}
	for _, t := range e.rows {
		e.creditColumn(t, j)
	}
}

// finalClassify settles the satisfied/infeasible status after the last
// column.
func (e *encoder) finalClassify() {
	for _, t := range e.rows {
		if t.satisfied || t.infeasible {
			continue
		}
		if t.unsat.Count() == 0 {
			t.satisfied = true
		} else {
			t.infeasible = true
		}
	}
}

func (e *encoder) result() *Result {
	r := &Result{
		Encoding:      e.enc,
		Satisfied:     make([]bool, e.nOri),
		Infeasible:    make([]bool, e.nOri),
		TheoremICubes: make([]int, e.nOri),
	}
	for i := 0; i < e.nOri; i++ {
		t := e.rows[i]
		r.Satisfied[i] = t.satisfied
		r.Infeasible[i] = !t.satisfied
		if !t.satisfied {
			if k, ok := TheoremI(e.enc, e.p.Constraints[i]); ok {
				r.TheoremICubes[i] = k
			}
		}
	}
	for _, t := range e.rows[e.nOri:] {
		r.Guides = append(r.Guides, t.members.Clone())
	}
	return r
}
