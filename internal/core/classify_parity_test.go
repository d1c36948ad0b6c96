package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"picola/internal/face"
	"picola/internal/obs"
)

// matrixRow re-derives a row's constraint-matrix state from the first j
// code columns, independently of the state creditColumn maintains: the
// number of columns on which all members agree, and the outsiders that no
// such column separates from the members (the row's zero entries in the
// paper's notation).
func (e *encoder) matrixRow(t *tracked, j int) (int, face.Constraint) {
	agree := 0
	unsat := t.outsiders.Clone()
	members := t.members.Members()
	if len(members) == 0 {
		return 0, unsat
	}
	for col := 0; col < j; col++ {
		bit := e.enc.Bit(members[0], col)
		uniform := true
		for _, m := range members[1:] {
			if e.enc.Bit(m, col) != bit {
				uniform = false
				break
			}
		}
		if !uniform {
			continue
		}
		agree++
		for s := 0; s < e.n; s++ {
			if unsat.Has(s) && e.enc.Bit(s, col) != bit {
				unsat.Remove(s)
			}
		}
	}
	return agree, unsat
}

// classifyGeneric is the scalar reference of classify, kept as the oracle
// the randomized parity tests replay both paths against. It re-derives
// each row's intruder and agreeing-column counts from the code matrix
// (matrixRow), recomputes the member-set constants, decides compatibility
// with the triple loop of compatible, and allocates its result and trace
// attributes afresh.
func (e *encoder) classifyGeneric(j int) []int {
	var out []int
	remaining := e.nv - j
	for i, t := range e.rows {
		if t.satisfied || t.infeasible {
			continue
		}
		agree, unsat := e.matrixRow(t, j)
		intr := unsat.Count()
		if intr == 0 {
			continue
		}
		bad := false
		switch {
		case remaining == 0:
			bad = true
		case agree >= e.nv-minDim(t.members.Count()):
			bad = true
		default:
			for _, s := range e.rows {
				if !s.satisfied || s == t {
					continue
				}
				if !e.compatible(s, t) {
					bad = true
					break
				}
			}
		}
		if bad {
			t.infeasible = true
			out = append(out, i)
			mInfeasible.Inc()
			if e.tr != nil {
				obs.Emit(e.tr, obs.Event{Kind: obs.KindEvent, Stage: "classify", Name: "infeasible",
					Attrs: map[string]float64{
						"variant":   float64(e.variant),
						"row":       float64(i),
						"col":       float64(j),
						"intruders": float64(intr),
						"depth":     float64(t.depth),
					}})
			}
		}
	}
	return out
}

// compatible is the scalar reference of compatibleSet, the
// nv-compatibility check of §3.3.1 between a satisfied constraint a and a
// candidate b: does any admissible triple of cube dimensions (dimA, dimB,
// dimAB) satisfy the Boolean-algebra conditions and
// dim(super(A,B)) = dimA + dimB − dimAB ≤ nv? It recomputes every count
// from the member sets.
func (e *encoder) compatible(a, b *tracked) bool {
	nv := e.nv
	cA, cB := a.members.Count(), b.members.Count()
	son := a.members.IntersectCount(b.members)
	dALo, dAHi := minDim(cA), nv-a.agree
	dBLo, dBHi := minDim(cB), nv-b.agree
	if dALo > dAHi || dBLo > dBHi {
		return false
	}
	if son == 0 {
		// Disjoint constraints need disjoint cubes: total capacity and
		// total slack must fit (a necessary condition; paper §3.3.1.b).
		total := 1 << uint(nv)
		if 1<<uint(dALo)+1<<uint(dBLo) > total {
			return false
		}
		slack := total - e.n
		if (1<<uint(dALo)-cA)+(1<<uint(dBLo)-cB) > slack {
			return false
		}
		return true
	}
	dSLo := minDim(son)
	union := cA + cB - son
	for dA := dALo; dA <= dAHi; dA++ {
		if 1<<uint(dA) < cA {
			continue
		}
		for dB := dBLo; dB <= dBHi; dB++ {
			if 1<<uint(dB) < cB {
				continue
			}
			for dS := dSLo; dS <= dA && dS <= dB; dS++ {
				// Conditions I: a proper son needs a strictly smaller cube;
				// an equal son the same cube.
				if son < cA && dS >= dA {
					continue
				}
				if son == cA && dS != dA {
					continue
				}
				if son < cB && dS >= dB {
					continue
				}
				if son == cB && dS != dB {
					continue
				}
				// Conditions II: the son cube's slack fits in each father's.
				if (1<<uint(dS))-son > (1<<uint(dA))-cA {
					continue
				}
				if (1<<uint(dS))-son > (1<<uint(dB))-cB {
					continue
				}
				dU := dA + dB - dS
				if dU > nv {
					continue
				}
				if 1<<uint(dU) < union {
					continue
				}
				return true
			}
		}
	}
	return false
}

// randomParityProblem builds a deterministic pseudo-random problem for the
// classify parity suite: enough overlapping mid-size constraints that runs
// hit satisfied rows, infeasible rows and guide substitution.
func randomParityProblem(r *rand.Rand) (*face.Problem, int) {
	n := 5 + r.Intn(11) // 5..15 symbols
	p := &face.Problem{Name: "parity", Names: make([]string, n)}
	for i := range p.Names {
		p.Names[i] = fmt.Sprintf("s%d", i)
	}
	k := 3 + r.Intn(5)
	for len(p.Constraints) < k {
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if r.Intn(3) == 0 {
				c.Add(s)
			}
		}
		if cnt := c.Count(); cnt >= 2 && cnt < n {
			p.Constraints = append(p.Constraints, c)
		}
	}
	// Occasionally squeeze the code space so infeasibility actually occurs.
	nv := p.MinLength() + r.Intn(2)
	return p, nv
}

// driveClassify replays encodeOnce's column loop with the chosen classify
// implementation, recording every per-column infeasible set and every trace
// event. The two paths share solve/apply/addGuide, so as long as the
// classifications agree the states evolve in lockstep and the whole runs
// must be byte-identical. beforeSolve, when non-nil, sees the encoder
// state just before each column j is solved.
func driveClassify(p *face.Problem, nv int, generic bool, beforeSolve func(e *encoder, j int)) (*encoder, [][]int, *obs.Recorder) {
	rec := &obs.Recorder{}
	o := Options{}.withDefaults()
	n := p.N()
	e := &encoder{p: p, opts: o, n: n, nv: nv, enc: face.NewEncoding(n, nv),
		guideWeight: guideWeight, tr: rec}
	for i, c := range p.Constraints {
		e.rows = append(e.rows, newTracked(c, 0, float64(p.Weight(i))))
	}
	e.nOri = len(e.rows)
	var perCol [][]int
	for j := 0; j < nv; j++ {
		// Mark satisfied rows exactly as updateConstraints does, but with
		// the intruder count of the path under test.
		for ri, t := range e.rows {
			un := t.unsat.Count()
			if generic {
				_, u := e.matrixRow(t, j)
				un = u.Count()
			}
			if !t.satisfied && !t.infeasible && un == 0 {
				t.satisfied = true
				a := e.attrs()
				a["variant"] = float64(e.variant)
				a["row"] = float64(ri)
				a["col"] = float64(j)
				obs.Emit(e.tr, obs.Event{Kind: obs.KindEvent, Stage: "classify", Name: "satisfied", Attrs: a})
			}
		}
		var inf []int
		if generic {
			inf = e.classifyGeneric(j)
		} else {
			inf = e.classify(j)
		}
		perCol = append(perCol, append([]int(nil), inf...))
		for _, idx := range inf {
			e.addGuide(idx, j)
		}
		if beforeSolve != nil {
			beforeSolve(e, j)
		}
		col, err := e.solve(j)
		if err != nil {
			panic(err)
		}
		e.apply(col, j)
	}
	return e, perCol, rec
}

// TestClassifyParity is the classify oracle gate: over randomized runs,
// the set-algebra classify (closed-form compatibleSet, popcount intruder
// counts, pooled scratch and trace attrs) and the scalar classifyGeneric
// produce identical infeasible sets, identical trace events, and identical
// final encoder states. At every column the maintained row state (the
// unsat bitset and the agreeing-column count) must also equal the state
// re-derived from the code matrix.
func TestClassifyParity(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 60; trial++ {
		p, nv := randomParityProblem(r)
		checkRows := func(e *encoder, j int) {
			for i, row := range e.rows {
				agree, unsat := e.matrixRow(row, j)
				if row.agree != agree || !row.unsat.Equal(unsat) {
					t.Fatalf("trial %d col %d row %d: maintained agree %d unsat %v, code matrix gives %d %v",
						trial, j, i, row.agree, row.unsat, agree, unsat)
				}
			}
		}
		ef, fastInf, fastRec := driveClassify(p, nv, false, checkRows)
		checkRows(ef, nv)
		eg, genInf, genRec := driveClassify(p, nv, true, nil)
		if !reflect.DeepEqual(fastInf, genInf) {
			t.Fatalf("trial %d: infeasible sets diverge\nfast:    %v\ngeneric: %v\nproblem:\n%s",
				trial, fastInf, genInf, p)
		}
		if !reflect.DeepEqual(fastRec.Events, genRec.Events) {
			t.Fatalf("trial %d: trace events diverge\nfast:    %+v\ngeneric: %+v",
				trial, fastRec.Events, genRec.Events)
		}
		if len(ef.rows) != len(eg.rows) {
			t.Fatalf("trial %d: row counts diverge: %d vs %d", trial, len(ef.rows), len(eg.rows))
		}
		for i := range ef.rows {
			a, b := ef.rows[i], eg.rows[i]
			if a.satisfied != b.satisfied || a.infeasible != b.infeasible {
				t.Fatalf("trial %d row %d: flags diverge (sat %v/%v, inf %v/%v)",
					trial, i, a.satisfied, b.satisfied, a.infeasible, b.infeasible)
			}
			if !a.unsat.Equal(b.unsat) || a.agree != b.agree {
				t.Fatalf("trial %d row %d: unsat sets/agree counts diverge", trial, i)
			}
		}
		for s := 0; s < p.N(); s++ {
			if ef.enc.Codes[s] != eg.enc.Codes[s] {
				t.Fatalf("trial %d: encodings diverge at symbol %d", trial, s)
			}
		}
	}
}

// randomTracked builds a row with a random non-trivial member set and a
// random agreeing-column count (compatibility depends only on the count).
func randomTracked(r *rand.Rand, n, nv int) *tracked {
	c := face.NewConstraint(n)
	for c.Count() == 0 {
		for s := 0; s < n; s++ {
			if r.Intn(3) == 0 {
				c.Add(s)
			}
		}
	}
	t := newTracked(c, 0, 1)
	t.agree = r.Intn(nv + 1)
	return t
}

// TestCompatibleParity fuzzes the closed-form compatibleSet against the
// scalar triple-loop reference over random pairs and agree counts.
func TestCompatibleParity(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30000; trial++ {
		n := 3 + r.Intn(14)
		nv := 1 + r.Intn(6)
		e := &encoder{n: n, nv: nv}
		a := randomTracked(r, n, nv)
		b := randomTracked(r, n, nv)
		son := a.members.IntersectCount(b.members)
		want := e.compatible(a, b)
		if got := e.compatibleSet(a, b, son); got != want {
			t.Fatalf("trial %d: compatibleSet=%v scalar=%v (n=%d nv=%d cA=%d cB=%d son=%d agreeA=%d agreeB=%d)",
				trial, got, want, n, nv, a.cnt, b.cnt, son, a.agree, b.agree)
		}
	}
}

// TestAllocsClassify is the steady-state allocation gate: on a warmed
// encoder (scratch at its high-water mark, tracing off) one full classify
// column scan performs zero heap allocations.
func TestAllocsClassify(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	r := rand.New(rand.NewSource(7))
	p, nv := randomParityProblem(r)
	e, _, _ := driveClassify(p, nv, false, nil)
	e.tr = nil
	j := nv - 1
	e.classify(j) // warm: scratch and infeasible flags settled
	allocs := testing.AllocsPerRun(200, func() {
		e.classify(j)
	})
	if allocs != 0 {
		t.Fatalf("warmed classify allocated %.1f objects per column scan, want 0", allocs)
	}
}

// benchClassifyFixture drives a dense random problem to a mid-run state —
// a mix of satisfied rows and live candidates — so the benchmarked column
// scan exercises the pairwise compatibility loop, not an empty sweep.
func benchClassifyFixture() (*encoder, int) {
	r := rand.New(rand.NewSource(5))
	n := 24
	p := &face.Problem{Name: "bench", Names: make([]string, n)}
	for len(p.Constraints) < 18 {
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if r.Intn(5) == 0 {
				c.Add(s)
			}
		}
		if cnt := c.Count(); cnt >= 2 && cnt <= 6 {
			p.Constraints = append(p.Constraints, c)
		}
	}
	nv := p.MinLength() + 2
	o := Options{}.withDefaults()
	e := &encoder{p: p, opts: o, n: n, nv: nv, enc: face.NewEncoding(n, nv), guideWeight: guideWeight}
	for i, c := range p.Constraints {
		e.rows = append(e.rows, newTracked(c, 0, float64(p.Weight(i))))
	}
	e.nOri = len(e.rows)
	j := nv - 2
	for col := 0; col < j; col++ {
		e.updateConstraints(col)
		c, err := e.solve(col)
		if err != nil {
			panic(err)
		}
		e.apply(c, col)
	}
	for _, t := range e.rows {
		if !t.satisfied && !t.infeasible && t.unsat.Count() == 0 {
			t.satisfied = true
		}
	}
	return e, j
}

// BenchmarkClassify compares one warmed classify column scan against the
// scalar reference on the same mid-run encoder state.
func BenchmarkClassify(b *testing.B) {
	e, j := benchClassifyFixture()
	b.Run("set", func(b *testing.B) {
		e.classify(j)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchClassifySink = e.classify(j)
		}
	})
	b.Run("generic", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchClassifySink = e.classifyGeneric(j)
		}
	})
}

var benchClassifySink []int
var benchCompatSink bool

// BenchmarkCompatible compares the scalar triple-loop check and the
// closed-form set-algebra check on one ambiguous (partially overlapping)
// pair.
func BenchmarkCompatible(b *testing.B) {
	n, nv := 12, 5
	e := &encoder{n: n, nv: nv}
	a := newTracked(face.FromMembers(n, 0, 1, 2, 3, 4), 0, 1)
	c := newTracked(face.FromMembers(n, 3, 4, 5, 6, 7, 8), 0, 1)
	a.agree = 1
	c.agree = 1
	son := a.members.IntersectCount(c.members)
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchCompatSink = e.compatible(a, c)
		}
	})
	b.Run("set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchCompatSink = e.compatibleSet(a, c, son)
		}
	})
}
