package core

import (
	"math/rand"
	"testing"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/eval"
	"picola/internal/face"
)

func paperProblem() *face.Problem {
	p := &face.Problem{Name: "figure1", Names: make([]string, 15)}
	for i := range p.Names {
		p.Names[i] = "s" + string(rune('1'+i)) // cosmetic only
	}
	mk := func(syms ...int) face.Constraint {
		c := face.NewConstraint(15)
		for _, s := range syms {
			c.Add(s - 1)
		}
		return c
	}
	p.Constraints = []face.Constraint{
		mk(2, 6, 8, 14),    // L1
		mk(1, 2),           // L2
		mk(9, 14),          // L3
		mk(6, 7, 8, 9, 14), // L4
	}
	return p
}

func TestEncodeInjectiveMinLength(t *testing.T) {
	p := paperProblem()
	r, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Encoding.NV != 4 {
		t.Fatalf("NV = %d", r.Encoding.NV)
	}
	if !r.Encoding.Injective() {
		t.Fatalf("codes must be distinct:\n%s", r.Encoding)
	}
}

func TestEncodePaperProblemQuality(t *testing.T) {
	p := paperProblem()
	r, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := eval.Evaluate(p, r.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	// L1–L3 are simultaneously satisfiable in B^4 (the paper's encoding (c)
	// does it) and L4 is implementable with 2 cubes; a good encoder should
	// reach total cost ≤ 4 constraints + 1 extra cube = 5.
	if c.Total > 5 {
		t.Fatalf("total cubes = %d (want ≤ 5); per-constraint %v\n%s",
			c.Total, c.Cubes, r.Encoding)
	}
	if c.SatisfiedCount < 3 {
		t.Fatalf("satisfied = %d (want ≥ 3)", c.SatisfiedCount)
	}
}

// seedsSatisfied is the seed-dichotomy view of constraint con under e
// (paper §2): for every non-member s, the seed dichotomy (con : s) is
// satisfied by some code column in which all members share one bit and s
// has the other.
func seedsSatisfied(con face.Constraint, e *face.Encoding) bool {
	members := con.Members()
	for s := 0; s < con.N(); s++ {
		if con.Has(s) {
			continue
		}
		satisfied := false
		for col := 0; col < e.NV && !satisfied; col++ {
			bit := e.Bit(members[0], col)
			satisfied = e.Bit(s, col) != bit
			for _, m := range members[1:] {
				satisfied = satisfied && e.Bit(m, col) == bit
			}
		}
		if !satisfied {
			return false
		}
	}
	return true
}

// TestSatisfiedIffAllSeedsSatisfied: on the paper's encoding, a
// constraint is satisfied (its member supercube holds no intruder)
// exactly when all of its seed dichotomies are, and Encode reports it so.
func TestSatisfiedIffAllSeedsSatisfied(t *testing.T) {
	p := paperProblem()
	r, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, con := range p.Constraints {
		if seeds := seedsSatisfied(con, r.Encoding); seeds != r.Encoding.Satisfied(con) {
			t.Fatalf("constraint %d: seed view %v, supercube view %v", i, seeds, r.Encoding.Satisfied(con))
		}
		if r.Satisfied[i] != r.Encoding.Satisfied(con) {
			t.Fatalf("constraint %d: reported %v, actual %v", i, r.Satisfied[i], r.Encoding.Satisfied(con))
		}
	}
}

// TestSatisfiedByEncodingMatchesIntruders: the seed view and the
// supercube view agree on random encodings and constraints.
func TestSatisfiedByEncodingMatchesIntruders(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(10)
		nv := 2 + rng.Intn(4)
		e := face.NewEncoding(n, nv)
		for s := 0; s < n; s++ {
			e.Codes[s] = uint64(rng.Intn(1 << uint(nv)))
		}
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if rng.Intn(3) == 0 {
				c.Add(s)
			}
		}
		if c.Count() == 0 || c.Count() == n {
			continue
		}
		if seeds := seedsSatisfied(c, e); seeds != e.Satisfied(c) {
			t.Fatalf("seed view %v, supercube view %v (n=%d nv=%d)", seeds, e.Satisfied(c), n, nv)
		}
	}
}

func TestTheoremIOnPaperEncoding(t *testing.T) {
	// The hand-built encoding from face's TestPaperFigure1Encoding.
	e := face.NewEncoding(15, 4)
	codeOf := map[int]string{
		1: "0000", 2: "0010", 6: "0110", 8: "0111", 14: "0011",
		9: "0001", 7: "0101",
		3: "1000", 4: "1001", 5: "1010", 10: "1011",
		11: "1100", 12: "1101", 13: "1110", 15: "1111",
	}
	for s, code := range codeOf {
		for col := 0; col < 4; col++ {
			if code[col] == '1' {
				e.SetBit(s-1, col, 1)
			}
		}
	}
	l4 := face.FromMembers(15, 5, 6, 7, 8, 13) // s6,s7,s8,s9,s14 zero-based
	k, ok := TheoremI(e, l4)
	if !ok {
		t.Fatal("Theorem I must apply: intruders {s1,s2} span 00-0, disjoint from members")
	}
	if k != 2 {
		t.Fatalf("Theorem I cube count = %d, want 2 (= dim 0--- minus dim 00-0)", k)
	}
	f, ok := TheoremICover(e, l4)
	if !ok {
		t.Fatal("TheoremICover must apply")
	}
	if f.Len() != 2 {
		t.Fatalf("constructive cover has %d cubes:\n%s", f.Len(), f)
	}
	// The paper's cubes: {01--, 0--1}.
	d := cube.Binary(4)
	want := cover.FromStrings(d, "01--", "0--1")
	if !cover.Equivalent(f, want) {
		t.Fatalf("cover mismatch:\n%s\nwant:\n%s", f, want)
	}
}

// TestTheoremIConstructionProperty: whenever TheoremICover applies, the
// cover must contain every member code, avoid every non-member code, and
// its cardinality must equal TheoremI's count.
func TestTheoremIConstructionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 400; trial++ {
		n := 3 + r.Intn(12)
		nv := 4
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
		f, ok := TheoremICover(e, c)
		if !ok {
			continue
		}
		k, ok2 := TheoremI(e, c)
		if !ok2 || f.Len() != k {
			t.Fatalf("cover size %d vs theorem count %d (ok=%v)", f.Len(), k, ok2)
		}
		d := cube.Binary(nv)
		for s := 0; s < n; s++ {
			code := d.NewCube()
			for col := 0; col < nv; col++ {
				d.Set(code, col, e.Bit(s, col))
			}
			covered := false
			for _, cb := range f.Cubes {
				if d.Contains(cb, code) {
					covered = true
					break
				}
			}
			if c.Has(s) && !covered {
				t.Fatalf("member %d (%s) not covered:\n%s", s, e.CodeString(s), f)
			}
			if !c.Has(s) && covered {
				t.Fatalf("non-member %d (%s) covered:\n%s", s, e.CodeString(s), f)
			}
		}
	}
}

func TestEncodeRandomProblemsValid(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(30)
		p := &face.Problem{Names: make([]string, n)}
		for k := 0; k < 1+r.Intn(8); k++ {
			c := face.NewConstraint(n)
			for s := 0; s < n; s++ {
				if r.Intn(4) == 0 {
					c.Add(s)
				}
			}
			p.AddConstraint(c)
		}
		res, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Encoding.Injective() {
			t.Fatalf("n=%d: non-injective encoding", n)
		}
		if res.Encoding.NV != p.MinLength() {
			t.Fatalf("NV = %d, want %d", res.Encoding.NV, p.MinLength())
		}
	}
}

func TestEncodeSatisfiableProblemFullySatisfied(t *testing.T) {
	// 8 symbols in B^3; constraints aligned with code planes are all
	// simultaneously satisfiable: {0..3} (a plane), {4..7}, {0,1}, {6,7}.
	p := &face.Problem{Names: make([]string, 8)}
	p.AddConstraint(face.FromMembers(8, 0, 1, 2, 3))
	p.AddConstraint(face.FromMembers(8, 4, 5, 6, 7))
	p.AddConstraint(face.FromMembers(8, 0, 1))
	p.AddConstraint(face.FromMembers(8, 6, 7))
	r, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range p.Constraints {
		if r.Satisfied[i] {
			total++
		}
	}
	if total != len(p.Constraints) {
		t.Fatalf("satisfied %d of %d:\n%s", total, len(p.Constraints), r.Encoding)
	}
}

func TestEncodeNVOverride(t *testing.T) {
	p := paperProblem()
	r, err := Encode(p, Options{NV: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Encoding.NV != 6 || !r.Encoding.Injective() {
		t.Fatal("NV override broken")
	}
	if _, err := Encode(p, Options{NV: 3}); err == nil {
		t.Fatal("NV below minimum must be rejected")
	}
}

// TestEncodeRestartsOutOfRange: the portfolio has four variants, so
// Encode and EncodeAll refuse any Restarts outside [0, 4] (at −1
// runPortfolio used to index an empty run list; above 4 the extra
// variants repeated variant 0 and could never win).
func TestEncodeRestartsOutOfRange(t *testing.T) {
	p := paperProblem()
	for _, restarts := range []int{-1, 5} {
		if _, err := Encode(p, Options{Restarts: restarts}); err == nil {
			t.Errorf("Encode with Restarts %d: no error", restarts)
		}
		if _, err := EncodeAll(p, Options{Restarts: restarts}); err == nil {
			t.Errorf("EncodeAll with Restarts %d: no error", restarts)
		}
	}
}

func TestEncodeSingleSymbol(t *testing.T) {
	p := &face.Problem{Names: []string{"only"}}
	r, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Encoding.N() != 1 || r.Encoding.NV != 1 {
		t.Fatal("degenerate problem mishandled")
	}
}

func TestEncodeEmptyProblemRejected(t *testing.T) {
	if _, err := Encode(&face.Problem{}); err == nil {
		t.Fatal("empty problem must be rejected")
	}
}

func TestGuidesImproveInfeasibleImplementation(t *testing.T) {
	// A problem with a deliberately infeasible large constraint: 9 symbols
	// in B^4, constraint of 9 members among 15 symbols needs dim 4 — the
	// whole space — so it is infeasible from the start and only guide
	// steering can cheapen it.
	n := 15
	p := &face.Problem{Names: make([]string, n)}
	big := face.NewConstraint(n)
	for s := 0; s < 9; s++ {
		big.Add(s)
	}
	p.AddConstraint(big)
	p.AddConstraint(face.FromMembers(n, 0, 1))
	p.AddConstraint(face.FromMembers(n, 3, 4, 5))
	withGuides, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	without, err := Encode(p, Options{DisableGuides: true, DisableClassify: true})
	if err != nil {
		t.Fatal(err)
	}
	cg, err := eval.Evaluate(p, withGuides.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := eval.Evaluate(p, without.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	if cg.Total > cw.Total {
		t.Fatalf("guides made it worse: %d vs %d", cg.Total, cw.Total)
	}
	if !withGuides.Infeasible[0] {
		t.Fatal("the 9-member constraint must be flagged infeasible")
	}
}

func TestDeterminism(t *testing.T) {
	p := paperProblem()
	a, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < p.N(); s++ {
		if a.Encoding.Codes[s] != b.Encoding.Codes[s] {
			t.Fatal("encoding is not deterministic")
		}
	}
}

// TestParallelPortfolioDeterminism: the parallel portfolio with a shared
// memo-cache must return bit-identical encodings and diagnostics to the
// sequential, uncached run — the (score, variant index) reduction makes
// the winner independent of completion order, and cached minimizations
// are pure functions of their input.
func TestParallelPortfolioDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	cache := eval.NewCache()
	problems := []*face.Problem{paperProblem()}
	for trial := 0; trial < 12; trial++ {
		n := 4 + r.Intn(28)
		p := &face.Problem{Names: make([]string, n)}
		for k := 0; k < 1+r.Intn(8); k++ {
			c := face.NewConstraint(n)
			for s := 0; s < n; s++ {
				if r.Intn(4) == 0 {
					c.Add(s)
				}
			}
			p.AddConstraint(c)
		}
		problems = append(problems, p)
	}
	for pi, p := range problems {
		seq, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := Encode(p, Options{Workers: workers, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < p.N(); s++ {
				if got.Encoding.Codes[s] != seq.Encoding.Codes[s] {
					t.Fatalf("problem %d workers=%d: code of symbol %d differs (%b vs %b)",
						pi, workers, s, got.Encoding.Codes[s], seq.Encoding.Codes[s])
				}
			}
			for i := range seq.Satisfied {
				if got.Satisfied[i] != seq.Satisfied[i] || got.Infeasible[i] != seq.Infeasible[i] {
					t.Fatalf("problem %d workers=%d: diagnostics of constraint %d differ", pi, workers, i)
				}
			}
		}
	}
}

func TestMinDim(t *testing.T) {
	cases := []struct{ m, want int }{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}}
	for _, tc := range cases {
		if got := minDim(tc.m); got != tc.want {
			t.Errorf("minDim(%d) = %d, want %d", tc.m, got, tc.want)
		}
	}
}
