package bdd

import (
	"math/rand"
	"testing"

	"picola/internal/cover"
	"picola/internal/cube"
)

// Not returns ¬f.
func (m *Manager) Not(f Ref) Ref { return m.Ite(f, False, True) }

func TestTerminalsAndVars(t *testing.T) {
	m := New(3)
	if m.Not(True) != False || m.Not(False) != True {
		t.Fatal("negated terminals wrong")
	}
	x := m.Var(0)
	if m.Not(m.Not(x)) != x {
		t.Fatal("double negation must be canonical")
	}
	if m.And(x, m.Not(x)) != False {
		t.Fatal("x ∧ ¬x must be False")
	}
	if m.Or(x, m.Not(x)) != True {
		t.Fatal("x ∨ ¬x must be True")
	}
	if m.NVar(1) != m.Not(m.Var(1)) {
		t.Fatal("NVar must agree with Not(Var)")
	}
}

func TestCanonicalEquality(t *testing.T) {
	m := New(4)
	a, b, c := m.Var(0), m.Var(1), m.Var(2)
	// (a∧b)∨c == (c∨a)∧(c∨b)  (distribution)
	lhs := m.Or(m.And(a, b), c)
	rhs := m.And(m.Or(c, a), m.Or(c, b))
	if lhs != rhs {
		t.Fatal("distribution law violated: canonical forms differ")
	}
	// De Morgan.
	if m.Not(m.And(a, b)) != m.Or(m.Not(a), m.Not(b)) {
		t.Fatal("De Morgan violated")
	}
}

func TestEvalAgainstTruthTable(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	m := New(5)
	// Build a random expression tree and compare Eval against direct
	// evaluation.
	var build func(depth int) (Ref, func([]bool) bool)
	build = func(depth int) (Ref, func([]bool) bool) {
		if depth == 0 || r.Intn(3) == 0 {
			v := r.Intn(5)
			if r.Intn(2) == 0 {
				return m.Var(v), func(a []bool) bool { return a[v] }
			}
			return m.NVar(v), func(a []bool) bool { return !a[v] }
		}
		l, lf := build(depth - 1)
		rr, rf := build(depth - 1)
		switch r.Intn(3) {
		case 0:
			return m.And(l, rr), func(a []bool) bool { return lf(a) && rf(a) }
		case 1:
			return m.Or(l, rr), func(a []bool) bool { return lf(a) || rf(a) }
		default:
			return m.Ite(l, m.Not(rr), rr), func(a []bool) bool { return lf(a) != rf(a) }
		}
	}
	for trial := 0; trial < 50; trial++ {
		f, ef := build(4)
		for x := 0; x < 32; x++ {
			a := make([]bool, 5)
			for i := range a {
				a[i] = x>>uint(i)&1 == 1
			}
			if m.Eval(f, a) != ef(a) {
				t.Fatalf("Eval mismatch at %05b", x)
			}
		}
	}
}

func TestFromCoverMatchesMinterms(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	d := cube.Binary(6)
	m := New(6)
	for trial := 0; trial < 40; trial++ {
		f := cover.New(d)
		for k := 0; k < r.Intn(6); k++ {
			c := d.NewCube()
			for v := 0; v < 6; v++ {
				switch r.Intn(3) {
				case 0:
					d.Set(c, v, 0)
				case 1:
					d.Set(c, v, 1)
				default:
					d.Set(c, v, 0)
					d.Set(c, v, 1)
				}
			}
			f.Add(c)
		}
		g := m.FromCover(f)
		for x := 0; x < 64; x++ {
			a := make([]bool, 6)
			mt := d.NewCube()
			for v := range a {
				a[v] = x>>uint(v)&1 == 1
				d.Set(mt, v, x>>uint(v)&1)
			}
			if got, want := m.Eval(g, a), f.CoversCube(mt); got != want {
				t.Fatalf("minterm %s: BDD %v, cover %v\n%s", d.String(mt), got, want, f)
			}
		}
	}
}

// TestBDDOracleAgainstCoverAlgebra: the two independently implemented
// equivalence procedures (URP cover containment vs canonical BDDs) agree
// on random cover pairs — mutual validation of both substrates.
func TestBDDOracleAgainstCoverAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	d := cube.Binary(5)
	mk := func() *cover.Cover {
		f := cover.New(d)
		for k := 0; k < r.Intn(5); k++ {
			c := d.NewCube()
			for v := 0; v < 5; v++ {
				switch r.Intn(3) {
				case 0:
					d.Set(c, v, 0)
				case 1:
					d.Set(c, v, 1)
				default:
					d.Set(c, v, 0)
					d.Set(c, v, 1)
				}
			}
			f.Add(c)
		}
		return f
	}
	m := New(5)
	for trial := 0; trial < 200; trial++ {
		f, g := mk(), mk()
		urp := cover.Equivalent(f, g)
		canon := m.FromCover(f) == m.FromCover(g)
		if urp != canon {
			t.Fatalf("oracles disagree: URP=%v BDD=%v\nF:\n%s\nG:\n%s", urp, canon, f, g)
		}
		// Complement check: F ∨ ¬F ≡ ⊤ through both paths.
		comp := f.Complement()
		if m.Or(m.FromCover(f), m.FromCover(comp)) != True {
			t.Fatal("cover complement is not a BDD complement")
		}
	}
}

func TestFromOutputCover(t *testing.T) {
	d := cube.WithOutputs(2, 3)
	f := cover.FromStrings(d, "0-[110]", "11[011]")
	m := New(2)
	f0 := m.FromOutputCover(f, 2, 0) // asserted by the first cube only: a'
	if f0 != m.NVar(0) {
		t.Fatal("output 0 must be ¬a")
	}
	f2 := m.FromOutputCover(f, 2, 2) // second cube only: a∧b
	if f2 != m.And(m.Var(0), m.Var(1)) {
		t.Fatal("output 2 must be a∧b")
	}
	f1 := m.FromOutputCover(f, 2, 1) // both cubes: ¬a ∨ (a∧b)
	if f1 != m.Or(m.NVar(0), m.And(m.Var(0), m.Var(1))) {
		t.Fatal("output 1 union wrong")
	}
}

// TestImplies pins the implication test the BDD oracles use: f → g is
// a tautology exactly when ite(f, g, 1) is.
func TestImplies(t *testing.T) {
	m := New(3)
	a, b := m.Var(0), m.Var(1)
	if m.Ite(m.And(a, b), a, True) != True {
		t.Fatal("a∧b must imply a")
	}
	if m.Ite(a, m.And(a, b), True) == True {
		t.Fatal("a must not imply a∧b")
	}
}

func TestHashConsingShares(t *testing.T) {
	m := New(8)
	before := len(m.nodes)
	f := m.And(m.Var(0), m.Var(1))
	g := m.And(m.Var(0), m.Var(1))
	if f != g {
		t.Fatal("identical functions must share one node")
	}
	after := len(m.nodes)
	h := m.And(m.Var(1), m.Var(0)) // commuted: same function
	if h != f {
		t.Fatal("commuted AND must be canonical")
	}
	if len(m.nodes) != after {
		t.Fatal("no new nodes for an existing function")
	}
	_ = before
}
