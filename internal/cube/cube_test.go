package cube

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Minterms returns the number of minterms in c, saturating at
// math.MaxUint64. An empty cube has zero minterms.
func (d *Domain) Minterms(c Cube) uint64 {
	n := uint64(1)
	for v := range d.sizes {
		k := uint64(d.PartCount(c, v))
		if k == 0 {
			return 0
		}
		hi, lo := bits.Mul64(n, k)
		if hi != 0 {
			return ^uint64(0)
		}
		n = lo
	}
	return n
}

func TestSpansSingleWord(t *testing.T) {
	s := spansFor(3, 5)
	if len(s) != 1 || s[0].word != 0 || s[0].mask != 0b11111000 {
		t.Fatalf("spansFor(3,5) = %+v", s)
	}
}

func TestSpansCrossWord(t *testing.T) {
	s := spansFor(60, 10) // bits 60..69: 4 bits in word 0, 6 in word 1
	if len(s) != 2 {
		t.Fatalf("want 2 spans, got %+v", s)
	}
	if s[0].word != 0 || s[0].mask != uint64(0b1111)<<60 {
		t.Errorf("span0 = %+v", s[0])
	}
	if s[1].word != 1 || s[1].mask != uint64(0b111111) {
		t.Errorf("span1 = %+v", s[1])
	}
}

func TestBinaryLiterals(t *testing.T) {
	d := Binary(4)
	c := d.MustParse("01-~")
	if got := d.String(c); got != "01-~" {
		t.Fatalf("roundtrip = %q", got)
	}
	if d.BinLit(c, 0) != LitZero || d.BinLit(c, 1) != LitOne || d.BinLit(c, 2) != LitDC || d.BinLit(c, 3) != LitEmpty {
		t.Fatal("literal decode wrong")
	}
	if !d.IsEmpty(c) {
		t.Fatal("cube with empty part should be empty")
	}
	d.SetBinLit(c, 3, LitDC)
	if d.IsEmpty(c) {
		t.Fatal("cube should be non-empty after filling part")
	}
}

func TestMultiValuedParse(t *testing.T) {
	d := New(2, 5, 2)
	c := d.MustParse("0[10110]-")
	if d.PartCount(c, 1) != 3 {
		t.Fatalf("PartCount = %d", d.PartCount(c, 1))
	}
	if got := d.String(c); got != "0[10110]-" {
		t.Fatalf("roundtrip = %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	d := New(2, 3)
	for _, s := range []string{"", "0", "0[11]", "0[111]x", "x[111]", "0[1x1]", "0[111]0"} {
		if _, err := d.Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestIntersectSupercube(t *testing.T) {
	d := Binary(4)
	a := d.MustParse("01--")
	b := d.MustParse("0-1-")
	got := d.NewCube()
	if !d.Intersect(got, a, b) {
		t.Fatal("expected non-empty intersection")
	}
	if s := d.String(got); s != "011-" {
		t.Fatalf("intersection = %q", s)
	}
	d.Supercube(got, a, b)
	if s := d.String(got); s != "0---" {
		t.Fatalf("supercube = %q", s)
	}
	c := d.MustParse("10--")
	if d.Intersects(a, c) {
		t.Fatal("01-- and 10-- must not intersect")
	}
}

func TestCofactor(t *testing.T) {
	d := Binary(3)
	c := d.MustParse("01-")
	p := d.MustParse("0--")
	out := d.NewCube()
	if !d.Cofactor(out, c, p) {
		t.Fatal("cofactor must exist")
	}
	// Cofactoring by 0-- frees variable 0.
	if s := d.String(out); s != "-1-" {
		t.Fatalf("cofactor = %q", s)
	}
	q := d.MustParse("1--")
	if d.Cofactor(out, c, q) {
		t.Fatal("cofactor of disjoint cubes must not exist")
	}
}

func TestMinterms(t *testing.T) {
	d := Binary(5)
	if n := d.Minterms(d.Universe()); n != 32 {
		t.Fatalf("universe minterms = %d", n)
	}
	c := d.MustParse("01---")
	if n := d.Minterms(c); n != 8 {
		t.Fatalf("minterms = %d", n)
	}
	if n := d.Minterms(d.NewCube()); n != 0 {
		t.Fatalf("empty minterms = %d", n)
	}
	m := New(2, 7)
	c2 := m.MustParse("-[1010101]")
	if n := m.Minterms(c2); n != 8 {
		t.Fatalf("mv minterms = %d", n)
	}
}

func TestFullPartsLiterals(t *testing.T) {
	d := New(2, 2, 5)
	c := d.MustParse("-0[11111]")
	if d.FullParts(c) != 2 {
		t.Fatalf("FullParts = %d", d.FullParts(c))
	}
	if d.Literals(c) != 1 {
		t.Fatalf("Literals = %d", d.Literals(c))
	}
}

func TestValueCubeRestrict(t *testing.T) {
	d := New(3, 2)
	c := d.ValueCube(0, 1)
	if d.PartCount(c, 0) != 1 || !d.Has(c, 0, 1) || !d.PartFull(c, 1) {
		t.Fatalf("ValueCube = %s", d.String(c))
	}
}

// randomCube produces a uniformly random, possibly-empty cube.
func randomCube(d *Domain, r *rand.Rand) Cube {
	c := d.NewCube()
	for v := 0; v < d.NumVars(); v++ {
		for val := 0; val < d.Size(v); val++ {
			if r.Intn(2) == 1 {
				d.Set(c, v, val)
			}
		}
	}
	return c
}

// randomNonEmptyCube produces a random cube with no empty field.
func randomNonEmptyCube(d *Domain, r *rand.Rand) Cube {
	c := d.NewCube()
	for v := 0; v < d.NumVars(); v++ {
		for val := 0; val < d.Size(v); val++ {
			if r.Intn(2) == 1 {
				d.Set(c, v, val)
			}
		}
		if d.PartEmpty(c, v) {
			d.Set(c, v, r.Intn(d.Size(v)))
		}
	}
	return c
}

var testDomains = []*Domain{
	Binary(1),
	Binary(7),
	Binary(70), // multi-word
	New(2, 2, 5, 2),
	New(130),      // single variable spanning three words
	New(3, 66, 2), // unaligned multi-word field
}

func TestPropertySupercubeContainsBoth(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, d := range testDomains {
		for i := 0; i < 200; i++ {
			a := randomNonEmptyCube(d, r)
			b := randomNonEmptyCube(d, r)
			s := d.NewCube()
			d.Supercube(s, a, b)
			if !d.Contains(s, a) || !d.Contains(s, b) {
				t.Fatalf("supercube %s !>= %s, %s", d.String(s), d.String(a), d.String(b))
			}
		}
	}
}

func TestPropertyIntersectionContainedInBoth(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, d := range testDomains {
		for i := 0; i < 200; i++ {
			a := randomNonEmptyCube(d, r)
			b := randomNonEmptyCube(d, r)
			x := d.NewCube()
			nonEmpty := d.Intersect(x, a, b)
			if nonEmpty != d.Intersects(a, b) {
				t.Fatal("Intersect and Intersects disagree")
			}
			if !d.Contains(a, x) || !d.Contains(b, x) {
				t.Fatal("intersection must be contained in both operands")
			}
		}
	}
}

func TestPropertyContainmentPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, d := range testDomains {
		for i := 0; i < 200; i++ {
			a := randomNonEmptyCube(d, r)
			b := randomNonEmptyCube(d, r)
			if !d.Contains(a, a) {
				t.Fatal("containment must be reflexive")
			}
			if d.Contains(a, b) && d.Contains(b, a) && !slices.Equal(a, b) {
				t.Fatal("containment must be antisymmetric")
			}
			s := d.NewCube()
			d.Supercube(s, a, b)
			u := d.Universe()
			if !d.Contains(u, s) {
				t.Fatal("universe must contain everything")
			}
		}
	}
}

func TestPropertyCofactorOfContainedIsUniverse(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, d := range testDomains {
		for i := 0; i < 100; i++ {
			p := randomNonEmptyCube(d, r)
			out := d.NewCube()
			if !d.Cofactor(out, p.Clone(), p) {
				t.Fatal("cube must intersect itself")
			}
			if !slices.Equal(out, d.Universe()) {
				t.Fatalf("cofactor of p by p must be the universe, got %s", d.String(out))
			}
		}
	}
}

func TestPropertyMintermsMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	d := Binary(10)
	for i := 0; i < 300; i++ {
		a := randomNonEmptyCube(d, r)
		b := randomNonEmptyCube(d, r)
		s := d.NewCube()
		d.Supercube(s, a, b)
		if d.Minterms(s) < d.Minterms(a) {
			t.Fatal("supercube cannot have fewer minterms")
		}
	}
}

func TestQuickParseRoundtrip(t *testing.T) {
	d := New(2, 2, 9, 2)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCube(d, r)
		back, err := d.Parse(d.String(c))
		return err == nil && slices.Equal(c, back)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetBits(t *testing.T) {
	d := Binary(4)
	if n := SetBits(d.Universe()); n != 8 {
		t.Fatalf("SetBits(universe) = %d", n)
	}
	if n := SetBits(d.MustParse("01--")); n != 6 {
		t.Fatalf("SetBits = %d", n)
	}
}

func TestClearValRestrict(t *testing.T) {
	d := New(4)
	c := d.Universe()
	d.ClearVal(c, 0, 2)
	if d.Has(c, 0, 2) || d.PartCount(c, 0) != 3 {
		t.Fatal("ClearVal failed")
	}
	d.Restrict(c, 0, 1)
	if d.PartCount(c, 0) != 1 || !d.Has(c, 0, 1) {
		t.Fatal("Restrict failed")
	}
}
