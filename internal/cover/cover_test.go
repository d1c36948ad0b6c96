package cover

import (
	"math/rand"
	"testing"

	"picola/internal/cube"
)

// bruteCovered enumerates all minterms of a small binary-ish domain and
// reports which are covered. Works for domains with at most ~20 total
// value combinations worth of enumeration.
func enumerateMinterms(d *cube.Domain) []cube.Cube {
	var out []cube.Cube
	var rec func(v int, c cube.Cube)
	rec = func(v int, c cube.Cube) {
		if v == d.NumVars() {
			out = append(out, c.Clone())
			return
		}
		for val := 0; val < d.Size(v); val++ {
			d.Restrict(c, v, val)
			rec(v+1, c)
			d.SetAll(c, v)
		}
	}
	rec(0, d.Universe())
	return out
}

func coversMintermBrute(f *Cover, m cube.Cube) bool {
	for _, c := range f.Cubes {
		if f.D.Contains(c, m) {
			return true
		}
	}
	return false
}

func randomCover(d *cube.Domain, r *rand.Rand, n int) *Cover {
	f := New(d)
	for i := 0; i < n; i++ {
		c := d.NewCube()
		for v := 0; v < d.NumVars(); v++ {
			for val := 0; val < d.Size(v); val++ {
				if r.Intn(3) > 0 { // bias toward large cubes
					d.Set(c, v, val)
				}
			}
			if d.PartCount(c, v) == 0 {
				d.Set(c, v, r.Intn(d.Size(v)))
			}
		}
		f.Add(c)
	}
	return f
}

func TestTautologySimple(t *testing.T) {
	d := cube.Binary(3)
	if !FromStrings(d, "---").Tautology() {
		t.Fatal("universe must be tautology")
	}
	if New(d).Tautology() {
		t.Fatal("empty cover must not be tautology")
	}
	if !FromStrings(d, "0--", "1--").Tautology() {
		t.Fatal("x' + x must be tautology")
	}
	if FromStrings(d, "0--", "10-").Tautology() {
		t.Fatal("missing 11- must not be tautology")
	}
	if !FromStrings(d, "0--", "-0-", "11-").Tautology() {
		t.Fatal("cover must be tautology")
	}
}

func TestTautologyMV(t *testing.T) {
	d := cube.New(3, 2)
	if !FromStrings(d, "[110]-", "[001]-").Tautology() {
		t.Fatal("partition of MV values must be tautology")
	}
	if FromStrings(d, "[110]-", "[001]0").Tautology() {
		t.Fatal("missing [001]1")
	}
}

func TestTautologyAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	domains := []*cube.Domain{cube.Binary(4), cube.New(2, 3, 2), cube.New(5, 2)}
	for _, d := range domains {
		ms := enumerateMinterms(d)
		for trial := 0; trial < 200; trial++ {
			f := randomCover(d, r, 1+r.Intn(6))
			want := true
			for _, m := range ms {
				if !coversMintermBrute(f, m) {
					want = false
					break
				}
			}
			if got := f.Tautology(); got != want {
				t.Fatalf("tautology mismatch: got %v want %v for\n%s", got, want, f)
			}
		}
	}
}

func TestComplementAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	domains := []*cube.Domain{cube.Binary(4), cube.New(2, 3, 2), cube.New(6)}
	for _, d := range domains {
		ms := enumerateMinterms(d)
		for trial := 0; trial < 150; trial++ {
			f := randomCover(d, r, r.Intn(5))
			g := f.Complement()
			for _, m := range ms {
				inF := coversMintermBrute(f, m)
				inG := coversMintermBrute(g, m)
				if inF == inG {
					t.Fatalf("minterm %s: inF=%v inG=%v\nF:\n%s\nG:\n%s",
						d.String(m), inF, inG, f, g)
				}
			}
		}
	}
}

func TestSharpAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	d := cube.New(2, 3, 2, 2)
	ms := enumerateMinterms(d)
	for trial := 0; trial < 200; trial++ {
		fa := randomCover(d, r, 1)
		fb := randomCover(d, r, 1)
		a, b := fa.Cubes[0], fb.Cubes[0]
		ds := DisjointSharp(d, a, b)
		for _, m := range ms {
			want := d.Contains(a, m) && !d.Contains(b, m)
			inDS := 0
			for _, p := range ds {
				if d.Contains(p, m) {
					inDS++
				}
			}
			if want && inDS != 1 || !want && inDS != 0 {
				t.Fatalf("DisjointSharp covers minterm %s %d times (want %v)",
					d.String(m), inDS, want)
			}
		}
	}
}

func TestSCC(t *testing.T) {
	d := cube.Binary(3)
	f := FromStrings(d, "01-", "011", "0--", "0--", "1~0")
	f.SCC()
	if f.Len() != 1 || d.String(f.Cubes[0]) != "0--" {
		t.Fatalf("SCC result:\n%s", f)
	}
}

func TestCoversCube(t *testing.T) {
	d := cube.Binary(3)
	f := FromStrings(d, "0--", "-1-")
	if !f.CoversCube(d.MustParse("01-")) {
		t.Fatal("01- must be covered")
	}
	if f.CoversCube(d.MustParse("1--")) {
		t.Fatal("1-- is not fully covered")
	}
	if !f.CoversCube(d.MustParse("11-")) {
		t.Fatal("11- must be covered")
	}
}

func TestCoversAndEquivalent(t *testing.T) {
	d := cube.Binary(3)
	f := FromStrings(d, "0--", "1--")
	g := FromStrings(d, "---")
	if !Equivalent(f, g) {
		t.Fatal("x'+x must equal universe")
	}
	h := FromStrings(d, "00-")
	if !f.Covers(h) {
		t.Fatal("f covers h")
	}
	if h.Covers(f) {
		t.Fatal("h does not cover f")
	}
}

func TestComplementRoundTrip(t *testing.T) {
	// The complement of a single empty cube is the universe cube.
	if g := FromStrings(cube.Binary(3), "0~1").Complement(); g.String() != "---" {
		t.Fatalf("complement of the empty cube 0~1:\n%s\nwant ---", g)
	}
	r := rand.New(rand.NewSource(11))
	d := cube.Binary(6)
	for trial := 0; trial < 30; trial++ {
		f := randomCover(d, r, 4)
		g := f.Complement()
		// f ∪ g must be a tautology and f ∩ g empty.
		if !Union(f, g).Tautology() {
			t.Fatal("f ∪ ¬f must be tautology")
		}
		for _, a := range f.Cubes {
			for _, b := range g.Cubes {
				if d.Intersects(a, b) {
					t.Fatalf("f ∩ ¬f non-empty: %s ∩ %s", d.String(a), d.String(b))
				}
			}
		}
	}
}

func TestWithout(t *testing.T) {
	d := cube.Binary(2)
	f := FromStrings(d, "0-", "1-", "--")
	g := f.Without(1)
	if g.Len() != 2 || d.String(g.Cubes[0]) != "0-" || d.String(g.Cubes[1]) != "--" {
		t.Fatalf("Without:\n%s", g)
	}
	if f.Len() != 3 {
		t.Fatal("Without must not mutate the receiver")
	}
}
