package espresso

import (
	"math/rand"
	"testing"

	"picola/internal/cover"
	"picola/internal/cube"
)

func TestMinimizeSimpleMerge(t *testing.T) {
	d := cube.Binary(3)
	f := &Function{D: d, On: cover.FromStrings(d, "000", "001", "010", "011")}
	min, err := Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if min.Len() != 1 || d.String(min.Cubes[0]) != "0--" {
		t.Fatalf("want single cube 0--, got:\n%s", min)
	}
}

func TestMinimizeTautology(t *testing.T) {
	d := cube.Binary(2)
	f := &Function{D: d, On: cover.FromStrings(d, "00", "01", "10", "11")}
	min, err := Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if min.Len() != 1 || d.String(min.Cubes[0]) != "--" {
		t.Fatalf("tautology should reduce to universe, got:\n%s", min)
	}
}

func TestMinimizeEmpty(t *testing.T) {
	d := cube.Binary(3)
	min, err := Minimize(&Function{D: d, On: cover.New(d)})
	if err != nil {
		t.Fatal(err)
	}
	if min.Len() != 0 {
		t.Fatalf("empty ON must stay empty, got:\n%s", min)
	}
}

func TestMinimizeWithDC(t *testing.T) {
	d := cube.Binary(3)
	// ON = {000, 011}, DC = {001, 010}: minimizable to 0--.
	f := &Function{
		D:  d,
		On: cover.FromStrings(d, "000", "011"),
		DC: cover.FromStrings(d, "001", "010"),
	}
	min, err := Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if min.Len() != 1 || d.String(min.Cubes[0]) != "0--" {
		t.Fatalf("want 0--, got:\n%s", min)
	}
	if err := Verify(min, f); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeXor(t *testing.T) {
	d := cube.Binary(2)
	f := &Function{D: d, On: cover.FromStrings(d, "01", "10")}
	min, err := Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if min.Len() != 2 {
		t.Fatalf("xor needs two cubes, got:\n%s", min)
	}
	if err := Verify(min, f); err != nil {
		t.Fatal(err)
	}
}

func TestMinimizeInconsistent(t *testing.T) {
	d := cube.Binary(2)
	f := &Function{
		D:   d,
		On:  cover.FromStrings(d, "0-"),
		Off: cover.FromStrings(d, "00"),
	}
	if _, err := Minimize(f); err == nil {
		t.Fatal("overlapping ON and OFF must be rejected")
	}
}

func TestMinimizeFRStyle(t *testing.T) {
	d := cube.Binary(3)
	// fr-style: ON and OFF given, rest implicitly DC.
	f := &Function{
		D:   d,
		On:  cover.FromStrings(d, "000", "011"),
		Off: cover.FromStrings(d, "1--"),
	}
	min, err := Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	// 001 and 010 are DC, so the single cube 0-- is reachable.
	if min.Len() != 1 || d.String(min.Cubes[0]) != "0--" {
		t.Fatalf("want 0--, got:\n%s", min)
	}
}

func TestMinimizeMultiOutput(t *testing.T) {
	// 2 inputs, 3 outputs as one MV output variable.
	d := cube.WithOutputs(2, 3)
	// f0 = a', f1 = a'b' + ab, f2 = a'b'
	f := &Function{D: d, On: cover.FromStrings(d,
		"00[111]", // a'b' asserts all three outputs
		"01[100]", // a'b asserts f0
		"11[010]", // ab asserts f1
	)}
	min, err := Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(min, f); err != nil {
		t.Fatal(err)
	}
	// Optimal multi-output cover: a'b'[11] shared + a'b[10]... espresso may
	// find 0-[10], 00[11]... any ≤3-cube equivalent cover is acceptable;
	// original already has 3.
	if min.Len() > 3 {
		t.Fatalf("expected at most 3 cubes, got:\n%s", min)
	}
}

func TestMinimizeMVInput(t *testing.T) {
	// One 4-valued symbolic input and one binary input.
	d := cube.New(4, 2)
	// ON: symbol in {0,1} with x=1, symbol in {2} any x.
	f := &Function{D: d, On: cover.FromStrings(d, "[1000]1", "[0100]1", "[0010]0", "[0010]1")}
	min, err := Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(min, f); err != nil {
		t.Fatal(err)
	}
	if min.Len() != 2 {
		t.Fatalf("want 2 cubes ([1100]1 and [0010]-), got:\n%s", min)
	}
}

// MustMinimize is Minimize that panics on inconsistent input, for tests
// whose ON and DC sets are disjoint by construction.
func MustMinimize(f *Function, opts ...Options) *cover.Cover {
	m, err := Minimize(f, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

func randomOnDC(d *cube.Domain, r *rand.Rand) (on, dc *cover.Cover) {
	on = cover.New(d)
	dc = cover.New(d)
	// Random truth table over the domain's minterms.
	var rec func(v int, c cube.Cube)
	rec = func(v int, c cube.Cube) {
		if v == d.NumVars() {
			switch r.Intn(4) {
			case 0, 1:
				on.Add(c.Clone())
			case 2:
				dc.Add(c.Clone())
			}
			return
		}
		for val := 0; val < d.Size(v); val++ {
			d.Restrict(c, v, val)
			rec(v+1, c)
			d.SetAll(c, v)
		}
	}
	rec(0, d.Universe())
	return on, dc
}

func TestMinimizeRandomVerified(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	domains := []*cube.Domain{
		cube.Binary(4),
		cube.Binary(5),
		cube.New(3, 2, 2),
		cube.New(5, 2),
		cube.WithOutputs(3, 2),
	}
	for _, d := range domains {
		for trial := 0; trial < 25; trial++ {
			on, dc := randomOnDC(d, r)
			f := &Function{D: d, On: on, DC: dc}
			min, err := Minimize(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(min, f); err != nil {
				t.Fatalf("%v\nON:\n%s\nDC:\n%s\nmin:\n%s", err, on, dc, min)
			}
			if min.Len() > on.Len() {
				t.Fatalf("minimized cover larger than input: %d > %d", min.Len(), on.Len())
			}
		}
	}
}

func TestMinimizeKnownOptimal(t *testing.T) {
	// f = a'b'c' + a'b'c + a'bc + ab'c + abc  (classic example)
	// Optimal two-level: a'b' + c  (2 cubes).
	d := cube.Binary(3)
	f := &Function{D: d, On: cover.FromStrings(d, "000", "001", "011", "101", "111")}
	min, err := Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(min, f); err != nil {
		t.Fatal(err)
	}
	if min.Len() != 2 {
		t.Fatalf("want 2 cubes, got %d:\n%s", min.Len(), min)
	}
}

func TestMinimizeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	d := cube.Binary(5)
	for trial := 0; trial < 10; trial++ {
		on, dc := randomOnDC(d, r)
		f := &Function{D: d, On: on, DC: dc}
		min1 := MustMinimize(f)
		min2 := MustMinimize(&Function{D: d, On: min1, DC: dc})
		if min2.Len() > min1.Len() {
			t.Fatalf("second pass grew the cover: %d -> %d", min1.Len(), min2.Len())
		}
	}
}

func TestExpandProducesPrimes(t *testing.T) {
	// After minimization every cube must be prime: raising any further bit
	// must hit the OFF-set.
	r := rand.New(rand.NewSource(5))
	d := cube.Binary(4)
	for trial := 0; trial < 20; trial++ {
		on, dc := randomOnDC(d, r)
		if on.Len() == 0 {
			continue
		}
		f := &Function{D: d, On: on, DC: dc}
		off := cover.Union(on, dc).Complement()
		min := MustMinimize(f)
		for _, c := range min.Cubes {
			for v := 0; v < d.NumVars(); v++ {
				for val := 0; val < d.Size(v); val++ {
					if d.Has(c, v, val) {
						continue
					}
					raised := c.Clone()
					d.Set(raised, v, val)
					intersectsOff := false
					for _, o := range off.Cubes {
						if d.Intersects(raised, o) {
							intersectsOff = true
							break
						}
					}
					if !intersectsOff {
						t.Fatalf("cube %s is not prime: can raise var %d val %d",
							d.String(c), v, val)
					}
				}
			}
		}
	}
}

func TestMakeSparseLowersOutputs(t *testing.T) {
	// Two cubes where the second redundantly asserts output 0 on a region
	// the first already covers: sparse lowering must drop it.
	d := cube.WithOutputs(2, 3)
	f := &Function{D: d, On: cover.FromStrings(d,
		"0-[100]", // f0 over a'
		"00[110]", // f0 (redundant here) and f1 at a'b'
	)}
	min, err := Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(min, f); err != nil {
		t.Fatal(err)
	}
	// The cube asserting output 1 must no longer assert output 0.
	for _, c := range min.Cubes {
		if d.Has(c, 2, 1) && d.Has(c, 2, 0) {
			t.Fatalf("sparse pass left a redundant output assertion:\n%s", min)
		}
	}
}

func TestMakeSparseKeepsFunction(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	d := cube.WithOutputs(4, 3)
	for trial := 0; trial < 20; trial++ {
		on, dc := randomOnDC(d, r)
		f := &Function{D: d, On: on, DC: dc}
		withSparse := MustMinimize(f)
		withoutSparse := MustMinimize(f, Options{SkipMakeSparse: true})
		if err := Verify(withSparse, f); err != nil {
			t.Fatal(err)
		}
		if withSparse.Len() != withoutSparse.Len() {
			t.Fatalf("sparse pass changed the cube count: %d vs %d",
				withSparse.Len(), withoutSparse.Len())
		}
		if totalBits(withSparse) > totalBits(withoutSparse) {
			t.Fatal("sparse pass increased asserted bits")
		}
	}
}

// totalBits sums the set bits over a cover's cubes.
func totalBits(f *cover.Cover) int {
	n := 0
	for _, c := range f.Cubes {
		n += cube.SetBits(c)
	}
	return n
}

func TestLastGaspNeverWorsens(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	d := cube.Binary(6)
	for trial := 0; trial < 15; trial++ {
		on, dc := randomOnDC(d, r)
		f := &Function{D: d, On: on, DC: dc}
		with := MustMinimize(f)
		without := MustMinimize(f, Options{SkipLastGasp: true})
		if err := Verify(with, f); err != nil {
			t.Fatal(err)
		}
		if with.Len() > without.Len() {
			t.Fatalf("last gasp made the cover larger: %d vs %d", with.Len(), without.Len())
		}
	}
}

func TestMinimizeIrredundant(t *testing.T) {
	// No cube of the result may be covered by the rest plus DC.
	r := rand.New(rand.NewSource(6))
	d := cube.Binary(5)
	for trial := 0; trial < 15; trial++ {
		on, dc := randomOnDC(d, r)
		f := &Function{D: d, On: on, DC: dc}
		min := MustMinimize(f)
		for i := range min.Cubes {
			rest := cover.Union(min.Without(i), dc)
			if rest.CoversCube(min.Cubes[i]) {
				t.Fatalf("cube %s is redundant", d.String(min.Cubes[i]))
			}
		}
	}
}
