package exact

import (
	"math/rand"
	"testing"

	"picola/internal/cover"
	"picola/internal/covering"
	"picola/internal/cube"
	"picola/internal/espresso"
)

func TestMinimizeKnownSingleOutput(t *testing.T) {
	d := cube.Binary(3)
	// f = m(0,1,3,5,7): optimum is 2 cubes (00- + --1).
	f := &espresso.Function{D: d, On: cover.FromStrings(d, "000", "001", "011", "101", "111")}
	min, proven, err := Minimize(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := espresso.Verify(min, f); err != nil {
		t.Fatal(err)
	}
	if !proven || min.Len() != 2 {
		t.Fatalf("exact minimum is 2 cubes, got %d:\n%s", min.Len(), min)
	}
}

func TestMinimizeWithDontCares(t *testing.T) {
	d := cube.Binary(4)
	// ON corners of a face with the rest DC collapse to one cube.
	f := &espresso.Function{
		D:  d,
		On: cover.FromStrings(d, "0000", "0011"),
		DC: cover.FromStrings(d, "0001", "0010"),
	}
	min, proven, err := Minimize(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !proven || min.Len() != 1 {
		t.Fatalf("want 1 cube, proven, got (proven %v):\n%s", proven, min)
	}
}

func TestMinimizeMultiOutputSharing(t *testing.T) {
	// Two outputs sharing a common product term: the exact cover uses the
	// shared implicant.
	d := cube.WithOutputs(2, 3)
	f := &espresso.Function{D: d, On: cover.FromStrings(d,
		"00[110]", // both f0 and f1 at 00
		"01[100]",
		"11[010]",
	)}
	min, _, err := Minimize(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := espresso.Verify(min, f); err != nil {
		t.Fatal(err)
	}
	if min.Len() > 3 {
		t.Fatalf("exact cover too large:\n%s", min)
	}
}

func TestMinimizeEmptyAndFull(t *testing.T) {
	d := cube.Binary(3)
	min, proven, err := Minimize(&espresso.Function{D: d, On: cover.New(d)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !proven || min.Len() != 0 {
		t.Fatal("empty function must give an empty cover")
	}
	full := &espresso.Function{D: d, On: cover.FromStrings(d, "---")}
	min, proven, err = Minimize(full, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !proven || min.Len() != 1 {
		t.Fatalf("tautology must be 1 cube, got:\n%s", min)
	}
}

func TestMinimizeRejectsBadShapes(t *testing.T) {
	d := cube.New(3, 2)
	f := &espresso.Function{D: d, On: cover.New(d)}
	if _, _, err := Minimize(f, 2); err == nil {
		t.Fatal("non-binary input variable must be rejected")
	}
	d2 := cube.New(2, 3, 3)
	if _, _, err := Minimize(&espresso.Function{D: d2, On: cover.New(d2)}, 1); err == nil {
		t.Fatal("two output variables must be rejected")
	}
	big := cube.Binary(MaxInputs + 1)
	if _, _, err := Minimize(&espresso.Function{D: big, On: cover.New(big)}, MaxInputs+1); err == nil {
		t.Fatal("oversized input count must be rejected")
	}
}

func randomFunc(r *rand.Rand, d *cube.Domain, inputs int) *espresso.Function {
	on := cover.New(d)
	dc := cover.New(d)
	outVar := -1
	no := 1
	if inputs < d.NumVars() {
		outVar = inputs
		no = d.Size(outVar)
	}
	for x := 0; x < 1<<uint(inputs); x++ {
		for o := 0; o < no; o++ {
			roll := r.Intn(4)
			if roll >= 2 {
				continue
			}
			c := d.NewCube()
			for v := 0; v < inputs; v++ {
				d.Set(c, v, (x>>uint(v))&1)
			}
			if outVar >= 0 {
				d.Set(c, outVar, o)
			}
			if roll == 0 {
				on.Add(c)
			} else {
				dc.Add(c)
			}
		}
	}
	return &espresso.Function{D: d, On: on, DC: dc}
}

// TestExactNeverWorseThanEspresso: the exact cover is equivalent and at
// most as large as the heuristic one.
func TestExactNeverWorseThanEspresso(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	domains := []struct {
		d      *cube.Domain
		inputs int
	}{
		{cube.Binary(4), 4},
		{cube.Binary(5), 5},
		{cube.WithOutputs(3, 3), 3},
		{cube.WithOutputs(4, 2), 4},
	}
	for _, dom := range domains {
		for trial := 0; trial < 25; trial++ {
			f := randomFunc(r, dom.d, dom.inputs)
			ex, proven, err := Minimize(f, dom.inputs)
			if err != nil {
				t.Fatal(err)
			}
			if !proven {
				t.Fatalf("exact search ran out of budget on\n%s", f.On)
			}
			if err := espresso.Verify(ex, f); err != nil {
				t.Fatalf("exact cover invalid: %v\nON:\n%s\nDC:\n%s\ngot:\n%s",
					err, f.On, f.DC, ex)
			}
			heu, err := espresso.Minimize(f)
			if err != nil {
				t.Fatal(err)
			}
			if ex.Len() > heu.Len() {
				t.Fatalf("exact %d > heuristic %d\nON:\n%s", ex.Len(), heu.Len(), f.On)
			}
		}
	}
}

// TestExactCoversArePrimes: every cube of the exact cover is maximal.
func TestExactCoversArePrimes(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	d := cube.Binary(4)
	for trial := 0; trial < 20; trial++ {
		f := randomFunc(r, d, 4)
		ex, _, err := Minimize(f, 4)
		if err != nil {
			t.Fatal(err)
		}
		off := cover.Union(f.On, f.DC).Complement()
		for _, c := range ex.Cubes {
			for v := 0; v < 4; v++ {
				for val := 0; val < 2; val++ {
					if d.Has(c, v, val) {
						continue
					}
					raised := c.Clone()
					d.Set(raised, v, val)
					hit := false
					for _, o := range off.Cubes {
						if d.Intersects(raised, o) {
							hit = true
							break
						}
					}
					if !hit {
						t.Fatalf("non-prime cube %s in exact cover", d.String(c))
					}
				}
			}
		}
	}
}

func TestSolveCoverOptimality(t *testing.T) {
	// A small covering instance with a known optimum of 2:
	// rows: {0,1} {1,2} {0,2} — any two of the three columns cover all.
	rows := [][]int{{0, 1}, {1, 2}, {0, 2}}
	got, _ := covering.Solve(rows, 3)
	if len(got) != 2 {
		t.Fatalf("cover size = %d, want 2", len(got))
	}
	// Essential column: row {3} forces column 3.
	rows2 := [][]int{{0, 1, 2}, {3}}
	got2, _ := covering.Solve(rows2, 4)
	has3 := false
	for _, c := range got2 {
		if c == 3 {
			has3 = true
		}
	}
	if !has3 || len(got2) != 2 {
		t.Fatalf("cover = %v", got2)
	}
}
