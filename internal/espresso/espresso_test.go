package espresso

import (
	"math/rand"
	"slices"
	"testing"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/obs"
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
func MustMinimize(f *Function) *cover.Cover {
	m, err := Minimize(f)
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

// expandedIrredundant returns the OFF-set of f and the expanded,
// irredundant cover of its ON-set that the minimizer's passes start from.
func expandedIrredundant(f *Function, sc *scratch) (F, off *cover.Cover) {
	off = cover.Union(f.On, f.DC).Complement()
	F = f.On.Clone()
	F.SCC()
	F, _ = irredundant(expand(F, off, sc), f.DC, sc)
	return F, off
}

// wideDomains are two-word domains small enough for randomOnDC to
// enumerate: a 61-valued field ending at bit 62 then a binary field at
// bit 63, and a 5-valued field straddling the word boundary (bits
// 61–65) between a 58-valued and a binary field.
var wideDomains = []*cube.Domain{cube.New(2, 61, 2, 3), cube.New(3, 58, 5, 2)}

// passCase is a domain and the number of random functions a pass
// contract is checked on.
type passCase struct {
	d      *cube.Domain
	trials int
}

// withWide returns the one-word case followed by a few trials on each of
// wideDomains.
func withWide(one passCase) []passCase {
	out := []passCase{one}
	for _, d := range wideDomains {
		out = append(out, passCase{d, 3})
	}
	return out
}

// makeSparse keeps the cube count and the function, and only lowers bits:
// each output cube lies inside the input cube at its index.
func TestMakeSparseKeepsFunction(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	sc := new(scratch)
	for _, pc := range withWide(passCase{cube.WithOutputs(4, 3), 20}) {
		d := pc.d
		for trial := 0; trial < pc.trials; trial++ {
			on, dc := randomOnDC(d, r)
			f := &Function{D: d, On: on, DC: dc}
			F, _ := expandedIrredundant(f, sc)
			sparse := makeSparse(F, dc, sc)
			if err := Verify(sparse, f); err != nil {
				t.Fatalf("%v\ncover:\n%s\nsparse:\n%s", err, F, sparse)
			}
			if sparse.Len() != F.Len() {
				t.Fatalf("sparse pass changed the cube count: %d vs %d", sparse.Len(), F.Len())
			}
			for i, c := range sparse.Cubes {
				if !d.Contains(F.Cubes[i], c) {
					t.Fatalf("sparse pass raised a bit: %s -> %s", d.String(F.Cubes[i]), d.String(c))
				}
			}
		}
	}
}

// makeSparseByValue is the sparse pass makeSparse replaced, kept as its
// twin: one CoversCube of the rest per value of each multi-valued field,
// on the cube restricted to that value.
func makeSparseByValue(F *cover.Cover, dc *cover.Cover, sc *scratch) *cover.Cover {
	d := F.D
	out := F.Clone()
	restricted := d.NewCube()
	for i, c := range out.Cubes {
		rest := sc.restOf(d, out.Cubes, i, dc)
		for v := 0; v < d.NumVars(); v++ {
			if d.Size(v) == 2 || d.PartCount(c, v) <= 1 {
				continue
			}
			for val := 0; val < d.Size(v); val++ {
				if !d.Has(c, v, val) || d.PartCount(c, v) == 1 {
					continue
				}
				copy(restricted, c)
				d.Restrict(restricted, v, val)
				if rest.CoversCube(restricted) {
					d.ClearVal(c, v, val)
				}
			}
		}
	}
	return out
}

var tautologyNodes = obs.Default.Counter("cover.tautology_nodes")

// makeSparse lowers the same values as its per-value twin, and its
// value tests run the same recursion: the covers are equal cube for cube
// and the cover.tautology_nodes deltas are equal.
func TestMakeSparseMatchesByValue(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	sc := new(scratch)
	lowered, ran := 0, int64(0)
	for _, pc := range withWide(passCase{cube.WithOutputs(4, 3), 20}) {
		d := pc.d
		for trial := 0; trial < pc.trials; trial++ {
			on, dc := randomOnDC(d, r)
			F, _ := expandedIrredundant(&Function{D: d, On: on, DC: dc}, sc)
			n0 := tautologyNodes.Value()
			want := makeSparseByValue(F, dc, sc)
			n1 := tautologyNodes.Value()
			got := makeSparse(F, dc, sc)
			n2 := tautologyNodes.Value()
			for i := range want.Cubes {
				if !slices.Equal(got.Cubes[i], want.Cubes[i]) {
					t.Fatalf("%d words: cube %d lowered to %s, per value to %s",
						d.Words(), i, d.String(got.Cubes[i]), d.String(want.Cubes[i]))
				}
				if !slices.Equal(F.Cubes[i], want.Cubes[i]) {
					lowered++
				}
			}
			if n2-n1 != n1-n0 {
				t.Fatalf("%d words: makeSparse ran %d tautology nodes, per value %d", d.Words(), n2-n1, n1-n0)
			}
			ran += n1 - n0
		}
	}
	if lowered == 0 || ran == 0 {
		t.Fatalf("%d cubes lowered, %d tautology nodes run: the comparison checked nothing", lowered, ran)
	}
}

// lastGasp never returns a costlier cover, and what it returns keeps the
// function.
func TestLastGaspNeverWorsens(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	d := cube.Binary(6)
	sc := new(scratch)
	for trial := 0; trial < 15; trial++ {
		on, dc := randomOnDC(d, r)
		f := &Function{D: d, On: on, DC: dc}
		F, off := expandedIrredundant(f, sc)
		G, _ := lastGasp(F, dc, off, sc)
		if err := Verify(G, f); err != nil {
			t.Fatal(err)
		}
		if coverCost(F).less(coverCost(G)) {
			t.Fatalf("last gasp made the cover costlier: %v vs %v", coverCost(G), coverCost(F))
		}
	}
}

func TestMinimizeIrredundant(t *testing.T) {
	// No cube of the result may be covered by the rest plus DC.
	r := rand.New(rand.NewSource(6))
	for _, pc := range withWide(passCase{cube.Binary(5), 15}) {
		d := pc.d
		for trial := 0; trial < pc.trials; trial++ {
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
}

// extractEssentialsFull is the split extractEssentials made before it
// took irredundant's verdicts, kept as its twin: every cube tested
// against the rest of F plus DC.
func extractEssentialsFull(F *cover.Cover, dc *cover.Cover, sc *scratch) (ess, rest *cover.Cover) {
	ess = cover.New(F.D)
	rest = cover.New(F.D)
	for i, c := range F.Cubes {
		if sc.restOf(F.D, F.Cubes, i, dc).CoversCube(c) {
			rest.Add(c)
		} else {
			ess.Add(c)
		}
	}
	return ess, rest
}

// extractEssentials, given irredundant's verdicts, makes the split the
// full test makes, cube for cube and in order, on random functions of
// one and two words. It runs on irredundant's output S, where the cubes
// after the verdicts are nearly always relatively essential as well, and
// on S with the cubes irredundant dropped put right after the verdicts:
// a subcover of irredundant's input still, so the verdicts hold, but its
// first cube past them is one the rest covers.
func TestExtractEssentialsReusesVerdicts(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	sc := new(scratch)
	skipped, tested, covered := 0, 0, 0
	cases := append(withWide(passCase{cube.Binary(5), 30}), passCase{cube.WithOutputs(4, 3), 30}, passCase{cube.New(3, 2, 2), 30})
	for _, pc := range cases {
		d := pc.d
		for trial := 0; trial < pc.trials; trial++ {
			on, dc := randomOnDC(d, r)
			off := cover.Union(on, dc).Complement()
			F := on.Clone()
			F.SCC()
			G := expand(F, off, sc)
			S, proved := irredundant(G, dc, sc)
			withDropped := cover.New(d)
			withDropped.Cubes = append(withDropped.Cubes, S.Cubes[:proved]...)
			for _, g := range G.Cubes {
				if !slices.ContainsFunc(S.Cubes, func(c cube.Cube) bool { return slices.Equal(c, g) }) {
					withDropped.Add(g)
				}
			}
			withDropped.Cubes = append(withDropped.Cubes, S.Cubes[proved:]...)
			for _, F := range []*cover.Cover{S, withDropped} {
				wantEss, wantRest := extractEssentialsFull(F, dc, sc)
				ess, rest := extractEssentials(F, dc, proved, sc)
				if !slices.EqualFunc(ess.Cubes, wantEss.Cubes, slices.Equal) || !slices.EqualFunc(rest.Cubes, wantRest.Cubes, slices.Equal) {
					t.Fatalf("%d words, %d proved: split\n%s\n--\n%s\nwant\n%s\n--\n%s", d.Words(), proved, ess, rest, wantEss, wantRest)
				}
				skipped += proved
				tested += F.Len() - proved
				covered += rest.Len()
			}
		}
	}
	if skipped == 0 || tested == 0 || covered == 0 {
		t.Fatalf("%d cubes taken from verdicts, %d tested, %d covered: the comparison missed a case", skipped, tested, covered)
	}
}
