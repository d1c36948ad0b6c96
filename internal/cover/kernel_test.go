package cover

import (
	"math/rand"
	"slices"
	"testing"

	"picola/internal/cube"
)

// tautologyGeneric is the reference unate recursion the kernel
// (kernel.go) mirrors decision-for-decision: quick accept on a universal
// cube, quick reject on a value no cube allows, split on activeVar in
// value order, one fresh *Cover per cofactor. It counts
// cover.tautology_nodes exactly as the kernel does.
func tautologyGeneric(f *Cover) bool {
	mTautologyNodes.Inc()
	d := f.D
	// Quick accept: a universal cube.
	for _, c := range f.Cubes {
		if d.FullParts(c) == d.NumVars() {
			return true
		}
	}
	if len(f.Cubes) == 0 {
		return false
	}
	// Quick reject: some value appears in no cube.
	or := d.NewCube()
	for _, c := range f.Cubes {
		d.Supercube(or, or, c)
	}
	for v := 0; v < d.NumVars(); v++ {
		if !d.PartFull(or, v) {
			return false
		}
	}
	v := f.activeVar()
	if v < 0 {
		// No active variable and no universal cube can only happen with an
		// empty cover, handled above; every remaining cube is universal.
		return true
	}
	for val := 0; val < d.Size(v); val++ {
		vc := d.ValueCube(v, val)
		if !tautologyGeneric(f.Cofactor(vc)) {
			return false
		}
	}
	return true
}

// coversCubeGeneric is the reference CoversCube: the cofactor by c,
// materialized, then the reference recursion.
func coversCubeGeneric(f *Cover, c cube.Cube) bool {
	return tautologyGeneric(f.Cofactor(c))
}

// randCover builds a random cover of up to maxCubes cubes over d, with
// mostly non-empty fields.
func randCover(rng *rand.Rand, d *cube.Domain, maxCubes int) *Cover {
	f := New(d)
	n := rng.Intn(maxCubes + 1)
	for i := 0; i < n; i++ {
		c := d.NewCube()
		for v := 0; v < d.NumVars(); v++ {
			for val := 0; val < d.Size(v); val++ {
				if rng.Intn(3) != 0 {
					d.Set(c, v, val)
				}
			}
			if d.PartCount(c, v) == 0 && rng.Intn(8) != 0 {
				d.Set(c, v, rng.Intn(d.Size(v)))
			}
		}
		f.Add(c)
	}
	return f
}

// randWideDomain builds a random domain of exactly words words (at least
// two) mixing binary and multi-valued fields, so fields straddling a word
// boundary occur regularly; one in three starts with 63 bits of fields
// so that a binary field sits at bit 63, half of them through 31 binary
// fields after a 1-valued one.
func randWideDomain(rng *rand.Rand, words int) *cube.Domain {
	lo, hi := 64*(words-1)+1, 64*words
	target := lo + rng.Intn(hi-lo+1)
	var sizes []int
	bits := 0
	if rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			sizes = append([]int{1}, repeatSizes(2, 31)...)
		} else {
			sizes = []int{63}
		}
		sizes = append(sizes, 2)
		bits = 65
	}
	for bits < target {
		s := 2
		if rng.Intn(2) == 0 {
			s = 1 + rng.Intn(32)
		}
		s = min(s, hi-bits)
		sizes = append(sizes, s)
		bits += s
	}
	return cube.New(sizes...)
}

// tautCover builds a cover likely to be a tautology, so the recursion
// runs deep: the universe split splits times (a cube's field cut into
// two non-empty parts), some cubes then widened by a random value, and
// one time in three a random cube dropped.
func tautCover(rng *rand.Rand, d *cube.Domain, splits int) *Cover {
	g := New(d)
	g.Add(d.Universe())
	for i := 0; i < splits; i++ {
		c := g.Cubes[rng.Intn(g.Len())]
		v := rng.Intn(d.NumVars())
		if d.PartCount(c, v) < 2 {
			continue
		}
		// Move a random non-empty proper subset of c's field v to a copy.
		n := c.Clone()
		d.ClearAll(n, v)
		var vals []int
		for val := 0; val < d.Size(v); val++ {
			if d.Has(c, v, val) {
				vals = append(vals, val)
			}
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for _, val := range vals[:1+rng.Intn(len(vals)-1)] {
			d.ClearVal(c, v, val)
			d.Set(n, v, val)
		}
		g.Add(n)
	}
	for _, c := range g.Cubes {
		if rng.Intn(4) == 0 {
			v := rng.Intn(d.NumVars())
			d.Set(c, v, rng.Intn(d.Size(v)))
		}
	}
	if rng.Intn(3) == 0 {
		g = g.Without(rng.Intn(g.Len()))
	}
	rng.Shuffle(g.Len(), func(i, j int) { g.Cubes[i], g.Cubes[j] = g.Cubes[j], g.Cubes[i] })
	return g
}

// addEmptyCube appends to f a cube that is empty in one random field and
// otherwise the universe narrowed to one value in one more random field,
// so that it meets every cube except in its empty field: the case where
// only the full every-field test drops it.
func addEmptyCube(rng *rand.Rand, f *Cover) {
	d := f.D
	c := d.Universe()
	v := rng.Intn(d.NumVars())
	d.Restrict(c, v, rng.Intn(d.Size(v)))
	d.ClearAll(c, rng.Intn(d.NumVars()))
	f.Add(c)
}

// nodes runs fn and returns its answer with the cover.tautology_nodes
// delta it caused.
func nodes(fn func() bool) (bool, int64) {
	n0 := mTautologyNodes.Value()
	ok := fn()
	return ok, mTautologyNodes.Value() - n0
}

// checkKernelParity runs Tautology and CoversCube on f through the
// kernel and through the reference recursion, and requires equal answers
// and equal cover.tautology_nodes deltas.
func checkKernelParity(t *testing.T, rng *rand.Rand, f *Cover) {
	t.Helper()
	d := f.D
	want, wantN := nodes(func() bool { return tautologyGeneric(f) })
	got, gotN := nodes(f.Tautology)
	if got != want || gotN != wantN {
		t.Fatalf("Tautology over %d words (%d vars) on\n%s\nkernel %v (%d nodes), reference %v (%d nodes)",
			d.Words(), d.NumVars(), f, got, gotN, want, wantN)
	}
	// Cubes to test containment of: a random one (possibly empty in a
	// field), a cube of f, and a cube of f with one field narrowed.
	cs := randCover(rng, d, 1).Cubes
	if f.Len() > 0 {
		c := f.Cubes[rng.Intn(f.Len())].Clone()
		cs = append(cs, c)
		n := c.Clone()
		v := rng.Intn(d.NumVars())
		d.Restrict(n, v, rng.Intn(d.Size(v)))
		cs = append(cs, n)
	}
	for _, c := range cs {
		want, wantN := nodes(func() bool { return coversCubeGeneric(f, c) })
		got, gotN := nodes(func() bool { return f.CoversCube(c) })
		if got != want || gotN != wantN {
			t.Fatalf("CoversCube(%s) over %d words on\n%s\nkernel %v (%d nodes), reference %v (%d nodes)",
				d.String(c), d.Words(), f, got, gotN, want, wantN)
		}
	}
}

// checkRandomCoverParity runs checkKernelParity on the k-th random cover
// of at most maxCubes cubes over d: tautCover's for odd k, randCover's
// otherwise, and holding a cube empty in a field at the top level
// (addEmptyCube) when k is a multiple of three.
func checkRandomCoverParity(t *testing.T, rng *rand.Rand, d *cube.Domain, k, maxCubes int) {
	t.Helper()
	f := randCover(rng, d, maxCubes)
	if k%2 == 1 {
		f = tautCover(rng, d, 1+rng.Intn(maxCubes))
	}
	if k%3 == 0 {
		addEmptyCube(rng, f)
	}
	checkKernelParity(t, rng, f)
}

// TestTautologyKernelMatchesGeneric cross-checks the kernel against the
// reference recursion on random one-word domains: results must match
// and, because the kernel mirrors the reference decision structure, so
// must the tautology_nodes metric increments. The domains are up to six
// binary fields, a third of them behind a field of one to four values.
// TestTautologyKernelWideMatchesGeneric runs the same check at two to six
// words.
func TestTautologyKernelMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		nv := 1 + rng.Intn(6)
		d := cube.Binary(nv)
		if rng.Intn(3) == 0 {
			d = cube.New(append([]int{1 + rng.Intn(4)}, repeatSizes(2, nv)...)...)
		}
		if d.Words() != 1 {
			t.Fatalf("one-word test domain built %d words", d.Words())
		}
		checkRandomCoverParity(t, rng, d, iter, 12)
	}
}

// TestTautologyKernelWideMatchesGeneric is the same cross-check on
// randWideDomain's domains of two to six words: binary and multi-valued
// fields, fields straddling a word boundary and a binary field at bit 63
// in a third of them.
func TestTautologyKernelWideMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 1500; iter++ {
		words := 2 + iter%5
		d := randWideDomain(rng, words)
		if d.Words() != words {
			t.Fatalf("randWideDomain(%d) built %d words", words, d.Words())
		}
		checkRandomCoverParity(t, rng, d, iter/5, 10)
	}
}

// TestOneFieldLemma checks the lemma the W-word kernel's cofactors below
// the entry rest on (kernel.go): over a cover whose cubes are non-empty
// in every field, the cofactor by the value cube of (v, val) keeps exactly
// the cubes whose field v holds val, with field v made full — the
// result of Cover.Cofactor, cube for cube — and every cube it keeps is
// again non-empty in every field.
func TestOneFieldLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 300; iter++ {
		d := randWideDomain(rng, 2+rng.Intn(4))
		if iter%4 == 0 {
			d = cube.New(append([]int{1 + rng.Intn(5)}, repeatSizes(2, 1+rng.Intn(20))...)...)
		}
		f := randCover(rng, d, 12)
		f.dropEmpty()
		full := d.FullWords()
		var s tautW
		var flat []uint64
		for _, c := range f.Cubes {
			for i, m := range full {
				flat = append(flat, c[i]&m)
			}
		}
		for v := 0; v < d.NumVars(); v++ {
			val := rng.Intn(d.Size(v))
			fv := d.NewCube()
			d.SetAll(fv, v)
			s.buf = s.buf[:0]
			s.cofactorValue(flat, d.BitOf(v, val), fv)
			var want []uint64
			for _, c := range f.Cofactor(d.ValueCube(v, val)).Cubes {
				want = append(want, c...)
			}
			if !slices.Equal(s.buf, want) {
				t.Fatalf("one-field cofactor by (%d,%d) over %d words differs from Cofactor on\n%s", v, val, d.Words(), f)
			}
			for j := 0; j < len(want); j += d.Words() {
				if d.IsEmpty(want[j : j+d.Words()]) {
					t.Fatalf("cofactor by (%d,%d) kept a cube with an empty field", v, val)
				}
			}
		}
	}
}

// TestAllocsCoversCube is CoversCube's allocation gate: on a warmed pool,
// one CoversCube performs zero heap allocations, both on a one-word
// domain (6 binary inputs, a 9-valued output field) and on a six-word
// symbolic-cover-shaped domain (27 binary inputs, a 121-valued state
// field, a 177-valued output field — scf's layout). The cube narrows the
// field before the output field to one value, so the recursion runs
// below the entry on both.
func TestAllocsCoversCube(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	rng := rand.New(rand.NewSource(5))
	for _, d := range []*cube.Domain{
		cube.WithOutputs(6, 9),
		cube.New(append(repeatSizes(2, 27), 121, 177)...),
	} {
		f := tautCover(rng, d, 40)
		c := d.Universe()
		d.Restrict(c, d.NumVars()-2, 1)
		f.CoversCube(c) // warm the pool
		if n := testing.AllocsPerRun(100, func() { f.CoversCube(c) }); n != 0 {
			t.Fatalf("warmed CoversCube over %d words allocates %.1f times per call, want 0", d.Words(), n)
		}
	}
}

// dropCoveredValuesByValue is the per-value loop DropCoveredValues
// replaced (espresso's makeSparse ran it), kept as its twin: in value
// order, while field v keeps two or more values, one CoversCube per value
// on c restricted to it.
func dropCoveredValuesByValue(f *Cover, c cube.Cube, v int) {
	d := f.D
	r := d.NewCube()
	for val := 0; val < d.Size(v); val++ {
		if !d.Has(c, v, val) || d.PartCount(c, v) == 1 {
			continue
		}
		copy(r, c)
		d.Restrict(r, v, val)
		if f.CoversCube(r) {
			d.ClearVal(c, v, val)
		}
	}
}

// randNonEmptyCube returns a random cube with every field non-empty.
func randNonEmptyCube(rng *rand.Rand, d *cube.Domain) cube.Cube {
	c := d.NewCube()
	for v := 0; v < d.NumVars(); v++ {
		for val := 0; val < d.Size(v); val++ {
			if rng.Intn(3) != 0 {
				d.Set(c, v, val)
			}
		}
		if d.PartCount(c, v) == 0 {
			d.Set(c, v, rng.Intn(d.Size(v)))
		}
	}
	return c
}

// TestDropCoveredValuesMatchesByValue replays DropCoveredValues against
// its per-value twin on random covers of one to six words — single-word
// domains of fields of one to eight values, and randWideDomain's, with
// straddling fields and a binary field at bit 63 — and demands the same
// cleared values and the same cover.tautology_nodes delta. Every field of
// the cube is lowered in turn, as makeSparse does, so later fields see a
// cube whose earlier fields have lost values; the cube is random or a
// cube of the cover with one field widened, so that some of its values
// are covered and some are not.
func TestDropCoveredValuesMatchesByValue(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 600; iter++ {
		var d *cube.Domain
		if words := 1 + iter%6; words == 1 {
			sizes := make([]int, 2+rng.Intn(7))
			for i := range sizes {
				sizes[i] = 1 + rng.Intn(8)
			}
			d = cube.New(sizes...)
		} else {
			d = randWideDomain(rng, words)
		}
		f := randCover(rng, d, 12)
		if iter%2 == 1 {
			f = tautCover(rng, d, 1+rng.Intn(12))
		}
		if iter%3 == 0 {
			addEmptyCube(rng, f)
		}
		c := randNonEmptyCube(rng, d)
		if iter%4 < 2 && f.Len() > 0 {
			if k := f.Cubes[rng.Intn(f.Len())]; !d.IsEmpty(k) {
				c = k.Clone()
				d.SetAll(c, rng.Intn(d.NumVars()))
			}
		}
		want, got := c.Clone(), c.Clone()
		for v := 0; v < d.NumVars(); v++ {
			_, wantN := nodes(func() bool { dropCoveredValuesByValue(f, want, v); return true })
			_, gotN := nodes(func() bool { f.DropCoveredValues(got, v); return true })
			if !slices.Equal(got, want) || gotN != wantN {
				t.Fatalf("DropCoveredValues(%s, %d) over %d words on\n%s\ngot %s (%d nodes), per value %s (%d nodes)",
					d.String(c), v, d.Words(), f, d.String(got), gotN, d.String(want), wantN)
			}
		}
	}
}

// TestAllocsDropCoveredValues is DropCoveredValues' allocation gate: on a
// warmed pool, lowering the output field of a cube performs zero heap
// allocations, on TestAllocsCoversCube's one-word and six-word domains.
func TestAllocsDropCoveredValues(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	rng := rand.New(rand.NewSource(5))
	for _, d := range []*cube.Domain{
		cube.WithOutputs(6, 9),
		cube.New(append(repeatSizes(2, 27), 121, 177)...),
	} {
		f := tautCover(rng, d, 40)
		c0 := d.Universe()
		d.Restrict(c0, 0, 1)
		c := c0.Clone()
		v := d.NumVars() - 1
		run := func() {
			copy(c, c0)
			f.DropCoveredValues(c, v)
		}
		run() // warm the pool
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Fatalf("warmed DropCoveredValues over %d words allocates %.1f times per call, want 0", d.Words(), n)
		}
	}
}

func repeatSizes(s, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// TestTautologyKernelKnownCases pins a few hand-checked covers.
func TestTautologyKernelKnownCases(t *testing.T) {
	d := cube.Binary(3)
	if !FromStrings(d, "0--", "1--").Tautology() {
		t.Fatal("0--|1-- must be a tautology")
	}
	if FromStrings(d, "0--", "10-").Tautology() {
		t.Fatal("0--|10- is not a tautology")
	}
	f := FromStrings(d, "0--", "-1-")
	if !f.CoversCube(d.MustParse("01-")) {
		t.Fatal("cover must contain 01-")
	}
	if f.CoversCube(d.MustParse("1--")) {
		t.Fatal("cover must not contain 1--")
	}
}

// BenchmarkCoversCubeOneWord runs CoversCube on single-word covers of an
// espresso-sized shape (6 binary variables, up to 24 cubes).
func BenchmarkCoversCubeOneWord(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := cube.Binary(6)
	type query struct {
		f *Cover
		c cube.Cube
	}
	var qs []query
	for len(qs) < 64 {
		f := tautCover(rng, d, 1+rng.Intn(24))
		if f.Len() == 0 {
			continue
		}
		c := f.Cubes[rng.Intn(f.Len())]
		qs = append(qs, query{f.Without(0), c})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		benchSink = q.f.CoversCube(q.c)
	}
}

var benchSink bool
