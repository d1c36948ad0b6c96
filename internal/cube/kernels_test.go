package cube

import (
	"math/rand"
	"slices"
	"testing"
)

// The single-word kernels must agree with the generic span path on every
// operation: the generic path is the oracle. These tests run each op on a
// kernel-enabled domain and its Generic() twin over randomized cubes.

// randKernelDomain builds a random single-word domain: either all-binary or
// a mix of variable sizes totaling at most 64 bits.
func randKernelDomain(rng *rand.Rand) *Domain {
	if rng.Intn(2) == 0 {
		return Binary(1 + rng.Intn(16))
	}
	var sizes []int
	bits := 0
	for {
		s := 1 + rng.Intn(7)
		if bits+s > 64 {
			break
		}
		sizes = append(sizes, s)
		bits += s
		if len(sizes) >= 10 && rng.Intn(3) == 0 {
			break
		}
	}
	if len(sizes) == 0 {
		sizes = []int{2}
	}
	return New(sizes...)
}

// randCube fills a fresh cube with random per-variable subsets, biased
// toward non-empty fields but occasionally producing empty ones.
func randCube(rng *rand.Rand, d *Domain) Cube {
	c := d.NewCube()
	for v := 0; v < d.NumVars(); v++ {
		for val := 0; val < d.Size(v); val++ {
			if rng.Intn(3) != 0 {
				d.Set(c, v, val)
			}
		}
		if d.PartEmpty(c, v) && rng.Intn(4) != 0 {
			d.Set(c, v, rng.Intn(d.Size(v)))
		}
	}
	return c
}

// randMultiWordDomain builds a random domain whose bit width lands in
// (64*(words-1), 64*words]: either all-binary or mixed variable sizes, so
// fields straddling word boundaries occur regularly.
func randMultiWordDomain(rng *rand.Rand, words int) *Domain {
	lo, hi := 64*(words-1)+1, 64*words
	if rng.Intn(2) == 0 {
		nv := (lo + 1 + rng.Intn(hi-lo)) / 2
		if 2*nv <= 64*(words-1) {
			nv = 64*(words-1)/2 + 1
		}
		return Binary(nv)
	}
	target := lo + rng.Intn(hi-lo+1)
	var sizes []int
	bits := 0
	for bits < target {
		s := 1 + rng.Intn(9)
		if bits+s > hi {
			s = hi - bits
		}
		sizes = append(sizes, s)
		bits += s
	}
	return New(sizes...)
}

// checkOpsMatchOracle runs the full operation battery on a kernel-enabled
// domain against its Generic() twin with fresh random cubes.
func checkOpsMatchOracle(t *testing.T, rng *rand.Rand, d *Domain) {
	t.Helper()
	g := d.Generic()
	if g.SingleWord() || g.multi {
		t.Fatal("Generic() did not disable the kernels")
	}
	a, b := randCube(rng, d), randCube(rng, d)

	if got, want := d.IsEmpty(a), g.IsEmpty(a); got != want {
		t.Fatalf("IsEmpty(%s): kernel %v oracle %v", g.String(a), got, want)
	}
	if got, want := d.Intersects(a, b), g.Intersects(a, b); got != want {
		t.Fatalf("Intersects(%s,%s): kernel %v oracle %v", g.String(a), g.String(b), got, want)
	}
	if got, want := d.FullParts(a), g.FullParts(a); got != want {
		t.Fatalf("FullParts(%s): kernel %d oracle %d", g.String(a), got, want)
	}
	for v := 0; v < d.NumVars(); v++ {
		if d.PartEmpty(a, v) != g.PartEmpty(a, v) ||
			d.PartFull(a, v) != g.PartFull(a, v) ||
			d.PartCount(a, v) != g.PartCount(a, v) {
			t.Fatalf("Part ops disagree on %s var %d", g.String(a), v)
		}
	}

	kdst, gdst := d.NewCube(), g.NewCube()
	kok, gok := d.Intersect(kdst, a, b), g.Intersect(gdst, a, b)
	if kok != gok || !slices.Equal(kdst, gdst) {
		t.Fatalf("Intersect(%s,%s): kernel (%s,%v) oracle (%s,%v)",
			g.String(a), g.String(b), g.String(kdst), kok, g.String(gdst), gok)
	}

	// Cofactor against a non-empty cube p; dst carries stale garbage
	// bits to exercise the masked write.
	p := randCube(rng, d)
	for v := 0; v < d.NumVars(); v++ {
		if d.PartEmpty(p, v) {
			d.Set(p, v, 0)
		}
	}
	kdst, gdst = randCube(rng, d), d.NewCube()
	copy(gdst, kdst)
	kok, gok = d.Cofactor(kdst, a, p), g.Cofactor(gdst, a, p)
	if kok != gok {
		t.Fatalf("Cofactor(%s,%s): kernel %v oracle %v", g.String(a), g.String(p), kok, gok)
	}
	if kok && !slices.Equal(kdst, gdst) {
		t.Fatalf("Cofactor(%s,%s): kernel %s oracle %s", g.String(a), g.String(p), g.String(kdst), g.String(gdst))
	}

	v := rng.Intn(d.NumVars())
	ka, ga := a.Clone(), a.Clone()
	d.SetAll(ka, v)
	g.SetAll(ga, v)
	if !slices.Equal(ka, ga) {
		t.Fatalf("SetAll(%s,%d): kernel %s oracle %s", g.String(a), v, g.String(ka), g.String(ga))
	}
	d.ClearAll(ka, v)
	g.ClearAll(ga, v)
	if !slices.Equal(ka, ga) {
		t.Fatalf("ClearAll: kernel %s oracle %s", g.String(ka), g.String(ga))
	}

	if got, want := d.Minterms(a), g.Minterms(a); got != want {
		t.Fatalf("Minterms(%s): kernel %d oracle %d", g.String(a), got, want)
	}
}

func TestKernelsMatchGenericOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		d := randKernelDomain(rng)
		if !d.SingleWord() {
			t.Fatalf("randKernelDomain produced a multi-word domain (%d bits)", d.Bits())
		}
		checkOpsMatchOracle(t, rng, d)
	}
}

// randBit63Domain builds a random domain of the given word count whose
// fields put a binary field at bit 63 — straddling words 0 and 1 — after
// either 31 binary fields behind a 1-valued one or one 63-valued field,
// and whose later fields are random sizes.
func randBit63Domain(rng *rand.Rand, words int) *Domain {
	sizes := []int{63}
	if rng.Intn(2) == 0 {
		sizes = append([]int{1}, Binary(31).Sizes()...)
	}
	sizes = append(sizes, 2)
	hi := 64 * words
	for bits := 65; bits < hi-1; {
		s := 2
		if rng.Intn(3) == 0 {
			s = 1 + rng.Intn(9)
		}
		s = min(s, hi-bits)
		sizes = append(sizes, s)
		bits += s
	}
	return New(sizes...)
}

// Every multi-word domain must agree with the generic span path on every
// operation. Only its word-parallel emptiness tests (wide.go) differ from
// the oracle, at every width — fields straddling word boundaries and
// binary fields at bit 63 included. Its per-variable operations run the
// oracle's own span loops, so TestWordParallelFieldTests checks them
// against their definitions instead.
func TestMultiWordKernelsMatchGenericOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 3000; iter++ {
		words := 2 + rng.Intn(5)
		d := randMultiWordDomain(rng, words)
		if iter%2 == 1 {
			d = randBit63Domain(rng, words)
		}
		if d.Words() != words || d.SingleWord() || !d.multi || d.Generic().multi {
			t.Fatalf("%d-word domain (%d bits): %d words, single-word %v, multi %v",
				words, d.Bits(), d.Words(), d.SingleWord(), d.multi)
		}
		checkOpsMatchOracle(t, rng, d)
	}
}

// TestWordParallelFieldTests checks the field operations at every width
// against their per-field definitions, built one value at a time from Has
// and Set: AddNonFull against PartFull, SharedValues against Has,
// DisjointFields against SharedValues, meets against the generic
// Intersects, and PartEmpty, PartFull, PartCount, FullParts, SetAll and
// ClearAll — the span loops of every multi-word domain and the
// single-word kernels — against Has and Set.
func TestWordParallelFieldTests(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 3000; iter++ {
		var d *Domain
		switch words := 1 + iter%6; {
		case words == 1:
			d = randKernelDomain(rng)
		case iter%4 < 2:
			d = randBit63Domain(rng, words)
		default:
			d = randMultiWordDomain(rng, words)
		}
		g := d.Generic()
		a, b := randCube(rng, d), randCube(rng, d)
		cnt := make([]int, d.NumVars())
		d.AddNonFull(cnt, a)
		for v := range cnt {
			want := 0
			if !g.PartFull(a, v) {
				want = 1
			}
			if cnt[v] != want {
				t.Fatalf("AddNonFull(%s) counts var %d as %d, want %d", g.String(a), v, cnt[v], want)
			}
			shared := 0
			for val := 0; val < d.Size(v); val++ {
				if d.Has(a, v, val) && d.Has(b, v, val) {
					shared++
				}
			}
			if got := d.SharedValues(a, b, v); got != shared {
				t.Fatalf("SharedValues(%s,%s,%d) = %d, want %d", g.String(a), g.String(b), v, got, shared)
			}
		}
		// A random pair is disjoint in many fields at once; the
		// complement of a in one field, every other field full, makes a
		// single conflict unless a has an empty field.
		one := d.Universe()
		u := iter % d.NumVars()
		for val := 0; val < d.Size(u); val++ {
			if d.Has(a, u, val) {
				d.ClearVal(one, u, val)
			}
		}
		for _, o := range []Cube{b, one} {
			checkDisjointFields(t, d, a, o)
		}
		if got, want := d.meets(a, b), g.Intersects(a, b); got != want {
			t.Fatalf("meets(%s,%s) = %v, generic Intersects %v", g.String(a), g.String(b), got, want)
		}
		checkPartOpsByValue(t, d, a)
	}
}

// checkDisjointFields checks DisjointFields(a, b) against its definition
// through SharedValues: the count of variables whose fields share no
// value and, when that count is 1, the variable.
func checkDisjointFields(t *testing.T, d *Domain, a, b Cube) {
	t.Helper()
	n, v := 0, -1
	for u := 0; u < d.NumVars(); u++ {
		if d.SharedValues(a, b, u) == 0 {
			n++
			v = u
		}
	}
	gotN, gotV := d.DisjointFields(a, b)
	if gotN != n || n == 1 && gotV != v {
		t.Fatalf("%d words: DisjointFields(%s,%s) = (%d,%d), want (%d,%d)",
			d.Words(), d.String(a), d.String(b), gotN, gotV, n, v)
	}
}

// checkPartOpsByValue checks d's per-variable operations on cube a
// against their definitions by value: a field's count is the number of
// its values Has reports, it is empty at zero and full at its size;
// SetAll(v) equals a with Set applied to every value of v, and ClearAll(v)
// clears every value of v and nothing else, so Setting back the values a
// held restores a.
func checkPartOpsByValue(t *testing.T, d *Domain, a Cube) {
	t.Helper()
	full := 0
	for v := 0; v < d.NumVars(); v++ {
		n := 0
		for val := 0; val < d.Size(v); val++ {
			if d.Has(a, v, val) {
				n++
			}
		}
		if n == d.Size(v) {
			full++
		}
		if d.PartCount(a, v) != n || d.PartEmpty(a, v) != (n == 0) || d.PartFull(a, v) != (n == d.Size(v)) {
			t.Fatalf("%d words: var %d of %s: PartCount %d, PartEmpty %v, PartFull %v; %d of %d values set",
				d.Words(), v, d.String(a), d.PartCount(a, v), d.PartEmpty(a, v), d.PartFull(a, v), n, d.Size(v))
		}
		got, want := a.Clone(), a.Clone()
		d.SetAll(got, v)
		for val := 0; val < d.Size(v); val++ {
			d.Set(want, v, val)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%d words: SetAll(%s, %d) = %s, want %s", d.Words(), d.String(a), v, d.String(got), d.String(want))
		}
		d.ClearAll(got, v)
		for val := 0; val < d.Size(v); val++ {
			if d.Has(got, v, val) {
				t.Fatalf("%d words: ClearAll(var %d) left value %d in %s", d.Words(), v, val, d.String(got))
			}
			if d.Has(a, v, val) {
				d.Set(got, v, val)
			}
		}
		if !slices.Equal(got, a) {
			t.Fatalf("%d words: ClearAll(var %d) of %s changed another field: %s", d.Words(), v, d.String(a), d.String(got))
		}
	}
	if got := d.FullParts(a); got != full {
		t.Fatalf("%d words: FullParts(%s) = %d, want %d", d.Words(), d.String(a), got, full)
	}
}

// A binary field at bit 63 straddles two words, so it is tested by its
// masks, not by the in-word low bits: each of its values alone makes it
// non-empty, and only both make it full.
func TestBinaryFieldAtBit63(t *testing.T) {
	for _, words := range []int{2, 4} {
		d := New(append([]int{63}, Binary(32*words-32).Sizes()...)...)
		if d.Words() != words || d.BitOf(1, 0) != 63 {
			t.Fatalf("domain layout: %d words, field 1 at bit %d", d.Words(), d.BitOf(1, 0))
		}
		if !slices.Contains(d.odd, 1) || d.low[0]>>63 != 0 {
			t.Fatalf("binary field at bit 63 must be tested by its masks")
		}
		for val := 0; val < 2; val++ {
			c := d.Universe()
			d.Restrict(c, 1, val)
			if d.IsEmpty(c) || !d.meets(c, c) {
				t.Fatalf("%d words: field at bit 63 holding value %d reads empty", words, val)
			}
			cnt := make([]int, d.NumVars())
			d.AddNonFull(cnt, c)
			d.AddNonFull(cnt, d.Universe())
			if cnt[1] != 1 || slices.Max(cnt) != 1 {
				t.Fatalf("%d words: non-full counts %v, want var 1 alone", words, cnt)
			}
		}
	}
}

// Kernel selection: a domain of up to 64 bits takes the single-word
// kernels; every wider one, at any word count, takes the span loops and
// the word-parallel emptiness tests.
func TestKernelTierSelection(t *testing.T) {
	cases := []struct {
		nv, words int
	}{
		{8, 1},   // 16 bits
		{32, 1},  // 64 bits, the last single-word width
		{33, 2},  // 66 bits
		{40, 2},  // 80 bits
		{64, 2},  // 128 bits
		{65, 3},  // 130 bits
		{96, 3},  // 192 bits
		{97, 4},  // 194 bits
		{128, 4}, // 256 bits
	}
	for _, c := range cases {
		d := Binary(c.nv)
		if d.Words() != c.words || d.SingleWord() != (c.words == 1) || d.multi != (c.words > 1) {
			t.Fatalf("Binary(%d) (%d bits): %d words, single-word %v, multi %v; want %d words",
				c.nv, d.Bits(), d.Words(), d.SingleWord(), d.multi, c.words)
		}
		u := d.Universe()
		if d.IsEmpty(u) || d.FullParts(u) != c.nv {
			t.Fatalf("Binary(%d): universe mishandled", c.nv)
		}
	}
}

func TestBinaryInterned(t *testing.T) {
	d1 := BinaryInterned(7)
	d2 := BinaryInterned(7)
	if d1 != d2 {
		t.Fatal("BinaryInterned(7) returned distinct domains")
	}
	if d1.NumVars() != 7 || d1.Bits() != 14 || !d1.SingleWord() {
		t.Fatalf("interned domain malformed: %d vars, %d bits", d1.NumVars(), d1.Bits())
	}
	if BinaryInterned(internMax+1).NumVars() != internMax+1 {
		t.Fatal("out-of-range fallback broken")
	}
}
