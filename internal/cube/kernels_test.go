package cube

import (
	"math/rand"
	"slices"
	"testing"
)

// The whole-cube operations (IsEmpty, Intersect, Intersects, Cofactor,
// FullParts) run the word-parallel field tests at every width. The span
// loops they replaced are the oracle: the generic* functions below walk
// every variable's word/mask spans, and the tests run each operation and
// its oracle over randomized cubes.

// PartEmpty reports whether variable v's field in c is empty, one span at
// a time.
func (d *Domain) PartEmpty(c Cube, v int) bool {
	for _, s := range d.spans[v] {
		if c[s.word]&s.mask != 0 {
			return false
		}
	}
	return true
}

// genericIntersects is the span-loop Intersects: every variable's field
// of a AND b, one span at a time, must be non-empty.
func genericIntersects(d *Domain, a, b Cube) bool {
	for v := range d.sizes {
		empty := true
		for _, s := range d.spans[v] {
			if a[s.word]&b[s.word]&s.mask != 0 {
				empty = false
				break
			}
		}
		if empty {
			return false
		}
	}
	return true
}

// genericIsEmpty is the span-loop IsEmpty: some variable's field is empty.
func genericIsEmpty(d *Domain, c Cube) bool {
	for v := range d.sizes {
		if d.PartEmpty(c, v) {
			return true
		}
	}
	return false
}

// genericIntersect is the span-loop Intersect.
func genericIntersect(d *Domain, dst, a, b Cube) bool {
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
	return !genericIsEmpty(d, dst)
}

// genericCofactor is the span-loop Cofactor: false when c and p do not
// intersect, else every variable's field of dst becomes c ∪ ¬p, span by
// span, and dst's bits outside every field are left as they were.
func genericCofactor(d *Domain, dst, c, p Cube) bool {
	if !genericIntersects(d, c, p) {
		return false
	}
	for v := range d.sizes {
		for _, s := range d.spans[v] {
			dst[s.word] = dst[s.word]&^s.mask | (c[s.word]|(^p[s.word]))&s.mask
		}
	}
	return true
}

// genericFullParts is the span-loop FullParts: the variables whose field
// is full, one PartFull each.
func genericFullParts(d *Domain, c Cube) int {
	n := 0
	for v := range d.sizes {
		if d.PartFull(c, v) {
			n++
		}
	}
	return n
}

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

// checkOpsMatchOracle runs the whole-cube operations on d against their
// span-loop oracles with fresh random cubes.
func checkOpsMatchOracle(t *testing.T, rng *rand.Rand, d *Domain) {
	t.Helper()
	a, b := randCube(rng, d), randCube(rng, d)

	if got, want := d.IsEmpty(a), genericIsEmpty(d, a); got != want {
		t.Fatalf("IsEmpty(%s): kernel %v oracle %v", d.String(a), got, want)
	}
	if got, want := d.Intersects(a, b), genericIntersects(d, a, b); got != want {
		t.Fatalf("Intersects(%s,%s): kernel %v oracle %v", d.String(a), d.String(b), got, want)
	}
	if got, want := d.FullParts(a), genericFullParts(d, a); got != want {
		t.Fatalf("FullParts(%s): kernel %d oracle %d", d.String(a), got, want)
	}

	kdst, gdst := d.NewCube(), d.NewCube()
	kok, gok := d.Intersect(kdst, a, b), genericIntersect(d, gdst, a, b)
	if kok != gok || !slices.Equal(kdst, gdst) {
		t.Fatalf("Intersect(%s,%s): kernel (%s,%v) oracle (%s,%v)",
			d.String(a), d.String(b), d.String(kdst), kok, d.String(gdst), gok)
	}

	// Cofactor against a non-empty cube p; dst carries stale garbage
	// bits, outside the fields too, to exercise the masked write.
	p := randCube(rng, d)
	for v := 0; v < d.NumVars(); v++ {
		if d.PartEmpty(p, v) {
			d.Set(p, v, 0)
		}
	}
	for i := range kdst {
		kdst[i] = rng.Uint64()
	}
	copy(gdst, kdst)
	kok, gok = d.Cofactor(kdst, a, p), genericCofactor(d, gdst, a, p)
	if kok != gok {
		t.Fatalf("Cofactor(%s,%s): kernel %v oracle %v", d.String(a), d.String(p), kok, gok)
	}
	if kok && !slices.Equal(kdst, gdst) {
		t.Fatalf("Cofactor(%s,%s): kernel %s oracle %s", d.String(a), d.String(p), d.String(kdst), d.String(gdst))
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

// TestKernelsMatchGenericOracle checks the whole-cube operations against
// their span-loop oracles on random one-word domains, all-binary or
// mixing field sizes. TestMultiWordKernelsMatchGenericOracle runs the
// same check at two to six words.
func TestKernelsMatchGenericOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		d := randKernelDomain(rng)
		if d.Words() != 1 {
			t.Fatalf("randKernelDomain built %d bits in %d words", d.Bits(), d.Words())
		}
		checkOpsMatchOracle(t, rng, d)
	}
}

// TestMultiWordKernelsMatchGenericOracle checks the whole-cube operations
// against their span-loop oracles on random domains of two to six words,
// half of them with a binary field at bit 63, fields straddling word
// boundaries included. The same code runs at one word, where
// TestKernelsMatchGenericOracle checks it.
func TestMultiWordKernelsMatchGenericOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 10000; iter++ {
		words := 2 + iter%5
		var d *Domain
		if iter/5%2 == 0 {
			d = randBit63Domain(rng, words)
		} else {
			d = randMultiWordDomain(rng, words)
		}
		if d.Words() != words {
			t.Fatalf("%d-word domain generator built %d bits in %d words", words, d.Bits(), d.Words())
		}
		checkOpsMatchOracle(t, rng, d)
	}
}

// TestWordParallelFieldTests checks the field operations at every width
// against their per-field definitions, built one value at a time from Has
// and Set: AddNonFull against PartFull, SharedValues against Has,
// DisjointFields against SharedValues, and PartFull, PartCount,
// FullParts, SetAll, ClearAll and OrField, and the oracle's PartEmpty,
// against Has and Set. TestKernelsMatchGenericOracle and
// TestMultiWordKernelsMatchGenericOracle check the other whole-cube
// operations against the span loops.
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
		a, b := randCube(rng, d), randCube(rng, d)
		cnt := make([]int, d.NumVars())
		d.AddNonFull(cnt, a)
		for v := range cnt {
			want := 0
			if !d.PartFull(a, v) {
				want = 1
			}
			if cnt[v] != want {
				t.Fatalf("AddNonFull(%s) counts var %d as %d, want %d", d.String(a), v, cnt[v], want)
			}
			shared := 0
			or := a.Clone()
			for val := 0; val < d.Size(v); val++ {
				if d.Has(a, v, val) && d.Has(b, v, val) {
					shared++
				}
				if d.Has(b, v, val) {
					d.Set(or, v, val)
				}
			}
			if got := d.SharedValues(a, b, v); got != shared {
				t.Fatalf("SharedValues(%s,%s,%d) = %d, want %d", d.String(a), d.String(b), v, got, shared)
			}
			got := a.Clone()
			d.OrField(got, b, v)
			if !slices.Equal(got, or) {
				t.Fatalf("OrField(%s,%s,%d) = %s, want %s", d.String(a), d.String(b), v, d.String(got), d.String(or))
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
			if d.IsEmpty(c) || d.FullParts(c) != d.NumVars()-1 {
				t.Fatalf("%d words: field at bit 63 holding value %d reads empty or full", words, val)
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

// Kernel selection: one path serves every width. A domain's cubes and
// its word-parallel tables span exactly its words, on both sides of each
// word boundary, and its universe reads non-empty and full in every
// field.
func TestKernelTierSelection(t *testing.T) {
	cases := []struct {
		nv, words int
	}{
		{8, 1},   // 16 bits
		{32, 1},  // 64 bits, the last one-word width
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
		if d.Words() != c.words || len(d.NewCube()) != c.words || len(d.low) != c.words || len(d.fullw) != c.words {
			t.Fatalf("Binary(%d) (%d bits): %d words, %d low and %d universe words; want %d",
				c.nv, d.Bits(), d.Words(), len(d.low), len(d.fullw), c.words)
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
	if d1.NumVars() != 7 || d1.Bits() != 14 || d1.Words() != 1 {
		t.Fatalf("interned domain malformed: %d vars, %d bits", d1.NumVars(), d1.Bits())
	}
	if BinaryInterned(internMax+1).NumVars() != internMax+1 {
		t.Fatal("out-of-range fallback broken")
	}
}
