package eval

import (
	"math/rand"
	"testing"

	"picola/internal/face"
)

// satisfiedClosure grows seed members into a face-closed constraint: every
// symbol whose code lies inside the members' supercube joins, until the
// set is stable. The result is satisfied by construction (no intruders).
func satisfiedClosure(e *face.Encoding, seed ...int) face.Constraint {
	c := face.FromMembers(e.N(), seed...)
	for {
		intr := e.Intruders(c)
		if len(intr) == 0 {
			return c
		}
		for _, s := range intr {
			c.Add(s)
		}
	}
}

// TestSatisfiedCertificate: satisfiedOne agrees with the face-layer
// definition (non-empty constraint, no intruders) over random instances,
// and when it fires both cache policies answer exactly 1 cube — the same
// value the uncached minimizers return.
func TestSatisfiedCertificate(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	cache := NewCache()
	fired := 0
	for trial := 0; trial < 300; trial++ {
		e, c := randomInstance(r)
		if trial%3 == 0 {
			// Random constraints are rarely satisfied; close one over a
			// random face so the certificate path is actually sampled.
			c = satisfiedClosure(e, r.Intn(e.N()), r.Intn(e.N()))
		}
		want := c.Count() > 0 && e.Satisfied(c)
		if got := satisfiedOne(e, c); got != want {
			t.Fatalf("trial %d: satisfiedOne=%v, face says %v\n%s\nmembers %s",
				trial, got, want, e, c)
		}
		if !want || c.Count() == e.N() {
			continue
		}
		fired++
		for _, f := range []func(*face.Encoding, face.Constraint) (int, error){
			cache.ConstraintCubes, cache.ConstraintCubesHeuristic,
		} {
			got, err := f(e, c)
			if err != nil {
				t.Fatal(err)
			}
			if got != 1 {
				t.Fatalf("trial %d: satisfied constraint scored %d cubes, want 1", trial, got)
			}
		}
		direct, err := uncached.ConstraintCubes(e, c)
		if err != nil {
			t.Fatal(err)
		}
		if direct != 1 {
			t.Fatalf("trial %d: uncached exact scored %d, certificate says 1", trial, direct)
		}
	}
	if fired == 0 {
		t.Fatal("no satisfied instance sampled; the certificate path went untested")
	}
}

// TestWarmDCMemoSharing: heuristic requests over one encoding share the
// memoized don't-care cover — after the first build, further distinct
// constraints on the same used-code signature hit the memo, and every
// count still matches the uncached minimizer.
func TestWarmDCMemoSharing(t *testing.T) {
	e := testEncoding(6, 3)
	// All four are unsatisfied under the identity encoding (each has
	// intruders), so every request reaches the espresso path and its
	// don't-care construction — none is short-circuited by the certificate.
	cons := []face.Constraint{
		face.FromMembers(6, 0, 3),
		face.FromMembers(6, 1, 4),
		face.FromMembers(6, 2, 5),
		face.FromMembers(6, 1, 2, 4, 5),
	}
	for _, c := range cons {
		if e.Satisfied(c) {
			t.Fatalf("fixture constraint %s is satisfied; it would bypass the DC path", c)
		}
	}
	cache := NewCache()
	hits0, fall0 := mWarmDCHits.Value(), mWarmFallbacks.Value()
	for _, c := range cons {
		want, err := uncached.ConstraintCubesHeuristic(e, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cache.ConstraintCubesHeuristic(e, c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("constraint %s: warm %d, cold %d", c, got, want)
		}
	}
	if fall := mWarmFallbacks.Value() - fall0; fall != 1 {
		t.Fatalf("expected exactly one cold don't-care build, counted %d", fall)
	}
	if hits := mWarmDCHits.Value() - hits0; hits != int64(len(cons))-1 {
		t.Fatalf("expected %d memoized don't-care hits, counted %d", len(cons)-1, hits)
	}
	if len(cache.dcm) != 1 {
		t.Fatalf("one used-code signature should intern one cover, have %d", len(cache.dcm))
	}
}

// TestWarmNonInjectiveFallback: a non-injective encoding without ON/OFF
// conflicts still canonicalizes, but its don't-care cover must be rebuilt
// cold every time (the bitset cannot carry code multiplicities) and never
// interned — and the counts still match the uncached path.
func TestWarmNonInjectiveFallback(t *testing.T) {
	e := face.NewEncoding(5, 2)
	// Symbols 3 and 4 share code 11: non-injective, but both are
	// non-members of every constraint below, so no ON/OFF conflict.
	e.Codes[0], e.Codes[1], e.Codes[2], e.Codes[3], e.Codes[4] = 0b00, 0b01, 0b10, 0b11, 0b11
	// Members drawn from the uniquely-coded symbols only (3 and 4 would
	// put the shared code 11 in both ON and OFF — a bypass, not a
	// fallback); both member sets span the whole code space, so neither
	// constraint is satisfied and both reach the don't-care construction.
	cons := []face.Constraint{
		face.FromMembers(5, 1, 2),
		face.FromMembers(5, 0, 1, 2),
	}
	cache := NewCache()
	fall0 := mWarmFallbacks.Value()
	for _, c := range cons {
		if e.Satisfied(c) {
			t.Fatalf("fixture constraint %s is satisfied; it would bypass the DC path", c)
		}
		var kb keyBuf
		if !kb.cacheKey(e, c, true) {
			t.Fatalf("constraint %s: expected canonicalizable key", c)
		}
		if kb.injective {
			t.Fatalf("constraint %s: key marked injective on a shared code", c)
		}
		want, err := uncached.ConstraintCubesHeuristic(e, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cache.ConstraintCubesHeuristic(e, c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("constraint %s: warm %d, cold %d", c, got, want)
		}
	}
	if fall := mWarmFallbacks.Value() - fall0; fall != int64(len(cons)) {
		t.Fatalf("non-injective requests must all rebuild cold: %d builds for %d requests",
			fall, len(cons))
	}
	if len(cache.dcm) != 0 {
		t.Fatalf("non-injective don't-care covers must not be interned, have %d", len(cache.dcm))
	}
}
