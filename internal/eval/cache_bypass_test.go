package eval

import (
	"testing"

	"picola/internal/exact"
	"picola/internal/face"
)

// overWidthInstance builds a valid injective encoding one column beyond
// cacheMaxNV, whose bitset key would be too large to canonicalize.
func overWidthInstance() (*face.Encoding, face.Constraint) {
	e := face.NewEncoding(6, cacheMaxNV+1)
	for s := 0; s < 6; s++ {
		// Spread codes across the wide space, not just the low corner.
		e.Codes[s] = uint64(s) << uint(cacheMaxNV-2)
	}
	return e, face.FromMembers(6, 0, 1, 4)
}

// TestCacheBypassOverWidth: a code space wider than cacheMaxNV cannot be
// keyed; the lookup must bypass (no entry, bypass metric incremented) and
// still return the uncached answer.
func TestCacheBypassOverWidth(t *testing.T) {
	e, c := overWidthInstance()
	if _, ok := cacheKey(e, c, false); ok {
		t.Fatalf("nv=%d key must not be canonicalizable (cacheMaxNV=%d)", e.NV, cacheMaxNV)
	}
	want, err := uncached.ConstraintCubes(e, c)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	bypass0, miss0, hit0 := mCacheBypass.Value(), mCacheMisses.Value(), mCacheHits.Value()
	for round := 0; round < 2; round++ {
		got, err := cache.ConstraintCubes(e, c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: bypassed lookup %d, uncached %d", round, got, want)
		}
	}
	if cache.Len() != 0 {
		t.Fatalf("bypass inserted %d entries", cache.Len())
	}
	if d := mCacheBypass.Value() - bypass0; d != 2 {
		t.Fatalf("bypass metric rose by %d, want 2", d)
	}
	if d := mCacheMisses.Value() - miss0; d != 0 {
		t.Fatalf("miss metric rose by %d on a pure bypass", d)
	}
	if d := mCacheHits.Value() - hit0; d != 0 {
		t.Fatalf("hit metric rose by %d on a pure bypass", d)
	}
}

// TestCacheBypassConflictMetrics: the non-canonicalizable (ON/OFF code
// conflict) path must also count as a bypass, never as a miss or hit.
func TestCacheBypassConflictMetrics(t *testing.T) {
	e := face.NewEncoding(4, 2)
	e.Codes[0], e.Codes[1], e.Codes[2], e.Codes[3] = 0b00, 0b01, 0b00, 0b11
	c := face.FromMembers(4, 0, 1) // non-member 2 shares code 00 with member 0
	cache := NewCache()
	bypass0, miss0, hit0 := mCacheBypass.Value(), mCacheMisses.Value(), mCacheHits.Value()
	want, wantErr := uncached.ConstraintCubes(e, c)
	got, gotErr := cache.ConstraintCubes(e, c)
	if (gotErr == nil) != (wantErr == nil) || got != want {
		t.Fatalf("bypassed lookup: (%d, %v), direct: (%d, %v)", got, gotErr, want, wantErr)
	}
	if d := mCacheBypass.Value() - bypass0; d != 1 {
		t.Fatalf("bypass metric rose by %d, want 1", d)
	}
	if mCacheMisses.Value() != miss0 || mCacheHits.Value() != hit0 {
		t.Fatal("conflict bypass moved the miss/hit metrics")
	}
}

// TestCacheMissHitMetrics: a fresh key counts one miss, its repeat one
// hit, and the entry gauge tracks Len.
func TestCacheMissHitMetrics(t *testing.T) {
	e := face.NewEncoding(4, 2)
	for s := 0; s < 4; s++ {
		e.Codes[s] = uint64(s)
	}
	c := face.FromMembers(4, 1, 2)
	cache := NewCache()
	miss0, hit0 := mCacheMisses.Value(), mCacheHits.Value()
	want, err := uncached.ConstraintCubes(e, c)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := cache.ConstraintCubes(e, c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round %d: cached %d, uncached %d", round, got, want)
		}
	}
	if d := mCacheMisses.Value() - miss0; d != 1 {
		t.Fatalf("miss metric rose by %d, want 1", d)
	}
	if d := mCacheHits.Value() - hit0; d != 2 {
		t.Fatalf("hit metric rose by %d, want 2", d)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
}

// TestCacheComputesAboveMemoNV: above memoMaxNV the cache computes every
// request and inserts nothing. A repeated heuristic request at nv 7
// builds its don't-care cover once and then hits the don't-care memo,
// and counts as a bypass each time; an exact request counts as the
// uncached one. At nv 12, beyond exact.MaxInputs, espresso serves the
// exact policy too, so both policies count alike.
func TestCacheComputesAboveMemoNV(t *testing.T) {
	for _, nv := range []int{memoMaxNV + 1, cacheMaxNV} {
		e := face.NewEncoding(4, nv)
		e.Codes[0], e.Codes[1], e.Codes[2], e.Codes[3] = 0b000, 0b011, 0b001, 0b110
		c := face.FromMembers(4, 0, 1) // the members' supercube holds code 001
		want, err := uncached.ConstraintCubesHeuristic(e, c)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewCache()
		bypass0, dcHits0, fall0 := mCacheBypass.Value(), mWarmDCHits.Value(), mWarmFallbacks.Value()
		for round := 0; round < 2; round++ {
			got, err := cache.ConstraintCubesHeuristic(e, c)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("nv=%d round %d: cached %d, uncached %d", nv, round, got, want)
			}
		}
		if d := mWarmFallbacks.Value() - fall0; d != 1 {
			t.Fatalf("nv=%d: %d don't-care builds, want 1", nv, d)
		}
		if d := mWarmDCHits.Value() - dcHits0; d != 1 {
			t.Fatalf("nv=%d: %d don't-care memo hits, want 1", nv, d)
		}
		if d := mCacheBypass.Value() - bypass0; d != 2 {
			t.Fatalf("nv=%d: bypass metric rose by %d, want 2", nv, d)
		}
		wantExact, err := uncached.ConstraintCubes(e, c)
		if err != nil {
			t.Fatal(err)
		}
		if k, err := cache.ConstraintCubes(e, c); err != nil || k != wantExact {
			t.Fatalf("nv=%d: cached exact request (%d, %v), uncached %d", nv, k, err, wantExact)
		}
		if nv > exact.MaxInputs && wantExact != want {
			t.Fatalf("nv=%d: exact request %d cubes, heuristic %d: both run espresso", nv, wantExact, want)
		}
		if cache.Len() != 0 {
			t.Fatalf("nv=%d: cache holds %d entries, want none", nv, cache.Len())
		}
	}
}
