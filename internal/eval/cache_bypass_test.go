package eval

import (
	"testing"

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
