package evalstore

import (
	"math/rand"
	"testing"

	"picola/internal/eval"
)

// TestAllocsStoreAppendKnown: an Append of entries the store already
// holds — every warm re-run's save — builds each key into one reused
// buffer and probes the known set without allocating, so its cost in
// allocations does not grow with the batch.
func TestAllocsStoreAppendKnown(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	for _, n := range []int{100, 10000} {
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		ents := testEntries(n)
		if _, err := s.Append(ents); err != nil {
			t.Fatal(err)
		}
		var written int
		allocs := testing.AllocsPerRun(5, func() {
			written, err = s.Append(ents)
		})
		if err != nil || written != 0 {
			t.Fatalf("n=%d: re-append wrote %d (err %v), want 0", n, written, err)
		}
		if allocs > 8 {
			t.Errorf("n=%d: Append of known entries allocates %.1f objects, want <= 8", n, allocs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// syntheticEntries returns n distinct-in-practice nv=5 entries, the
// code length of most corpus signatures.
func syntheticEntries(n int) []eval.CacheEntry {
	r := rand.New(rand.NewSource(1))
	out := make([]eval.CacheEntry, n)
	for i := range out {
		used := r.Uint64() & 0xffffffff
		out[i] = eval.CacheEntry{NV: 5, Used: []uint64{used}, On: []uint64{used & r.Uint64()}, Cubes: 1 + i%7}
	}
	return out
}

// BenchmarkStoreLifecycle times each step of a warm re-run's store
// lifecycle on a compacted store of about 200k nv=5 entries: Load into
// a fresh cache, Export the cache, Append the export back (every entry
// already known), and Compact an empty WAL.
func BenchmarkStoreLifecycle(b *testing.B) {
	const cacheBytes = 256 << 20
	dir := b.TempDir()
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Append(syntheticEntries(200000)); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	warm, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer warm.Close()
	cache := eval.NewCacheBytes(cacheBytes)
	if _, err := warm.Load(cache); err != nil {
		b.Fatal(err)
	}
	exported := cache.Export()

	b.Run("Load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := st.Load(eval.NewCacheBytes(cacheBytes)); err != nil {
				b.Fatal(err)
			}
			if err := st.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Export", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := cache.Export(); len(got) != len(exported) {
				b.Fatalf("exported %d entries, want %d", len(got), len(exported))
			}
		}
	})
	b.Run("Append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n, err := warm.Append(exported); n != 0 || err != nil {
				b.Fatalf("appended %d (err %v), want 0", n, err)
			}
		}
	})
	b.Run("Compact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := warm.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
