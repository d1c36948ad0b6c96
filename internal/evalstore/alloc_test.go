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

// TestAllocsStoreLoad: a load keys its dedup set and the cache by the
// narrow entries' words, so it allocates no string, map entry or ring
// slot per entry. What it does allocate — file reads, decode slabs, the
// maps' tables — barely grows with the store: quadrupling the entry
// count from 2,500 to 10,000 may add at most one allocation per ten
// added entries (string keys cost about two per entry).
func TestAllocsStoreLoad(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	load := func(n int) float64 {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Append(syntheticEntries(n)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var st LoadStats
		allocs := testing.AllocsPerRun(3, func() {
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if st, err = s.Load(eval.NewCacheBytes(256 << 20)); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if st.Import.Inserted < n-n/100 {
			t.Fatalf("loaded %d of %d entries", st.Import.Inserted, n)
		}
		t.Logf("%.0f allocations to load %d entries", allocs, n)
		return allocs
	}
	const small, large = 2500, 10000
	if extra := load(large) - load(small); extra > (large-small)/10 {
		t.Fatalf("loading %d more entries allocates %.0f more objects, want <= %d",
			large-small, extra, (large-small)/10)
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
// already known), and Compact an empty WAL. ColdSave is a cold run's
// whole save: Export, Append and Compact of the same cache into a fresh
// store.
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
	b.Run("ColdSave", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cold, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if n, err := cold.Append(cache.Export()); n != len(exported) || err != nil {
				b.Fatalf("appended %d (err %v), want %d", n, err, len(exported))
			}
			if st, err := cold.Compact(); st.Entries != len(exported) || err != nil {
				b.Fatalf("compacted %d (err %v), want %d", st.Entries, err, len(exported))
			}
			if err := cold.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
