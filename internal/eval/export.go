package eval

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// CacheEntry is one memoized constraint minimization in portable form:
// the canonical (policy, nv, used-bitset, ON-bitset) signature the Cache
// keys on, plus the minimized cube count. It is the unit internal/ir
// serializes, so a warmed cache can be shipped between processes.
type CacheEntry struct {
	// Heuristic marks the espresso-policy entry (ConstraintCubesHeuristic);
	// false is the exact policy.
	Heuristic bool
	// NV is the code length; the bitsets span the 2^NV code space.
	NV int
	// Used is the used-code bitset (⌈2^NV/64⌉ words, little-endian bit
	// order); its complement is the don't-care set.
	Used []uint64
	// On is the ON-set bitset: the member codes.
	On []uint64
	// Cubes is the memoized minimized product-term count.
	Cubes int
}

// entryWords returns the bitset word count of a code space of nv bits.
func entryWords(nv int) int {
	return ((1 << uint(nv)) + 63) / 64
}

// Export snapshots every memoized entry in a deterministic order (the
// canonical key order, CompareEntries). A nil cache exports nothing.
// Concurrent inserts may or may not be included; each exported entry is
// individually consistent. The bitset words of all exported entries
// share one allocation.
func (c *Cache) Export() []CacheEntry {
	if c == nil {
		return nil
	}
	type pair struct {
		key   memoKey
		cubes int32
	}
	pairs := make([]pair, 0, c.Len())
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k, v := range sh.m {
			pairs = append(pairs, pair{k, v.cubes})
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(pairs, func(a, b pair) int { return slices.Compare(a.key[:], b.key[:]) })
	slab := make([]uint64, 2*len(pairs))
	entries := make([]CacheEntry, len(pairs))
	for i, p := range pairs {
		w := slab[2*i : 2*i+2 : 2*i+2]
		w[0], w[1] = bits.ReverseBytes64(p.key[1]), bits.ReverseBytes64(p.key[2])
		entries[i] = CacheEntry{
			Heuristic: p.key[0]>>8 != 0,
			NV:        int(p.key[0] & 0xff),
			Used:      w[0:1:1],
			On:        w[1:2:2],
			Cubes:     int(p.cubes),
		}
	}
	return entries
}

// ImportStats breaks one Import down by outcome class, so a store load
// that drops entries is debuggable instead of one lumped error: every
// entry lands in exactly one of Inserted, Duplicate, Oversize, BadNV,
// BadShape or BadCubes. Evicted counts previously memoized entries the
// import displaced (budget pressure), on top of the per-entry classes.
type ImportStats struct {
	// Inserted entries are now memoized.
	Inserted int
	// Duplicate entries were already memoized (first wins; an import
	// never changes an existing value, matching the compute path).
	Duplicate int
	// Oversize entries exceed the whole per-shard byte budget alone.
	Oversize int
	// BadNV entries declare a code length outside [1, memoMaxNV], the
	// code lengths the cache memoizes; a request above it is computed on
	// every call, so no count of it is ever held.
	BadNV int
	// BadShape entries carry bitsets of the wrong word count for NV.
	BadShape int
	// BadCubes entries declare a cube count outside [0, math.MaxInt32],
	// the range the cache stores.
	BadCubes int
	// Evicted is the number of older memoized entries evicted to fit
	// the inserted ones.
	Evicted int
}

// Skipped is the total of entries not inserted, across every class.
//
//lint:ignore deadexport import-outcome check of TestImportStatsClasses and the evalstore and ir store tests
func (s ImportStats) Skipped() int {
	return s.Duplicate + s.Oversize + s.BadNV + s.BadShape + s.BadCubes
}

// String renders the non-zero classes, for logs.
func (s ImportStats) String() string {
	out := fmt.Sprintf("inserted %d", s.Inserted)
	for _, c := range []struct {
		n    int
		what string
	}{
		{s.Duplicate, "duplicate"}, {s.Oversize, "oversize"}, {s.BadNV, "bad-nv"},
		{s.BadShape, "bad-shape"}, {s.BadCubes, "bad-cubes"}, {s.Evicted, "evicted"},
	} {
		if c.n > 0 {
			out += fmt.Sprintf(", %s %d", c.what, c.n)
		}
	}
	return out
}

// Import installs entries into the cache. Invalid entries are skipped
// and counted per failure class — a malformed entry never aborts the
// rest of the batch — and the only error is importing into a nil cache.
// Importing never changes an existing memoized value: the first entry
// for a key wins, matching the compute path's semantics.
func (c *Cache) Import(entries []CacheEntry) (ImportStats, error) {
	var st ImportStats
	if c == nil {
		return st, fmt.Errorf("eval: cannot import into a nil cache")
	}
	for i := range entries {
		ent := &entries[i]
		switch {
		case ent.NV < 1 || ent.NV > memoMaxNV:
			st.BadNV++
		case len(ent.Used) != 1 || len(ent.On) != 1:
			st.BadShape++
		case ent.Cubes < 0 || ent.Cubes > math.MaxInt32:
			st.BadCubes++
		default:
			inserted, evicted := c.shards[ent.ShardHash()%cacheShards].insertLocked(keyOf(ent), ent.Cubes, c.shardBudget)
			switch {
			case inserted:
				st.Inserted++
				st.Evicted += evicted
				noteInsert(evicted)
			case entryBytes <= c.shardBudget:
				st.Duplicate++
			default:
				st.Oversize++
			}
		}
	}
	return st, nil
}
