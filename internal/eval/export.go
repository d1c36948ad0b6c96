package eval

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
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

// parseCacheKey decodes one interned key (the keyBuf.cacheKey layout:
// tag byte, nv byte, used words LE, on words LE) into an entry whose Used
// and On words are carved from the front of slab, cap-limited so that
// appending to one entry's bitset never writes into its neighbour's. It
// returns the unused rest of slab; a key of the wrong shape consumes
// nothing.
func parseCacheKey(key string, cubes int, slab []uint64) (CacheEntry, []uint64, bool) {
	if len(key) < 2 {
		return CacheEntry{}, slab, false
	}
	nv := int(key[1])
	w := entryWords(nv)
	if len(key) != 2+16*w || len(slab) < 2*w {
		return CacheEntry{}, slab, false
	}
	for i := range slab[:2*w] {
		slab[i] = binary.LittleEndian.Uint64([]byte(key[2+8*i : 10+8*i]))
	}
	ent := CacheEntry{
		Heuristic: key[0] != 0,
		NV:        nv,
		Used:      slab[:w:w],
		On:        slab[w : 2*w : 2*w],
		Cubes:     cubes,
	}
	return ent, slab[2*w:], true
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
	type narrowPair struct {
		key   narrowKey
		cubes int32
	}
	type widePair struct {
		key   string
		cubes int32
	}
	narrow := make([]narrowPair, 0, c.Len())
	var wide []widePair
	words := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		//lint:ignore detrange pair collection sorted by key below before any use
		for k, v := range sh.narrow {
			narrow = append(narrow, narrowPair{k, v.cubes})
		}
		//lint:ignore detrange pair collection sorted by key below before any use
		for k, v := range sh.wide {
			wide = append(wide, widePair{k, v.cubes})
			words += (len(k) - 2) / 8
		}
		sh.mu.RUnlock()
	}
	// A narrow key's words and a wide key's bytes each compare in
	// canonical order, and a narrow key sorts before every wide key of
	// its tag, so the two sorted runs merge on the tag alone.
	slices.SortFunc(narrow, func(a, b narrowPair) int { return a.key.compare(&b.key) })
	slices.SortFunc(wide, func(a, b widePair) int { return strings.Compare(a.key, b.key) })
	slab := make([]uint64, 2*len(narrow)+words)
	entries := make([]CacheEntry, 0, len(narrow)+len(wide))
	for len(narrow) > 0 || len(wide) > 0 {
		if len(narrow) > 0 && (len(wide) == 0 || narrow[0].key[0]>>8 <= uint64(wide[0].key[0])) {
			p := narrow[0]
			narrow = narrow[1:]
			slab[0], slab[1] = bits.ReverseBytes64(p.key[1]), bits.ReverseBytes64(p.key[2])
			entries = append(entries, CacheEntry{
				Heuristic: p.key[0]>>8 != 0,
				NV:        int(p.key[0] & 0xff),
				Used:      slab[0:1:1],
				On:        slab[1:2:2],
				Cubes:     int(p.cubes),
			})
			slab = slab[2:]
			continue
		}
		p := wide[0]
		wide = wide[1:]
		var ent CacheEntry
		var ok bool
		if ent, slab, ok = parseCacheKey(p.key, int(p.cubes), slab); ok {
			entries = append(entries, ent)
		}
	}
	return entries
}

// AppendKey appends the canonical signature bytes of the entry to dst
// and returns the extended slice — the same interned key the in-memory
// cache indexes by, and the content address the on-disk store shards by.
// Equal minimization inputs have equal keys whatever produced them.
// Building into a reused buffer lets a caller probe a map with
// m[string(buf)] without allocating.
func (ent CacheEntry) AppendKey(dst []byte) []byte {
	tag := byte(0)
	if ent.Heuristic {
		tag = 1
	}
	dst = append(dst, tag, byte(ent.NV))
	for _, v := range ent.Used {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	for _, v := range ent.On {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
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
	// BadNV entries declare a code length outside [1, cacheMaxNV], or
	// carry the exact tag at a code length where espresso computes
	// exact requests (minimizerFor), a key no request builds.
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
	var kb keyBuf
	for _, ent := range entries {
		if ent.NV < 1 || ent.NV > cacheMaxNV || ent.Heuristic != (minimizerFor(ent.Heuristic, ent.NV) == byEspresso) {
			st.BadNV++
			continue
		}
		if w := entryWords(ent.NV); len(ent.Used) != w || len(ent.On) != w {
			st.BadShape++
			continue
		}
		if ent.Cubes < 0 || ent.Cubes > math.MaxInt32 {
			st.BadCubes++
			continue
		}
		kb.entryKey(&ent)
		sh := &c.shards[kb.hash%cacheShards]
		inserted, evicted, freed := sh.insertLocked(&kb, ent.Cubes, c.shardBudget)
		dup := !inserted && kb.size() <= c.shardBudget
		switch {
		case inserted:
			st.Inserted++
			st.Evicted += evicted
			noteInsert(kb.size(), evicted, freed)
		case dup:
			st.Duplicate++
		default:
			st.Oversize++
		}
	}
	return st, nil
}
