package eval

import (
	"math/bits"
	"slices"

	"picola/internal/exact"
)

const (
	// memoMaxNV is the widest code length the cache memoizes: one word
	// per bitset, the minimum code length of up to 64 symbols. A request
	// above it is computed on every call.
	memoMaxNV = exact.WordsMaxInputs
	// memoKeyBytes is the length of a key's canonical bytes: tag, nv and
	// two words.
	memoKeyBytes = 2 + 16
)

// memoKey is the key of one memoized count: {tag<<8 | nv, bswap(used),
// bswap(on)}. The canonical bytes of the key are tag, nv, then the used
// and ON words little-endian — an entry's picola-ir/v1 header and
// bitsets. The byte swaps put the first canonical byte of each bitset in
// its word's top byte, so comparing the words in order compares the
// canonical bytes.
type memoKey [3]uint64

// header returns the entry's key header word, tag<<8 | nv: the first
// two canonical key bytes.
func (ent *CacheEntry) header() uint64 {
	hdr := uint64(uint8(ent.NV))
	if ent.Heuristic {
		hdr |= 1 << 8
	}
	return hdr
}

// Memoizable reports whether the cache can hold the entry: nv in [1,
// memoMaxNV] and one-word bitsets. KeySet and CompareEntries take only
// such entries.
func (ent *CacheEntry) Memoizable() bool {
	return ent.NV >= 1 && ent.NV <= memoMaxNV && len(ent.Used) == 1 && len(ent.On) == 1
}

// keyOf returns the key of a memoizable entry.
func keyOf(ent *CacheEntry) memoKey {
	return memoKey{ent.header(), bits.ReverseBytes64(ent.Used[0]), bits.ReverseBytes64(ent.On[0])}
}

// keyHash is the 64-bit FNV-1a hash of the canonical key bytes with
// header hdr and the given bitsets, hashed from the words without
// building the bytes. The in-memory cache and the on-disk store both
// shard by it.
func keyHash(hdr uint64, used, on []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ hdr>>8) * prime64
	h = (h ^ hdr&0xff) * prime64
	for _, ws := range [2][]uint64{used, on} {
		for _, w := range ws {
			for i := 0; i < 8; i++ {
				h = (h ^ w&0xff) * prime64
				w >>= 8
			}
		}
	}
	return h
}

// ShardHash returns the 64-bit FNV-1a hash of the entry's canonical key
// bytes (tag, nv, used and ON words little-endian), computed from its
// words. It is part of the on-disk store's layout: the store assigns
// entries to shard files by it.
func (ent CacheEntry) ShardHash() uint64 {
	return keyHash(ent.header(), ent.Used, ent.On)
}

// CompareEntries orders two memoizable entries by their canonical key
// bytes, without building them: the header (tag, then nv) first, then
// the used and the ON word, each compared in its little-endian byte
// order.
func CompareEntries(a, b *CacheEntry) int {
	ka, kb := keyOf(a), keyOf(b)
	return slices.Compare(ka[:], kb[:])
}

// SortEntries sorts memoizable entries into canonical key order
// (CompareEntries).
func SortEntries(ents []CacheEntry) {
	slices.SortFunc(ents, func(a, b CacheEntry) int { return CompareEntries(&a, &b) })
}

// KeySet is a set of entry keys. It holds memoizable entries only
// (CacheEntry.Memoizable), each as its three key words, so probing or
// adding builds no string. A KeySet is not safe for concurrent use.
type KeySet map[memoKey]struct{}

// Has reports whether the memoizable entry's key is in the set.
func (s KeySet) Has(ent *CacheEntry) bool {
	_, ok := s[keyOf(ent)]
	return ok
}

// Add inserts the memoizable entry's key and reports whether it was
// new.
func (s KeySet) Add(ent *CacheEntry) bool {
	n := len(s)
	s[keyOf(ent)] = struct{}{}
	return len(s) > n
}
