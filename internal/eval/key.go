package eval

import (
	"cmp"
	"math/bits"
	"slices"

	"picola/internal/exact"
)

const (
	// narrowMaxNV is the widest code length whose key is narrow: one
	// word per bitset.
	narrowMaxNV = exact.WordsMaxInputs
	// narrowKeyBytes is the canonical byte length of a narrow key: tag,
	// nv and two words.
	narrowKeyBytes = 2 + 16
)

// narrowKey is the fixed-width form of a canonical key at nv ≤
// narrowMaxNV: {tag<<8 | nv, bswap(used), bswap(on)}. The byte swaps put
// the first canonical byte of each bitset in its word's top byte, so
// comparing the words in order compares AppendKey's bytes, and a narrow
// key sorts before every wider key of its tag (the nv byte decides). The
// first word is also the header of a wide key, whose bitsets stay in its
// canonical bytes.
type narrowKey [3]uint64

// compare orders narrow keys: word by word, as unsigned integers.
func (k *narrowKey) compare(o *narrowKey) int {
	for i := range k {
		switch {
		case k[i] < o[i]:
			return -1
		case k[i] > o[i]:
			return 1
		}
	}
	return 0
}

// header returns the entry's key header word, tag<<8 | nv: the first
// two canonical key bytes.
func (ent *CacheEntry) header() uint64 {
	hdr := uint64(uint8(ent.NV))
	if ent.Heuristic {
		hdr |= 1 << 8
	}
	return hdr
}

// narrow reports whether the entry has a narrow key: nv in [1,
// narrowMaxNV] and one-word bitsets. A malformed entry keys by its
// bytes instead, so keying it never fails.
func (ent *CacheEntry) narrow() bool {
	return ent.NV >= 1 && ent.NV <= narrowMaxNV && len(ent.Used) == 1 && len(ent.On) == 1
}

// narrowKeyOf returns the narrow key of an entry for which narrow holds.
func narrowKeyOf(ent *CacheEntry) narrowKey {
	return narrowKey{ent.header(), bits.ReverseBytes64(ent.Used[0]), bits.ReverseBytes64(ent.On[0])}
}

// keyHash is the 64-bit FNV-1a hash of the canonical key bytes with
// header hdr and the given bitsets — the bytes AppendKey writes, hashed
// from the words without building them. The in-memory cache and the
// on-disk store both shard by it.
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
// (AppendKey's bytes), computed from its words. It is part of the
// on-disk store's layout: the store assigns entries to shard files by
// it.
func (ent CacheEntry) ShardHash() uint64 {
	return keyHash(ent.header(), ent.Used, ent.On)
}

// CompareEntries orders two entries by their canonical keys, the byte
// order of AppendKey, without building the bytes: the header (tag,
// then nv) first, then the used and ON bitsets word by word, each word
// compared in its little-endian byte order.
func CompareEntries(a, b *CacheEntry) int {
	if c := cmp.Compare(a.header(), b.header()); c != 0 {
		return c
	}
	if c := compareWords(a.Used, b.Used); c != 0 {
		return c
	}
	return compareWords(a.On, b.On)
}

// compareWords compares two bitsets in canonical byte order. Equal
// headers give well-formed entries equally long bitsets; a malformed
// pair compares by the common words, then by length.
func compareWords(a, b []uint64) int {
	for i := range min(len(a), len(b)) {
		if c := cmp.Compare(bits.ReverseBytes64(a[i]), bits.ReverseBytes64(b[i])); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// SortEntries sorts entries into canonical key order (CompareEntries).
func SortEntries(ents []CacheEntry) {
	slices.SortFunc(ents, func(a, b CacheEntry) int { return CompareEntries(&a, &b) })
}

// KeySet is a set of canonical entry keys: narrow keys (nv ≤ 6) as
// their three words, wider keys as their canonical bytes. Probing it
// builds no string; adding a wide key interns one. A KeySet is not safe
// for concurrent use.
type KeySet struct {
	narrow map[narrowKey]struct{}
	wide   map[string]struct{}
	buf    []byte
}

// NewKeySet returns an empty set sized for about hint narrow keys.
func NewKeySet(hint int) *KeySet {
	return &KeySet{narrow: make(map[narrowKey]struct{}, hint), wide: make(map[string]struct{})}
}

// Len returns the number of keys in the set.
func (s *KeySet) Len() int { return len(s.narrow) + len(s.wide) }

// Has reports whether the entry's key is in the set.
func (s *KeySet) Has(ent *CacheEntry) bool {
	if ent.narrow() {
		_, ok := s.narrow[narrowKeyOf(ent)]
		return ok
	}
	s.buf = ent.AppendKey(s.buf[:0])
	_, ok := s.wide[string(s.buf)]
	return ok
}

// Add inserts the entry's key and reports whether it was new.
func (s *KeySet) Add(ent *CacheEntry) bool {
	if ent.narrow() {
		n := len(s.narrow)
		s.narrow[narrowKeyOf(ent)] = struct{}{}
		return len(s.narrow) > n
	}
	s.buf = ent.AppendKey(s.buf[:0])
	if _, ok := s.wide[string(s.buf)]; ok {
		return false
	}
	s.wide[string(s.buf)] = struct{}{}
	return true
}
