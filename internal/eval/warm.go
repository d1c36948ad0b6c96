package eval

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/face"
	"picola/internal/obs"
)

// Warm-start metrics. hits counts requests answered by the satisfied
// certificate alone (no key build, no minimizer); dc_hits counts espresso
// runs seeded with a memoized don't-care cover; fallbacks counts espresso
// runs that had to derive the don't-care cover from scratch (first sight
// of a used-code signature, or a non-injective encoding the memo must not
// canonicalize).
var (
	mWarmHits      = obs.Default.Counter("eval.warm.hits")
	mWarmDCHits    = obs.Default.Counter("eval.warm.dc_hits")
	mWarmFallbacks = obs.Default.Counter("eval.warm.fallbacks")
)

// satisfiedOne reports the warm certificate: the constraint has at least
// one member and the supercube of the member codes (the agree-column
// cube) contains no non-member's code. Every minterm of that supercube is
// then ON or don't-care, so the supercube itself is a legal implicant
// covering the whole ON-set — the minimum cover is exactly one cube, and
// both the exact minimizer and espresso provably return it (espresso's
// first expansion is never blocked inside the supercube, making it the
// single essential prime). This is the same single-cube contract
// Evaluate's satisfied shortcut and the verify oracle already enforce;
// here it answers the request without touching the cache or a minimizer.
// The scan mirrors face.Encoding.Intruders without its allocations.
//
//picola:hot
func satisfiedOne(e *face.Encoding, con face.Constraint) bool {
	if con.N() != e.N() {
		return false
	}
	n := e.N()
	first := -1
	var agreeMask, val uint64
	for s := 0; s < n; s++ {
		if !con.Has(s) {
			continue
		}
		if first < 0 {
			first = s
			val = e.Codes[s]
			agreeMask = ^uint64(0)
			if e.NV < 64 {
				agreeMask = uint64(1)<<uint(e.NV) - 1
			}
			continue
		}
		agreeMask &^= val ^ e.Codes[s]
	}
	if first < 0 {
		return false
	}
	for s := 0; s < n; s++ {
		if con.Has(s) {
			continue
		}
		if (e.Codes[s]^val)&agreeMask == 0 {
			return false
		}
	}
	return true
}

// keyBuf is the pooled scratch of one cache lookup: the on/used bitset
// words and the request's key — narrow, or a wide key's canonical
// bytes. On a warmed instance a lookup allocates nothing (a wide probe
// via string(kb.key) compiles to a no-copy lookup; only a miss's insert
// interns a wide key).
type keyBuf struct {
	// nk is the narrow key; for a wide key only its header word is set.
	nk narrowKey
	// key holds a wide key's canonical bytes and is empty for a narrow
	// key.
	key []byte
	// hash is keyHash of the key, whichever its width.
	hash  uint64
	words []uint64
	// dc is dcKey's scratch.
	dc        []byte
	injective bool // every symbol has a distinct code
}

var keyPool = sync.Pool{New: func() any { return new(keyBuf) }}

// wide reports whether kb holds a wide key.
func (kb *keyBuf) wide() bool { return len(kb.key) > 0 }

// size is the key's accounted cache size: its canonical byte length plus
// the fixed per-entry overhead.
func (kb *keyBuf) size() int64 {
	if kb.wide() {
		return int64(len(kb.key)) + entryBytesOverhead
	}
	return narrowKeyBytes + entryBytesOverhead
}

// cacheKey builds the canonical signature of one minimization request
// into the pooled buffer: one policy byte, the code length, the used-code
// bitset (whose complement is the don't-care set) and the ON-set bitset
// over the 2^nv code space. At nv ≤ narrowMaxNV that is the narrow key;
// beyond, the canonical bytes in that order. The policy byte names the
// minimizer that computes the request (minimizerFor), not the one
// requested: an exact request that espresso serves shares the heuristic
// request's entry. It reports false when the request cannot be
// canonicalized that way — the code space exceeds cacheMaxNV, or a
// member and a non-member share a code (only possible on non-injective
// encodings), which would put the code in both the ON and OFF covers.
//
//picola:hot
func (kb *keyBuf) cacheKey(e *face.Encoding, con face.Constraint, heuristic bool) bool {
	nv := e.NV
	if nv > cacheMaxNV || con.N() != e.N() {
		return false
	}
	words := ((1 << uint(nv)) + 63) / 64
	if cap(kb.words) < 2*words {
		kb.words = make([]uint64, 2*words)
	}
	kb.words = kb.words[:2*words]
	on, used := kb.words[:words], kb.words[words:]
	if _, ok := codeWords(e, con, on, used); !ok {
		return false // code is both ON and OFF: not canonicalizable
	}
	usedCount := 0
	for _, w := range used {
		usedCount += bits.OnesCount64(w)
	}
	kb.injective = usedCount == e.N()
	hdr := uint64(nv)
	if minimizerFor(heuristic, nv) == byEspresso {
		hdr |= 1 << 8
	}
	kb.nk = narrowKey{hdr}
	kb.hash = keyHash(hdr, used, on)
	kb.key = kb.key[:0]
	if nv <= narrowMaxNV {
		kb.nk[1], kb.nk[2] = bits.ReverseBytes64(used[0]), bits.ReverseBytes64(on[0])
		return true
	}
	if cap(kb.key) < 2+16*words {
		kb.key = make([]byte, 0, 2+16*words)
	}
	kb.key = append(kb.key, byte(hdr>>8), byte(nv))
	for _, w := range kb.words[words:] { // used first, then on
		kb.key = append(kb.key,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	for _, w := range kb.words[:words] {
		kb.key = append(kb.key,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return true
}

// entryKey sets kb to the key of a validated entry (Import's path; the
// bitset words stay the entry's own).
func (kb *keyBuf) entryKey(ent *CacheEntry) {
	kb.hash = ent.ShardHash()
	kb.key = kb.key[:0]
	if ent.narrow() {
		kb.nk = narrowKeyOf(ent)
		return
	}
	kb.nk = narrowKey{ent.header()}
	kb.key = ent.AppendKey(slices.Grow(kb.key, 2+8*(len(ent.Used)+len(ent.On))))
}

// codeWords fills the bitsets on and used, each ⌈2^nv/64⌉ words over the
// code space, with the codes of con's members and of every symbol. It
// reports false, with the offending code, when a member and a non-member
// share a code: that code would be both ON and OFF.
//
//picola:hot
func codeWords(e *face.Encoding, con face.Constraint, on, used []uint64) (uint64, bool) {
	mask := uint64(1)<<uint(e.NV) - 1
	for i := range on {
		on[i], used[i] = 0, 0
	}
	for s := 0; s < e.N(); s++ {
		code := e.Codes[s] & mask
		used[code/64] |= 1 << (code % 64)
		if con.Has(s) {
			on[code/64] |= 1 << (code % 64)
		}
	}
	for s := 0; s < e.N(); s++ {
		if con.Has(s) {
			continue
		}
		if code := e.Codes[s] & mask; on[code/64]&(1<<(code%64)) != 0 {
			return code, false
		}
	}
	return 0, true
}

// dcKey builds the [nv, used-words...] signature of the request — the
// input the don't-care cover depends on — into kb.dc. Splits of the same
// code set into different ON/OFF partitions share it.
func (kb *keyBuf) dcKey() []byte {
	kb.dc = append(kb.dc[:0], byte(kb.nk[0]))
	for _, w := range kb.words[len(kb.words)/2:] {
		kb.dc = binary.LittleEndian.AppendUint64(kb.dc, w)
	}
	return kb.dc
}

// dcCover returns the don't-care cover — the complement of the used-code
// minterms — for the request canonicalized in kb, memoized per
// (nv, used-bitset) signature. The complement's output is a pure function
// of the input cube multiset (order-insensitive: see
// cover.TestComplementOrderInsensitive), so for injective encodings the
// memoized cover is identical to the one espresso.Minimize would derive
// internally, whatever symbol order or ON/OFF split produced it. A
// non-injective encoding's minterm multiset carries multiplicities the
// bitset cannot represent, so those requests always rebuild — exactly the
// cold construction, never memoized.
func (c *Cache) dcCover(kb *keyBuf, e *face.Encoding) *cover.Cover {
	if kb.injective {
		dk := kb.dcKey()
		c.dcMu.RLock()
		dc, ok := c.dcm[string(dk)]
		c.dcMu.RUnlock()
		if ok {
			mWarmDCHits.Inc()
			return dc
		}
	}
	mWarmFallbacks.Inc()
	d := cube.BinaryInterned(e.NV)
	un := cover.New(d)
	for s := 0; s < e.N(); s++ {
		un.Add(codeCube(d, e, s))
	}
	dc := un.Complement()
	if kb.injective {
		dc = c.dcStore(string(kb.dcKey()), dc)
	}
	return dc
}

// dcStore interns a freshly built don't-care cover under its signature.
// A concurrent builder may have won the race; the canonical (first
// stored) entry is returned either way so every caller shares one cover.
func (c *Cache) dcStore(k string, dc *cover.Cover) *cover.Cover {
	c.dcMu.Lock()
	defer c.dcMu.Unlock()
	if prev, ok := c.dcm[k]; ok {
		return prev
	}
	if len(c.dcm) < dcMemoCap {
		c.dcm[k] = dc
	}
	return dc
}
