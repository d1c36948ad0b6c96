package eval

import (
	"encoding/binary"
	"math/bits"
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
//
//picola:hot
func satisfiedOne(e *face.Encoding, con face.Constraint) bool {
	return con.N() == e.N() && con.Count() > 0 && e.Satisfied(con)
}

// keyBuf is the pooled scratch of one cache lookup: the on/used bitset
// words and, at nv ≤ memoMaxNV, the request's key. On a warmed instance
// a lookup allocates nothing.
type keyBuf struct {
	// key is the memo key, and hash its keyHash; both are set only at
	// nv ≤ memoMaxNV.
	key   memoKey
	hash  uint64
	words []uint64
	// dc is dcKey's scratch.
	dc        []byte
	injective bool // every symbol has a distinct code
}

var keyPool = sync.Pool{New: func() any { return new(keyBuf) }}

// cacheKey canonicalizes one minimization request into the pooled
// buffer: the used-code bitset (whose complement is the don't-care set)
// and the ON-set bitset over the 2^nv code space, and at nv ≤ memoMaxNV
// the memo key — one policy byte, the code length and the two bitsets.
// The policy byte names the minimizer that computes the request
// (minimizerFor), not the one requested. It reports false when the
// request cannot be canonicalized that way — the code space exceeds
// cacheMaxNV, or a member and a non-member share a code (only possible
// on non-injective encodings), which would put the code in both the ON
// and OFF covers.
//
//picola:hot
func (kb *keyBuf) cacheKey(e *face.Encoding, con face.Constraint, heuristic bool) bool {
	nv := e.NV
	if nv > cacheMaxNV || con.N() != e.N() {
		return false
	}
	words := entryWords(nv)
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
	if nv <= memoMaxNV {
		kb.setKey(heuristic, nv)
	}
	return true
}

// setKey sets the memo key and its hash from the one-word ON and used
// bitsets in kb.words, for a request of the given policy at nv ≤
// memoMaxNV.
//
//picola:hot
func (kb *keyBuf) setKey(heuristic bool, nv int) {
	hdr := uint64(nv)
	if minimizerFor(heuristic, nv) == byEspresso {
		hdr |= 1 << 8
	}
	on, used := kb.words[0:1], kb.words[1:2]
	kb.key = memoKey{hdr, bits.ReverseBytes64(used[0]), bits.ReverseBytes64(on[0])}
	kb.hash = keyHash(hdr, used, on)
}

// codeWords fills the bitsets on and used, each ⌈2^nv/64⌉ words over the
// code space, with the codes of con's members and of every symbol. It
// reports false, with the offending code, when a member and a non-member
// share a code: that code would be both ON and OFF.
//
//picola:hot
func codeWords(e *face.Encoding, con face.Constraint, on, used []uint64) (uint64, bool) {
	mask := e.Mask()
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
func (kb *keyBuf) dcKey(nv int) []byte {
	kb.dc = append(kb.dc[:0], byte(nv))
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
		dk := kb.dcKey(e.NV)
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
		dc = c.dcStore(string(kb.dcKey(e.NV)), dc)
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
