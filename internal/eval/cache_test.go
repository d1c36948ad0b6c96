package eval

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"picola/internal/espresso"
	"picola/internal/face"
	"picola/internal/par"
)

// cacheKey is the unpooled form of keyBuf.cacheKey, for tests that
// inspect key identity and bypass decisions.
func cacheKey(e *face.Encoding, c face.Constraint, heuristic bool) (string, bool) {
	var kb keyBuf
	if !kb.cacheKey(e, c, heuristic) {
		return "", false
	}
	return fmt.Sprint(kb.key), true
}

// appendKey appends the entry's canonical key bytes to dst: tag, nv,
// then the used and ON words little-endian — the order CompareEntries
// and ShardHash are defined by.
func appendKey(dst []byte, ent *CacheEntry) []byte {
	tag := byte(0)
	if ent.Heuristic {
		tag = 1
	}
	dst = append(dst, tag, byte(ent.NV))
	for _, w := range append(slices.Clone(ent.Used), ent.On...) {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// randomInstance builds a deterministic pseudo-random injective encoding
// and a non-trivial constraint over it.
func randomInstance(r *rand.Rand) (*face.Encoding, face.Constraint) {
	for {
		n := 3 + r.Intn(12)
		nv := 0
		for (1 << nv) < n {
			nv++
		}
		nv += r.Intn(2) // sometimes one spare column
		e := face.NewEncoding(n, nv)
		perm := r.Perm(1 << uint(nv))
		for s := 0; s < n; s++ {
			e.Codes[s] = uint64(perm[s])
		}
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if r.Intn(3) == 0 {
				c.Add(s)
			}
		}
		if c.Count() >= 2 && c.Count() < n {
			return e, c
		}
	}
}

// TestCacheMatchesUncached: the memoized count equals the direct one for
// both minimizer policies, on first (miss) and second (hit) lookup, and
// the direct heuristic count equals espresso's on ConstraintFunction.
func TestCacheMatchesUncached(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cache := NewCache()
	for trial := 0; trial < 120; trial++ {
		e, c := randomInstance(r)
		want, err := uncached.ConstraintCubes(e, c)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			got, err := cache.ConstraintCubes(e, c)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d round %d: cached %d, uncached %d", trial, round, got, want)
			}
		}
		wantH, err := uncached.ConstraintCubesHeuristic(e, c)
		if err != nil {
			t.Fatal(err)
		}
		// The pooled heuristic path must count what espresso returns on
		// ConstraintFunction's covers, the reference internal/verify uses.
		ref, err := espresso.Minimize(ConstraintFunction(e, c))
		if err != nil {
			t.Fatal(err)
		}
		if wantH != ref.Len() {
			t.Fatalf("trial %d heuristic: pooled %d, ConstraintFunction reference %d", trial, wantH, ref.Len())
		}
		gotH, err := cache.ConstraintCubesHeuristic(e, c)
		if err != nil {
			t.Fatal(err)
		}
		if gotH != wantH {
			t.Fatalf("trial %d heuristic: cached %d, uncached %d", trial, gotH, wantH)
		}
	}
	if cache.Len() == 0 {
		t.Fatal("cache stored nothing")
	}
}

// TestCacheNilReceiver: a nil *Cache computes every request.
func TestCacheNilReceiver(t *testing.T) {
	e := face.NewEncoding(4, 2)
	for s := 0; s < 4; s++ {
		e.Codes[s] = uint64(s)
	}
	c := face.FromMembers(4, 0, 3)
	var nilCache *Cache
	got, err := nilCache.ConstraintCubes(e, c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := uncached.ConstraintCubes(e, c)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("nil cache: %d, direct: %d", got, want)
	}
}

// TestCacheKeyCanonical: two different encodings inducing the same
// ON/used code sets share one entry; the two minimizer policies do not.
func TestCacheKeyCanonical(t *testing.T) {
	// e1 and e2 permute which symbol holds which code but keep the member
	// code set {00,01} and used set {00,01,10,11} identical.
	e1 := face.NewEncoding(4, 2)
	e1.Codes[0], e1.Codes[1], e1.Codes[2], e1.Codes[3] = 0b00, 0b01, 0b10, 0b11
	c1 := face.FromMembers(4, 0, 1)
	e2 := face.NewEncoding(4, 2)
	e2.Codes[0], e2.Codes[1], e2.Codes[2], e2.Codes[3] = 0b01, 0b11, 0b00, 0b10
	c2 := face.FromMembers(4, 2, 0) // member codes {00, 01} again

	k1, ok1 := cacheKey(e1, c1, false)
	k2, ok2 := cacheKey(e2, c2, false)
	if !ok1 || !ok2 {
		t.Fatal("keys not canonicalizable")
	}
	if k1 != k2 {
		t.Error("same minimization input produced different keys")
	}
	kh, _ := cacheKey(e1, c1, true)
	if kh == k1 {
		t.Error("exact-policy and heuristic keys must differ")
	}
}

// TestCacheBypassOnConflict: a member and a non-member sharing a code
// (non-injective encoding) cannot be expressed as disjoint ON/OFF
// bitsets; the cache must bypass, not mis-memoize, both where it
// memoizes (nv 2) and where it computes every request (nv 7).
func TestCacheBypassOnConflict(t *testing.T) {
	e2 := face.NewEncoding(4, 2)
	e2.Codes[0], e2.Codes[1], e2.Codes[2], e2.Codes[3] = 0b00, 0b01, 0b00, 0b11
	e7 := face.NewEncoding(4, 7)
	e7.Codes[0], e7.Codes[1], e7.Codes[2], e7.Codes[3] = 0b1000000, 0b0100001, 0b1000000, 0b0010011
	c := face.FromMembers(4, 0, 1) // symbol 2 (non-member) shares its code with member 0
	for _, e := range []*face.Encoding{e2, e7} {
		if _, ok := cacheKey(e, c, false); ok {
			t.Fatalf("nv=%d: conflicting ON/OFF code must not be canonicalized", e.NV)
		}
		// The minimizer itself rejects the contradictory ON/OFF input; the
		// cached path must propagate the same outcome and memoize nothing.
		cache := NewCache()
		want, wantErr := uncached.ConstraintCubes(e, c)
		if wantErr == nil {
			t.Fatalf("nv=%d: a code both ON and OFF must be an error", e.NV)
		}
		got, gotErr := cache.ConstraintCubes(e, c)
		if (gotErr == nil) != (wantErr == nil) || got != want {
			t.Fatalf("nv=%d: bypassed lookup: (%d, %v), direct: (%d, %v)", e.NV, got, gotErr, want, wantErr)
		}
		if cache.Len() != 0 {
			t.Fatalf("nv=%d: bypass inserted %d entries", e.NV, cache.Len())
		}
	}
}

// TestCacheConcurrent hammers one shared cache from the pool; under
// -race this is the concurrency-safety gate, and every result must
// still match the uncached value.
func TestCacheConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	type inst struct {
		e    *face.Encoding
		c    face.Constraint
		want int
	}
	var insts []inst
	for i := 0; i < 40; i++ {
		e, c := randomInstance(r)
		want, err := uncached.ConstraintCubes(e, c)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst{e, c, want})
	}
	cache := NewCache()
	// Each task re-evaluates every instance, so identical keys collide
	// across workers constantly.
	_, err := par.Map(32, 8, func(task int) (int, error) {
		for _, in := range insts {
			got, err := cache.ConstraintCubes(in.e, in.c)
			if err != nil {
				return 0, err
			}
			if got != in.want {
				t.Errorf("task %d: cached %d, want %d", task, got, in.want)
			}
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExportedEntriesIsolated: Export carves every entry's bitsets from
// one slab, cap-limited, so appending to one exported entry's Used or On
// can never write into its neighbour's words.
func TestExportedEntriesIsolated(t *testing.T) {
	c := NewCache()
	if _, err := c.Import(sameShardEntries(4)); err != nil {
		t.Fatal(err)
	}
	got := c.Export()
	want := c.Export()
	for i := range got[:len(got)-1] {
		_ = append(got[i].Used, 0xdead)
		_ = append(got[i].On, 0xbeef)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("appending to exported bitsets changed a neighbour: %+v", got)
	}
}

// TestEntryKeyOrderAndHash: at every memoized code length,
// CompareEntries orders entries as their canonical key bytes do,
// ShardHash is the FNV-1a hash of those bytes, and a KeySet tells keys
// apart exactly as the bytes do. The bitset words come from a small set
// so that ties reach every word.
func TestEntryKeyOrderAndHash(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	vals := []uint64{0, 1, 0x100, 0xff << 56, ^uint64(0)}
	var ents []CacheEntry
	for i := 0; i < 300; i++ {
		ents = append(ents, CacheEntry{
			Heuristic: r.Intn(2) == 0,
			NV:        1 + r.Intn(memoMaxNV),
			Used:      []uint64{vals[r.Intn(len(vals))]},
			On:        []uint64{vals[r.Intn(len(vals))]},
		})
	}
	set := KeySet{}
	distinct := map[string]bool{}
	for i := range ents {
		a := &ents[i]
		for j := range ents {
			b := &ents[j]
			if got, want := CompareEntries(a, b), bytes.Compare(appendKey(nil, a), appendKey(nil, b)); got != want {
				t.Fatalf("CompareEntries(%+v, %+v) = %d, canonical bytes compare %d", *a, *b, got, want)
			}
		}
		h := fnv.New64a()
		h.Write(appendKey(nil, a))
		if a.ShardHash() != h.Sum64() {
			t.Fatalf("ShardHash(%+v) = %#x, FNV-1a of the key %#x", *a, a.ShardHash(), h.Sum64())
		}
		k := string(appendKey(nil, a))
		if added := set.Add(a); added == distinct[k] {
			t.Fatalf("KeySet.Add(%+v) = %v, key seen before: %v", *a, added, distinct[k])
		}
		distinct[k] = true
		if !set.Has(a) {
			t.Fatalf("KeySet lost %+v", *a)
		}
	}
	if len(set) != len(distinct) {
		t.Fatalf("KeySet holds %d keys, want %d", len(set), len(distinct))
	}
}
