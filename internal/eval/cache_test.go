package eval

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"picola/internal/espresso"
	"picola/internal/exact"
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
	return fmt.Sprint(kb.nk, kb.key), true
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

// TestCacheKeyNamesMinimizer: beyond exact.MaxInputs espresso serves the
// exact policy too, so at nv = 12 an exact and a heuristic request share
// one entry, and Export marks it Heuristic — the count it holds is
// espresso's.
func TestCacheKeyNamesMinimizer(t *testing.T) {
	const nv = 12
	if nv <= exact.MaxInputs || nv > cacheMaxNV {
		t.Fatalf("nv = %d must be cacheable and beyond the exact limit %d", nv, exact.MaxInputs)
	}
	e := face.NewEncoding(4, nv)
	e.Codes[0], e.Codes[1], e.Codes[2], e.Codes[3] = 0b000, 0b011, 0b001, 0b110
	c := face.FromMembers(4, 0, 1) // the members' supercube holds code 001
	cache := NewCache()
	k, err := cache.ConstraintCubes(e, c)
	if err != nil {
		t.Fatal(err)
	}
	kh, err := cache.ConstraintCubesHeuristic(e, c)
	if err != nil {
		t.Fatal(err)
	}
	if k != kh {
		t.Fatalf("exact request %d cubes, heuristic %d: both run espresso", k, kh)
	}
	ents := cache.Export()
	if len(ents) != 1 {
		t.Fatalf("cache holds %d entries, want the one espresso entry", len(ents))
	}
	if !ents[0].Heuristic || ents[0].NV != nv || ents[0].Cubes != k {
		t.Fatalf("entry %+v, want Heuristic at nv %d with %d cubes", ents[0], nv, k)
	}
}

// TestCacheBypassOnConflict: a member and a non-member sharing a code
// (non-injective encoding) cannot be expressed as disjoint ON/OFF
// bitsets; the cache must bypass, not mis-memoize.
func TestCacheBypassOnConflict(t *testing.T) {
	e := face.NewEncoding(4, 2)
	e.Codes[0], e.Codes[1], e.Codes[2], e.Codes[3] = 0b00, 0b01, 0b00, 0b11
	c := face.FromMembers(4, 0, 1) // symbol 2 (non-member) shares code 00 with member 0
	if _, ok := cacheKey(e, c, false); ok {
		t.Fatal("conflicting ON/OFF code must not be canonicalized")
	}
	// The minimizer itself rejects the contradictory ON/OFF input; the
	// cached path must propagate the same outcome and memoize nothing.
	cache := NewCache()
	want, wantErr := uncached.ConstraintCubes(e, c)
	if wantErr == nil {
		t.Fatal("a code both ON and OFF must be an error")
	}
	got, gotErr := cache.ConstraintCubes(e, c)
	if (gotErr == nil) != (wantErr == nil) || got != want {
		t.Fatalf("bypassed lookup: (%d, %v), direct: (%d, %v)", got, gotErr, want, wantErr)
	}
	if cache.Len() != 0 {
		t.Fatalf("bypass inserted %d entries", cache.Len())
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
	ents := sameShardEntries(3)
	ents = append(ents, CacheEntry{NV: 7, Used: []uint64{^uint64(0), 0xff}, On: []uint64{0x5, 0x1}, Cubes: 4})
	if _, err := c.Import(ents); err != nil {
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

// TestEntryKeyOrderAndHash: at both key widths, CompareEntries orders
// entries as their canonical key bytes do, ShardHash is the FNV-1a hash
// of those bytes, and a KeySet tells keys apart exactly as the bytes do.
// The bitset words come from a small set so that ties reach every word.
func TestEntryKeyOrderAndHash(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	vals := []uint64{0, 1, 0x100, 0xff << 56, ^uint64(0)}
	var ents []CacheEntry
	for i := 0; i < 300; i++ {
		nv := 4 + r.Intn(5) // narrow at nv 4–6, wide at 7–8
		w := entryWords(nv)
		ent := CacheEntry{Heuristic: r.Intn(2) == 0, NV: nv, Used: make([]uint64, w), On: make([]uint64, w)}
		for j := range ent.Used {
			ent.Used[j], ent.On[j] = vals[r.Intn(len(vals))], vals[r.Intn(len(vals))]
		}
		ents = append(ents, ent)
	}
	set := NewKeySet(0)
	distinct := map[string]bool{}
	for i := range ents {
		a := &ents[i]
		for j := range ents {
			b := &ents[j]
			if got, want := CompareEntries(a, b), bytes.Compare(a.AppendKey(nil), b.AppendKey(nil)); got != want {
				t.Fatalf("CompareEntries(%+v, %+v) = %d, canonical bytes compare %d", *a, *b, got, want)
			}
		}
		h := fnv.New64a()
		h.Write(a.AppendKey(nil))
		if a.ShardHash() != h.Sum64() {
			t.Fatalf("ShardHash(%+v) = %#x, FNV-1a of the key %#x", *a, a.ShardHash(), h.Sum64())
		}
		k := string(a.AppendKey(nil))
		if added := set.Add(a); added == distinct[k] {
			t.Fatalf("KeySet.Add(%+v) = %v, key seen before: %v", *a, added, distinct[k])
		}
		distinct[k] = true
		if !set.Has(a) {
			t.Fatalf("KeySet lost %+v", *a)
		}
	}
	if set.Len() != len(distinct) {
		t.Fatalf("KeySet holds %d keys, want %d", set.Len(), len(distinct))
	}
}
