package eval

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"picola/internal/exact"
	"picola/internal/face"
)

// testEncoding builds a deterministic injective encoding of n symbols over
// nv columns (symbol index as its own code).
func testEncoding(n, nv int) *face.Encoding {
	e := face.NewEncoding(n, nv)
	for s := 0; s < n; s++ {
		for col := 0; col < nv; col++ {
			e.SetBit(s, col, s>>uint(col)&1)
		}
	}
	return e
}

// TestConstraintFunctionSharesDomain: the per-nv interned cache means two
// calls build their covers over one *Domain — no per-call rebuild.
func TestConstraintFunctionSharesDomain(t *testing.T) {
	e := testEncoding(6, 3)
	c := face.FromMembers(6, 0, 1, 5)
	f1 := ConstraintFunction(e, c)
	f2 := ConstraintFunction(e, c)
	if f1.D != f2.D {
		t.Fatal("ConstraintFunction rebuilt the domain: two calls returned distinct *Domain")
	}
	if f1.D.NumVars() != 3 || !f1.D.SingleWord() {
		t.Fatalf("interned domain malformed: %d vars", f1.D.NumVars())
	}
}

// TestAllocsExactScoring is the steady-state allocation gate of the
// tentpole: on a warmed arena, one exact single-word constraint scoring —
// bitset build, prime generation, covering — performs zero heap
// allocations.
func TestAllocsExactScoring(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	e := testEncoding(6, 3)
	cons := []face.Constraint{
		face.FromMembers(6, 0, 1, 5),
		face.FromMembers(6, 2, 3),
		face.FromMembers(6, 1, 2, 4, 5),
	}
	score := func() {
		for _, c := range cons {
			if _, err := ConstraintCubes(e, c); err != nil {
				t.Fatal(err)
			}
		}
	}
	score() // warm the pooled scorer
	if allocs := testing.AllocsPerRun(200, score); allocs != 0 {
		t.Fatalf("steady-state exact scoring allocates %.1f objects/run, want 0", allocs)
	}
}

// assertScoringAllocFree fails if a warmed ConstraintCubes of c under e
// allocates.
func assertScoringAllocFree(t *testing.T, e *face.Encoding, c face.Constraint) {
	t.Helper()
	score := func() {
		if _, err := ConstraintCubes(e, c); err != nil {
			t.Fatal(err)
		}
	}
	score()
	if allocs := testing.AllocsPerRun(100, score); allocs != 0 {
		t.Fatalf("%d-bit exact scoring allocates %.1f objects/run, want 0", e.NV, allocs)
	}
}

// TestAllocsWiderCodeSpace: a 5-bit space must also be allocation-free
// once warmed.
func TestAllocsWiderCodeSpace(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	assertScoringAllocFree(t, testEncoding(20, 5), face.FromMembers(20, 0, 3, 7, 11, 19))
}

// TestAllocsWidestWord: the widest one-word space, nv = 6, where the
// bitsets fill the whole word and the prime shifts reach bit 32. The 40
// codes are spread over all 64 minterms, so every one is ON, OFF or
// don't-care in play.
func TestAllocsWidestWord(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	const n = 40
	e := face.NewEncoding(n, 6)
	c := face.NewConstraint(n)
	for s := 0; s < n; s++ {
		e.Codes[s] = uint64(s*37) % 64
		if s%3 != 1 {
			c.Add(s)
		}
	}
	assertScoringAllocFree(t, e, c)
}

// TestAllocsCounterPath: past one word, the Counter's wide search (nv
// 7–11), fed from bitsets that codeWords fills in the uncached path's
// pooled scorer, must stay allocation-free too.
func TestAllocsCounterPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	assertScoringAllocFree(t, testEncoding(70, 7), face.FromMembers(70, 0, 5, 9, 33, 64, 69))
}

// TestAllocsImport: importing narrow entries (nv ≤ 6) allocates
// nothing per entry — the key is three words, stored in the shard map
// as is — beyond the amortized growth of the 64 shard maps. A wide
// entry allocates its interned key string. Re-importing entries the
// cache already holds allocates nothing per entry at either width.
func TestAllocsImport(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	const n = 10000
	for _, tc := range []struct {
		nv       int
		perEntry float64
	}{
		{5, 0.1},
		{8, 1.25},
	} {
		r := rand.New(rand.NewSource(3))
		ents := make([]CacheEntry, n)
		for i := range ents {
			w := entryWords(tc.nv)
			ent := CacheEntry{NV: tc.nv, Used: make([]uint64, w), On: make([]uint64, w), Cubes: 1 + i%7}
			ent.Used[0] = r.Uint64()&0xffffffff | 1<<uint(i%32)
			ent.On[0] = ent.Used[0] & r.Uint64()
			ents[i] = ent
		}
		const runs = 3
		caches := make([]*Cache, runs+1) // AllocsPerRun adds one warm-up run
		for i := range caches {
			caches[i] = NewCacheBytes(256 << 20)
		}
		next := 0
		var st ImportStats
		perImport := testing.AllocsPerRun(runs, func() {
			st, _ = caches[next].Import(ents)
			next++
		})
		if st.Inserted < n-n/100 {
			t.Fatalf("nv=%d: only %d of %d entries inserted", tc.nv, st.Inserted, n)
		}
		per := perImport / float64(st.Inserted)
		t.Logf("nv=%d: %.3f allocations per inserted entry", tc.nv, per)
		if per > tc.perEntry {
			t.Fatalf("nv=%d: Import allocates %.3f objects per inserted entry, want <= %.2f", tc.nv, per, tc.perEntry)
		}
		dup := testing.AllocsPerRun(runs, func() {
			st, _ = caches[0].Import(ents)
		})
		if st.Inserted != 0 || dup > 2 {
			t.Fatalf("nv=%d: re-import of %d held entries: %d inserted, %.1f allocations, want 0 and O(1)",
				tc.nv, n, st.Inserted, dup)
		}
	}
}

// TestPooledScoringUnderContention hammers the pooled exact path from
// GOMAXPROCS×2 goroutines and checks every result against the unpooled
// reference (ConstraintFunction + exact.Minimize). Run under -race, this
// is the pooling layer's contention gate.
func TestPooledScoringUnderContention(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, nv = 12, 4
	e := testEncoding(n, nv)
	var cons []face.Constraint
	var want []int
	for i := 0; i < 24; i++ {
		c := face.NewConstraint(n)
		for s := 0; s < n; s++ {
			if rng.Intn(3) == 0 {
				c.Add(s)
			}
		}
		if c.Count() == 0 {
			c.Add(rng.Intn(n))
		}
		cons = append(cons, c)
		min, proven, err := exact.Minimize(ConstraintFunction(e, c), nv)
		if err != nil || !proven {
			t.Fatalf("reference: proven %v, error %v", proven, err)
		}
		want = append(want, min.Len())
	}

	workers := runtime.GOMAXPROCS(0) * 2
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				for i, c := range cons {
					got, err := ConstraintCubes(e, c)
					if err != nil {
						errs[w] = err
						return
					}
					if got != want[i] {
						t.Errorf("worker %d: constraint %d: pooled %d, reference %d", w, i, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
