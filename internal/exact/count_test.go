package exact

import (
	"context"
	"math/rand"
	"testing"
)

// sparseBits draws a function of Table III's shape over nv inputs: k ON
// and off OFF minterms at distinct random positions, the rest
// don't-care.
func sparseBits(rng *rand.Rand, nv, k, off int) (on, used []uint64) {
	w := (1<<uint(nv) + 63) / 64
	on, used = make([]uint64, w), make([]uint64, w)
	for i, x := range rng.Perm(1 << uint(nv))[:k+off] {
		if i < k {
			on[x/64] |= 1 << uint(x%64)
		}
		used[x/64] |= 1 << uint(x%64)
	}
	return on, used
}

// TestCounterMatchesMinimize is the parity gate: Count must return
// exactly len(Minimize(f).Cubes) — Minimize is the oracle — on random
// functions at nv 0–8, a third of whose minterms are ON (at nv 8 more
// than 64, which Minimize itself counts), and on sparse functions at
// nv 7 and 8. Minimize's run time sets the few samples at the top
// widths.
func TestCounterMatchesMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	perWidth := []int{40, 40, 40, 40, 40, 40, 40, 6, 3} // indexed by nv
	var ct Counter
	for nv, k := range perWidth {
		for i := 0; i < k; i++ {
			on, used := randBits(rng, nv, 2, 2)
			checkCount(t, &ct, nv, on, used)
		}
	}
	for i := 0; i < 40; i++ {
		nv, k := 7+i%2, 1+i%16
		on, used := sparseBits(rng, nv, k, 2*k+i%24)
		checkCount(t, &ct, nv, on, used)
	}
}

// TestCounterMapFallback: sparse functions at nv 9 and 10 agree with
// Minimize, and at nv 8 the word search counts a function with 64 ON
// minterms itself and leaves one with 65, whose columns would not fit a
// word, to Minimize. Minimize takes up to a tenth of a second a
// function here.
func TestCounterMapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ct Counter
	for _, nv := range []int{9, 9, 10, 10} {
		k := 1 + rng.Intn(8)
		on, used := sparseBits(rng, nv, k, 4*k)
		checkCount(t, &ct, nv, on, used)
	}
	for _, k := range []int{64, 65} {
		on, used := sparseBits(rng, 8, k, 150)
		if _, finished, err := ct.countWords(8, on, used, wordsNodeBudget); err != nil || finished != (k <= 64) {
			t.Fatalf("%d ON minterms: finished %v, error %v", k, finished, err)
		}
		checkCount(t, &ct, 8, on, used)
	}
}

// Reuse across widths must not leak state between runs: the buffers are
// shared, and the widths below cross between one-word and wide
// functions both ways, the wide implicant bitset shrinking and growing.
func TestCounterReuseAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ct Counter
	for _, nv := range []int{6, 2, 8, 5, 0, 7, 3, 6, 1, 8, 4, 7} {
		on, used := randBits(rng, nv, 2, 2)
		checkCount(t, &ct, nv, on, used)
	}
	for _, nv := range []int{9, 7, 6, 10, 5, 8, 7} {
		k := 1 + rng.Intn(6)
		on, used := sparseBits(rng, nv, k, 4*k)
		checkCount(t, &ct, nv, on, used)
	}
}

// TestCounterValidation: Count accepts exactly the input counts
// Minimize accepts, and at MaxInputs agrees with it, on a function with
// every minterm used and on a sparse one.
func TestCounterValidation(t *testing.T) {
	var ct Counter
	for _, nv := range []int{MaxInputs, MaxInputs + 1} {
		w := (1<<uint(nv) + 63) / 64
		on, used := make([]uint64, w), make([]uint64, w)
		on[0], on[w-1] = 1<<5, 1<<63
		for i := range used {
			used[i] = ^uint64(0)
		}
		min, proven, merr := Minimize(bitsFunc(nv, on, used), nv)
		n, err := ct.Count(context.Background(), nv, on, used)
		if (err == nil) != (merr == nil) {
			t.Fatalf("nv=%d: Count error %v, Minimize error %v", nv, err, merr)
		}
		if err == nil && (!proven || n != min.Len()) {
			t.Fatalf("nv=%d: Count %d, Minimize %d (proven %v)", nv, n, min.Len(), proven)
		}
	}
	on, used := sparseBits(rand.New(rand.NewSource(11)), MaxInputs, 4, 20)
	checkCount(t, &ct, MaxInputs, on, used)
}
