package exact

import (
	"context"
	"math/rand"
	"testing"
)

// TestCounterMatchesMinimize is the parity gate: Count must return
// exactly len(Minimize(f).Cubes) — Minimize is the oracle — on random
// functions over the word path (nv ≤ 6) and the dense tag path
// (nv 7–8). Minimize's run time sets the few samples at the top widths.
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
}

// The map fallback above denseMax must agree too. Minimize takes about
// half a second a function here.
func TestCounterMapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ct Counter
	for i := 0; i < 2; i++ {
		on, used := randBits(rng, denseMax+1, 2, 2)
		checkCount(t, &ct, denseMax+1, on, used)
	}
}

// Reuse across widths must not leak state between runs: the buffers
// and the dense tag table are shared, and the widths below cross
// between the word path and the dense tag path both ways.
func TestCounterReuseAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ct Counter
	for _, nv := range []int{6, 2, 8, 5, 0, 7, 3, 6, 1, 8, 4, 7} {
		on, used := randBits(rng, nv, 2, 2)
		checkCount(t, &ct, nv, on, used)
	}
}

// TestCounterValidation: Count accepts exactly the input counts
// Minimize accepts, and at MaxInputs, on the tag path's map fallback,
// agrees with it.
func TestCounterValidation(t *testing.T) {
	var ct Counter
	for _, nv := range []int{MaxInputs, MaxInputs + 1} {
		w := (1<<uint(nv) + 63) / 64
		on, used := make([]uint64, w), make([]uint64, w)
		on[0], on[w-1] = 1<<5, 1<<63
		for i := range used {
			used[i] = ^uint64(0)
		}
		min, merr := Minimize(bitsFunc(nv, on, used), nv)
		n, err := ct.Count(context.Background(), nv, on, used)
		if (err == nil) != (merr == nil) {
			t.Fatalf("nv=%d: Count error %v, Minimize error %v", nv, err, merr)
		}
		if err == nil && n != min.Len() {
			t.Fatalf("nv=%d: Count %d, Minimize %d", nv, n, min.Len())
		}
	}
}
