package exact

import (
	"context"
	"math/rand"
	"testing"
)

// checkCount compares Count with the reference on one function.
func checkCount(t *testing.T, ct *Counter, nv int, on, used []uint64) {
	t.Helper()
	min, _, err := Minimize(bitsFunc(nv, on, used), nv)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ct.Count(context.Background(), nv, on, used)
	if err != nil {
		t.Fatal(err)
	}
	if n != min.Len() {
		t.Fatalf("nv=%d on=%#x used=%#x: Count %d, Minimize %d", nv, on, used, n, min.Len())
	}
}

// checkWords is checkCount on one-word bitsets.
func checkWords(t *testing.T, ct *Counter, nv int, on, used uint64) {
	t.Helper()
	checkCount(t, ct, nv, []uint64{on}, []uint64{used})
}

// randBits draws a random function over nv inputs as its ON and used
// bitsets: each minterm is ON with odds onOdds in 6, OFF with odds
// offOdds in 6, else don't-care.
func randBits(rng *rand.Rand, nv, onOdds, offOdds int) (on, used []uint64) {
	w := (1<<uint(nv) + 63) / 64
	on, used = make([]uint64, w), make([]uint64, w)
	for x := 0; x < 1<<uint(nv); x++ {
		switch r := rng.Intn(6); {
		case r < onOdds:
			on[x/64] |= 1 << uint(x%64)
			used[x/64] |= 1 << uint(x%64)
		case r < onOdds+offOdds:
			used[x/64] |= 1 << uint(x%64)
		}
	}
	return on, used
}

// randWords is randBits at nv ≤ WordsMaxInputs, as single words.
func randWords(rng *rand.Rand, nv, onOdds, offOdds int) (on, used uint64) {
	o, u := randBits(rng, nv, onOdds, offOdds)
	return o[0], u[0]
}

// TestCountWordsExhaustiveSmall: every ON/OFF/DC assignment at nv ≤ 3
// (3 + 9 + 81 + 6,561 functions) counts what Minimize counts.
func TestCountWordsExhaustiveSmall(t *testing.T) {
	var ct Counter
	for nv := 0; nv <= 3; nv++ {
		nm := 1 << uint(nv)
		total := 1
		for i := 0; i < nm; i++ {
			total *= 3
		}
		for f := 0; f < total; f++ {
			var on, used uint64
			for x, r := 0, f; x < nm; x, r = x+1, r/3 {
				switch r % 3 {
				case 0:
					on |= 1 << uint(x)
					used |= 1 << uint(x)
				case 1:
					used |= 1 << uint(x)
				}
			}
			checkWords(t, &ct, nv, on, used)
		}
	}
}

// TestCountWordsRandom: seeded random functions at nv 4–6, sparse and
// dense, with nv = 6 reaching the 32-bit shift and the full-word mask
// (every minterm used, the widest encoder shape).
func TestCountWordsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var ct Counter
	for nv := 4; nv <= WordsMaxInputs; nv++ {
		for iter := 0; iter < 300; iter++ {
			on, used := randWords(rng, nv, 2+iter%2, 2)
			checkWords(t, &ct, nv, on, used)
		}
	}
	for iter := 0; iter < 200; iter++ {
		on := rng.Uint64()
		checkWords(t, &ct, 6, on, ^uint64(0))
	}
}

// TestCountWordsIgnoresHighBits: bits at or above 2^nv are outside the
// code space.
func TestCountWordsIgnoresHighBits(t *testing.T) {
	var ct Counter
	count := func(nv int, on, used uint64) int {
		t.Helper()
		n, err := ct.Count(context.Background(), nv, []uint64{on}, []uint64{used})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for nv := 0; nv < WordsMaxInputs; nv++ {
		hi := ^uint64(0) << (uint(1) << uint(nv))
		rng := rand.New(rand.NewSource(int64(nv)))
		for iter := 0; iter < 20; iter++ {
			on, used := randWords(rng, nv, 2, 2)
			want := count(nv, on, used)
			if got := count(nv, on|hi&rng.Uint64(), used|hi&rng.Uint64()); got != want {
				t.Fatalf("nv=%d: high bits moved the count %d -> %d", nv, want, got)
			}
		}
	}
}

// TestCountWordsBudgetFallback: a one-node budget leaves every search
// that needs a second node unfinished, and Minimize's count is then
// returned; with the real budget the same functions finish. The
// functions are random at nv 5 and 6 and sparse at nv 7 and 8.
func TestCountWordsBudgetFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var ct Counter
	unfinished, wideUnfinished := 0, 0
	for iter := 0; iter < 480; iter++ {
		nv := 5 + iter%2
		var on, used []uint64
		if iter < 400 {
			on, used = randBits(rng, nv, 2, 2)
		} else {
			nv += 2
			k := 1 + iter%12
			on, used = sparseBits(rng, nv, k, 3*k)
		}
		min, proven, err := Minimize(bitsFunc(nv, on, used), nv)
		if err != nil || !proven {
			t.Fatalf("nv=%d on=%#x used=%#x: Minimize proven %v, error %v", nv, on, used, proven, err)
		}
		want := min.Len()
		n, finished, err := ct.countWords(nv, on, used, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("nv=%d on=%#x used=%#x: one-node budget %d, Minimize %d", nv, on, used, n, want)
		}
		if !finished {
			unfinished++
			if nv > WordsMaxInputs {
				wideUnfinished++
			}
			if n, finished, _ = ct.countWords(nv, on, used, wordsNodeBudget); !finished || n != want {
				t.Fatalf("nv=%d on=%#x used=%#x: full budget (%d, finished %v), Minimize %d",
					nv, on, used, n, finished, want)
			}
		}
	}
	if wideUnfinished == 0 || unfinished == wideUnfinished {
		t.Fatalf("%d one-word and %d wide searches fell back; the fallback went untested at some width",
			unfinished-wideUnfinished, wideUnfinished)
	}
	t.Logf("%d of 400 one-word and %d of 80 wide searches fell back", unfinished-wideUnfinished, wideUnfinished)
}

// TestCountWordsValidation: Count refuses input counts outside [0,
// MaxInputs], bitsets shorter than ⌈2^nv/64⌉ words, and a cancelled
// context.
func TestCountWordsValidation(t *testing.T) {
	var ct Counter
	ctx := context.Background()
	wide := make([]uint64, 64)
	for _, nv := range []int{-1, MaxInputs + 1} {
		if _, err := ct.Count(ctx, nv, wide, wide); err == nil {
			t.Fatalf("nv=%d must be rejected", nv)
		}
	}
	for _, tc := range []struct {
		nv       int
		on, used []uint64
	}{
		{3, nil, wide},
		{3, wide, nil},
		{7, wide[:1], wide[:2]},
		{9, wide[:8], wide[:7]},
	} {
		if _, err := ct.Count(ctx, tc.nv, tc.on, tc.used); err == nil {
			t.Fatalf("nv=%d with %d- and %d-word bitsets must be rejected", tc.nv, len(tc.on), len(tc.used))
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := ct.Count(cctx, 3, wide, wide); err == nil {
		t.Fatal("a cancelled context must return an error")
	}
}

// FuzzCountWords checks the one-word search against exact.Minimize on
// any (nv, on, used). The seed corpus holds the deepest covering search
// of a cold perfbench corpus pass.
func FuzzCountWords(f *testing.F) {
	f.Add(uint8(3), uint64(0b10110111), uint64(0b11111111))
	f.Add(uint8(6), uint64(0x0123456789abcdef), ^uint64(0))
	f.Fuzz(func(t *testing.T, nv uint8, on, used uint64) {
		n := int(nv % (WordsMaxInputs + 1))
		var ct Counter
		checkWords(t, &ct, n, on, used)
	})
}

// FuzzCountWide checks the word search at nv = 7, two words per bitset,
// against exact.Minimize: Count never exceeds Minimize's count, and
// equals it wherever Minimize's covering search finishes. The seed is a
// Table III request: 5 ON and 22 OFF minterms, the rest don't-care.
func FuzzCountWide(f *testing.F) {
	f.Add(uint64(0x2000), uint64(0x4000600000400000), uint64(0x2c21408080812802), uint64(0xd408e01082500200))
	f.Fuzz(func(t *testing.T, on0, on1, used0, used1 uint64) {
		on, used := []uint64{on0, on1}, []uint64{used0, used1}
		min, proven, err := Minimize(bitsFunc(7, on, used), 7)
		if err != nil {
			t.Fatal(err)
		}
		var ct Counter
		n, err := ct.Count(context.Background(), 7, on, used)
		if err != nil {
			t.Fatal(err)
		}
		if n > min.Len() || proven && n != min.Len() {
			t.Fatalf("on=%#x used=%#x: Count %d, Minimize %d (proven %v)", on, used, n, min.Len(), proven)
		}
	})
}
