package exact

import (
	"context"
	"fmt"
	"time"

	"picola/internal/cover"
	"picola/internal/ctxutil"
	"picola/internal/cube"
	"picola/internal/espresso"
)

// Counter is a reusable count-only exact minimizer for single-output
// functions given as bitsets: Count returns the minimum cube count
// without materializing a cover and without steady-state heap
// allocation.
//
// One word search counts at every nv ≤ MaxInputs. It does not mirror
// Minimize's search: it proves the minimum with its own (prime columns
// as masks over the ON minterms, essential primes, a greedy incumbent,
// then branch and bound under a node budget). So at every width its
// count equals Minimize's whenever Minimize reports its cover proven,
// and never exceeds it; where Minimize's covering search runs out, the
// word search may prove a smaller minimum (DESIGN.md §10). Minimize is
// also the one fallback: a function with more than 64 ON minterms
// (possible only above nv 6), or a word search that exhausts its own
// budget, is counted by Minimize itself, so every fallback count is the
// reference's by construction.
//
// A Counter is not safe for concurrent use; pool instances across
// goroutines.
type Counter struct {
	// imp holds the implicant words of a one-word function (nv ≤
	// WordsMaxInputs), one per don't-care set. wimp holds those of a
	// wider function, ⌈2^nv/64⌉ words per don't-care set D, as one
	// bitset whose bit D<<nv | x marks the implicant (x, D). ons lists a
	// wider function's ON minterms in ascending order: bit j of its
	// columns is minterm ons[j].
	imp  [1 << WordsMaxInputs]uint64
	wimp []uint64
	ons  [64]uint16

	// The prime columns, the branch and bound's column stack, its
	// incumbent and its node count against the budget.
	wcols, wstack          []uint64
	wbest, wnodes, wbudget int
}

// Count returns the minimum number of cubes covering the single-output
// function over nv ≤ MaxInputs inputs whose ON-set is on and whose
// OFF-set is used &^ on; the rest is don't-care. Bit x%64 of word x/64
// is minterm x, each bitset holds at least ⌈2^nv/64⌉ words, and bits at
// or above 2^nv are ignored. The deadline is checked at the
// minimization boundary, and a cancelled call returns a wrapped context
// error instead of a count.
func (ct *Counter) Count(ctx context.Context, nv int, on, used []uint64) (int, error) {
	if err := ctxutil.Check(ctx, "exact.count"); err != nil {
		return 0, err
	}
	if nv < 0 || nv > MaxInputs {
		return 0, fmt.Errorf("exact: %d inputs outside [0, %d]", nv, MaxInputs)
	}
	if w := (1<<uint(nv) + 63) / 64; len(on) < w || len(used) < w {
		return 0, fmt.Errorf("exact: %d inputs need %d-word bitsets, got %d and %d words", nv, w, len(on), len(used))
	}
	mMinimize.Inc()
	t0 := time.Now()
	n, _, err := ct.countWords(nv, on, used, wordsNodeBudget)
	tMinimize.Observe(time.Since(t0))
	return n, err
}

// countWords is Count under an explicit node budget. finished reports
// whether the word search completed; when it did not, because the
// function has more than 64 ON minterms or the search ran out of
// budget, n is Minimize's count of the same function.
//
//picola:hot
func (ct *Counter) countWords(nv int, on, used []uint64, budget int) (n int, finished bool, err error) {
	if nv <= WordsMaxInputs {
		n, finished = ct.searchWords(nv, on[0], used[0], budget)
	} else {
		n, finished = ct.searchWide(nv, on, used, budget)
	}
	if finished {
		return n, true, nil
	}
	//lint:ignore hotalloc cold fallback: more than 64 ON minterms or an exhausted search
	min, _, err := minimize(bitsFunc(nv, on, used), nv)
	if err != nil {
		return 0, false, err
	}
	return min.Len(), false, nil
}

// bitsFunc builds the covers of the function Count counts: one ON cube
// per bit of on, one OFF cube per bit of used &^ on, and the rest
// don't-care (the fr form, so Off is non-nil even when empty).
func bitsFunc(nv int, on, used []uint64) *espresso.Function {
	d := cube.Binary(nv)
	onc, offc := cover.New(d), cover.New(d)
	for x := 0; x < 1<<uint(nv); x++ {
		var dst *cover.Cover
		switch {
		case on[x/64]>>uint(x%64)&1 == 1:
			dst = onc
		case used[x/64]>>uint(x%64)&1 == 1:
			dst = offc
		default:
			continue
		}
		c := d.NewCube()
		for v := 0; v < nv; v++ {
			d.Set(c, v, x>>uint(v)&1)
		}
		dst.Add(c)
	}
	return &espresso.Function{D: d, On: onc, Off: offc}
}
