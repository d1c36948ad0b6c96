package exact

import (
	"context"
	"fmt"
	"time"

	"picola/internal/covering"
	"picola/internal/ctxutil"
)

// denseMax bounds the inputs for which the tag path uses flat arrays
// indexed by (dc<<inputs)|val instead of maps: 4^8 entries is 512 KiB of
// tags.
const denseMax = 8

// Counter is a reusable count-only exact minimizer for single-output
// functions given as bitsets: Count returns len(Minimize(f, nv).Cubes)
// for the same function without materializing the cover and without
// steady-state heap allocation.
//
// At nv ≤ WordsMaxInputs the word path counts. It does not mirror
// Minimize's search: it proves the minimum with its own, and so returns
// Minimize's count whenever Minimize's search finishes within its budget
// (every function the encoder has been measured to produce). Wider
// functions, and word searches that exhaust their node budget, take the
// tag path, whose every stage — per-minterm tags, Quine–McCluskey prime
// generation, row construction, branch-and-bound covering — mirrors
// Minimize decision for decision, so the count agrees even when the
// covering search exhausts its node budget (where the result depends on
// visit order). Minimize remains the reference implementation; the
// parity is enforced by tests.
//
// A Counter is not safe for concurrent use; pool instances across
// goroutines.
type Counter struct {
	care []uint64

	// Dense QM state, indexed by (dc<<inputs)|val.
	tags    []uint64
	touched []int32 // tag indices written, for O(written) reset
	seen    []uint64
	level   []icube
	next    []icube
	primes  []prime

	rows    []int32
	rowCols [][]int
	flat    []int

	solver covering.Solver

	// Word path: implicant words per don't-care set, the prime columns,
	// the branch and bound's column stack, its incumbent and its node
	// count against the budget.
	imp                    [1 << WordsMaxInputs]uint64
	wcols, wstack          []uint64
	wbest, wnodes, wbudget int
}

// Count returns the minimum number of cubes covering the single-output
// function over nv ≤ MaxInputs inputs whose ON-set is on and whose
// OFF-set is used &^ on; the rest is don't-care. Bit x%64 of word x/64
// is minterm x, each bitset holds at least ⌈2^nv/64⌉ words, and bits at
// or above 2^nv are ignored. The count is len(Minimize(f, nv).Cubes)
// for the same function. The deadline is checked at the minimization
// boundary, and a cancelled call returns a wrapped context error
// instead of a count.
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
	var n int
	var err error
	if nv <= WordsMaxInputs {
		n, _, err = ct.countWords(nv, on, used, wordsNodeBudget)
	} else {
		n, err = ct.countTags(nv, on, used)
	}
	tMinimize.Observe(time.Since(t0))
	return n, err
}

// countTags counts the function along the tag path: per-minterm care
// tags (ON or don't-care), Quine–McCluskey primes, one covering row per
// ON minterm in minterm order, and branch and bound — Minimize's stages
// in Minimize's order.
//
//picola:hot
func (ct *Counter) countTags(nv int, on, used []uint64) (int, error) {
	nm := 1 << uint(nv)
	ct.care = growU64(ct.care, nm)
	ct.rows = ct.rows[:0]
	for x := 0; x < nm; x++ {
		w, b := x/64, uint(x%64)
		ct.care[x] = (on[w] | ^used[w]) >> b & 1
		if on[w]>>b&1 == 1 {
			ct.rows = append(ct.rows, int32(x))
		}
	}
	if len(ct.rows) == 0 {
		return 0, nil
	}

	if nv <= denseMax {
		ct.generatePrimesDense(nv)
	} else {
		//lint:ignore hotalloc cold fallback: rare above denseMax (one request in a whole tables -table 3 run)
		ct.primes = append(ct.primes[:0], generatePrimes(nv, ct.care)...)
	}

	nrows := len(ct.rows)
	if cap(ct.rowCols) < nrows {
		ct.rowCols = make([][]int, nrows)
	}
	ct.rowCols = ct.rowCols[:nrows]
	ct.flat = ct.flat[:0]
	for ri, x := range ct.rows {
		lo := len(ct.flat)
		for pi, p := range ct.primes {
			if uint32(x)&^p.c.dc == p.c.val {
				ct.flat = append(ct.flat, pi)
			}
		}
		if len(ct.flat) == lo {
			return 0, fmt.Errorf("exact: internal: ON minterm %d covered by no prime", x)
		}
		ct.rowCols[ri] = ct.flat[lo:len(ct.flat):len(ct.flat)]
	}
	return len(ct.solver.Solve(ct.rowCols, len(ct.primes))), nil
}

// generatePrimesDense is generatePrimes with the (val,dc)->tag map replaced
// by a flat array indexed (dc<<inputs)|val, the per-level seen map by a
// bitset, and all buffers reused. Iteration order, overwrite order, and the
// resulting prime list are identical to the map version.
//
//picola:hot
func (ct *Counter) generatePrimesDense(inputs int) {
	size := 1 << uint(2*inputs)
	if cap(ct.tags) < size {
		ct.tags = make([]uint64, size)
		ct.touched = ct.touched[:0]
	} else {
		ct.tags = ct.tags[:cap(ct.tags)]
	}
	for _, i := range ct.touched {
		ct.tags[i] = 0
	}
	ct.touched = ct.touched[:0]
	nw := (size + 63) / 64
	if cap(ct.seen) < nw {
		ct.seen = make([]uint64, nw)
	}
	ct.seen = ct.seen[:nw]

	nm := 1 << uint(inputs)
	ct.level = ct.level[:0]
	for x := 0; x < nm; x++ {
		if t := ct.care[x]; t != 0 {
			ct.tags[x] = t
			ct.touched = append(ct.touched, int32(x))
			ct.level = append(ct.level, icube{uint32(x), 0})
		}
	}
	ct.primes = ct.primes[:0]
	for dd := 0; dd <= inputs; dd++ {
		ct.next = ct.next[:0]
		for _, c := range ct.level {
			t := ct.tags[int(c.dc)<<uint(inputs)|int(c.val)]
			if t == 0 {
				continue
			}
			isPrime := true
			for v := 0; v < inputs; v++ {
				bit := uint32(1) << uint(v)
				if c.dc&bit != 0 {
					continue
				}
				sib := int(c.dc)<<uint(inputs) | int(c.val^bit)
				merged := int(c.dc|bit)<<uint(inputs) | int(c.val&^bit)
				mt := t & ct.tags[sib]
				if mt != 0 {
					if ct.tags[merged] == 0 {
						ct.touched = append(ct.touched, int32(merged))
					}
					ct.tags[merged] = mt
					if ct.seen[merged>>6]>>(uint(merged)&63)&1 == 0 {
						ct.seen[merged>>6] |= 1 << (uint(merged) & 63)
						ct.next = append(ct.next, icube{c.val &^ bit, c.dc | bit})
					}
					if mt == t {
						isPrime = false
					}
				}
			}
			if isPrime {
				ct.primes = append(ct.primes, prime{c, t})
			}
		}
		for _, c := range ct.next {
			m := int(c.dc)<<uint(inputs) | int(c.val)
			ct.seen[m>>6] &^= 1 << (uint(m) & 63)
		}
		ct.level, ct.next = ct.next, ct.level
		if len(ct.level) == 0 {
			break
		}
	}
}

//picola:hot
func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
