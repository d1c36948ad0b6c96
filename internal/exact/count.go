package exact

import (
	"context"
	"fmt"
	"time"

	"picola/internal/cover"
	"picola/internal/covering"
	"picola/internal/ctxutil"
	"picola/internal/espresso"
)

// denseMax bounds the inputs for which the Counter uses flat arrays
// indexed by (dc<<inputs)|val instead of maps: 4^8 entries is 512 KiB of
// tags, and the encoder's code spaces never exceed 8 bits.
const denseMax = 8

// Counter is a reusable count-only exact minimizer: it computes
// len(Minimize(f, inputs).Cubes) without materializing the cover and
// without steady-state heap allocation. Every stage — minterm
// classification, Quine–McCluskey prime generation, row construction,
// branch-and-bound covering — mirrors Minimize decision-for-decision, so
// the count agrees even when the covering search exhausts its node budget
// (where the result depends on visit order). Minimize remains the
// reference implementation; the parity is enforced by tests.
//
// CountWords is the Counter's second entry point, for single-output
// functions of at most WordsMaxInputs inputs given as bitsets. It does
// not mirror Minimize's search: it proves the minimum with its own, and
// so returns Minimize's count whenever Minimize's search finishes within
// its budget (every function the encoder has been measured to produce).
//
// A Counter is not safe for concurrent use; pool instances across
// goroutines.
type Counter struct {
	on, dc, off, care []uint64

	// Dense QM state, indexed by (dc<<inputs)|val.
	tags    []uint64
	touched []int32 // tag indices written, for O(written) reset
	seen    []uint64
	level   []icube
	next    []icube
	primes  []prime

	rowX, rowO []int32
	rowCols    [][]int
	flat       []int

	solver covering.Solver

	// Word path (CountWords): implicant words per don't-care set, the
	// prime columns, the branch and bound's column stack, its incumbent
	// and its node count against the budget.
	imp                    [1 << WordsMaxInputs]uint64
	wcols, wstack          []uint64
	wbest, wnodes, wbudget int
}

// Count returns the minimum cover cardinality of f, exactly as
// len(Minimize(f, inputs).Cubes).
func (ct *Counter) Count(f *espresso.Function, inputs int) (int, error) {
	return ct.CountContext(context.Background(), f, inputs)
}

// CountContext is Count under a run context: the deadline is checked at
// the minimization boundary, and a cancelled call returns a wrapped
// context error instead of a count.
func (ct *Counter) CountContext(ctx context.Context, f *espresso.Function, inputs int) (int, error) {
	if err := ctxutil.Check(ctx, "exact.count"); err != nil {
		return 0, err
	}
	mMinimize.Inc()
	t0 := time.Now()
	n, err := ct.count(f, inputs)
	tMinimize.Observe(time.Since(t0))
	return n, err
}

//picola:hot
func (ct *Counter) count(f *espresso.Function, inputs int) (int, error) {
	d := f.D
	if inputs < 0 || inputs > d.NumVars() || d.NumVars()-inputs > 1 {
		return 0, fmt.Errorf("exact: domain must be inputs plus at most one output variable")
	}
	for v := 0; v < inputs; v++ {
		if d.Size(v) != 2 {
			return 0, fmt.Errorf("exact: input variable %d is not binary", v)
		}
	}
	no := 1
	outVar := -1
	if inputs < d.NumVars() {
		outVar = inputs
		no = d.Size(outVar)
	}
	if inputs > MaxInputs {
		return 0, fmt.Errorf("exact: %d inputs exceeds the limit of %d", inputs, MaxInputs)
	}
	if no > MaxOutputs {
		return 0, fmt.Errorf("exact: %d outputs exceeds the limit of %d", no, MaxOutputs)
	}

	nm := 1 << uint(inputs)
	if err := ct.classify(f, inputs, outVar, no, nm); err != nil {
		return 0, err
	}
	return ct.countTags(inputs, no, nm)
}

// countTags counts the minimum cover of the function classified into
// ct.on and ct.dc: prime generation, covering rows, branch and bound.
//
//picola:hot
func (ct *Counter) countTags(inputs, no, nm int) (int, error) {
	ct.care = growU64(ct.care, nm)
	anyOn := false
	for x := 0; x < nm; x++ {
		ct.care[x] = ct.on[x] | ct.dc[x]
		if ct.on[x] != 0 {
			anyOn = true
		}
	}
	if !anyOn {
		return 0, nil
	}

	if inputs <= denseMax {
		ct.generatePrimesDense(inputs)
	} else {
		//lint:ignore hotalloc cold fallback: inputs > denseMax never occurs at encoder code lengths
		ct.primes = append(ct.primes[:0], generatePrimes(inputs, ct.care)...)
	}

	// Covering rows: every ON (minterm, output) pair, in the same order
	// Minimize builds them.
	ct.rowX, ct.rowO = ct.rowX[:0], ct.rowO[:0]
	for x := 0; x < nm; x++ {
		for o := 0; o < no; o++ {
			if ct.on[x]>>uint(o)&1 == 1 {
				ct.rowX = append(ct.rowX, int32(x))
				ct.rowO = append(ct.rowO, int32(o))
			}
		}
	}
	nrows := len(ct.rowX)
	if cap(ct.rowCols) < nrows {
		ct.rowCols = make([][]int, nrows)
	}
	ct.rowCols = ct.rowCols[:nrows]
	ct.flat = ct.flat[:0]
	for ri := 0; ri < nrows; ri++ {
		x, o := uint32(ct.rowX[ri]), uint(ct.rowO[ri])
		lo := len(ct.flat)
		for pi, p := range ct.primes {
			if x&^p.c.dc == p.c.val && p.tag>>o&1 == 1 {
				ct.flat = append(ct.flat, pi)
			}
		}
		if len(ct.flat) == lo {
			return 0, fmt.Errorf("exact: internal: ON point (%d,%d) covered by no prime", x, o)
		}
		ct.rowCols[ri] = ct.flat[lo:len(ct.flat):len(ct.flat)]
	}
	return len(ct.solver.Solve(ct.rowCols, len(ct.primes))), nil
}

// classify fills ct.on/ct.dc/ct.off with per-minterm output tags, exactly
// as the recursive classify in exact.go does, but enumerating each cube's
// minterms iteratively (base value + submask walk over the don't-care
// positions) so no closures or fresh slices are needed. The enumeration
// order differs from the recursion; tags are OR-accumulated, so the result
// is identical.
//
//picola:hot
func (ct *Counter) classify(f *espresso.Function, inputs, outVar, no, nm int) error {
	ct.on = zeroU64(growU64(ct.on, nm))
	ct.dc = zeroU64(growU64(ct.dc, nm))
	ct.off = zeroU64(growU64(ct.off, nm))
	ct.scanCover(f.On, ct.on, inputs, outVar, no)
	ct.scanCover(f.DC, ct.dc, inputs, outVar, no)
	ct.scanCover(f.Off, ct.off, inputs, outVar, no)
	full := uint64(1)<<uint(no) - 1
	switch {
	case f.DC == nil && f.Off == nil:
		// ON only: the rest is OFF; nothing to do.
	case f.Off == nil:
		// fd: rest is OFF.
	case f.DC == nil:
		// fr: rest is DC.
		for x := 0; x < nm; x++ {
			ct.dc[x] |= full &^ (ct.on[x] | ct.off[x])
		}
	}
	for x := 0; x < nm; x++ {
		if ct.on[x]&ct.off[x] != 0 {
			return fmt.Errorf("exact: ON and OFF overlap at minterm %d", x)
		}
		ct.dc[x] &^= ct.on[x]
	}
	return nil
}

// scanCover ORs each cube's output tag into tags at every input minterm of
// the cube.
//
//picola:hot
func (ct *Counter) scanCover(cv *cover.Cover, tags []uint64, inputs, outVar, no int) {
	if cv == nil {
		return
	}
	d := cv.D
	for _, c := range cv.Cubes {
		var base, free uint32
		empty := false
		for v := 0; v < inputs; v++ {
			h0, h1 := d.Has(c, v, 0), d.Has(c, v, 1)
			switch {
			case h0 && h1:
				free |= 1 << uint(v)
			case h1:
				base |= 1 << uint(v)
			case h0:
				// fixed at 0
			default:
				empty = true
			}
		}
		if empty {
			continue
		}
		var t uint64
		if outVar < 0 {
			t = 1
		} else {
			for o := 0; o < no; o++ {
				if d.Has(c, outVar, o) {
					t |= 1 << uint(o)
				}
			}
		}
		if t == 0 {
			continue
		}
		for sub := free; ; sub = (sub - 1) & free {
			tags[base|sub] |= t
			if sub == 0 {
				break
			}
		}
	}
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

//picola:hot
func zeroU64(s []uint64) []uint64 {
	for i := range s {
		s[i] = 0
	}
	return s
}
