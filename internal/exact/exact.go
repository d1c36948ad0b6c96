// Package exact implements exact two-level minimization for small
// multi-output Boolean functions: Quine–McCluskey-style prime implicant
// generation followed by branch-and-bound unate covering. It exists as a
// ground truth for the heuristic espresso loop — the evaluator tests and
// the optimal-encoding reference use it — and handles the binary-input,
// single-(multi-valued)-output-variable domains the rest of the
// repository works with. Counter counts the minimum for a single-output
// function given as its ON and used bitsets, without building the
// cover, by one word-parallel search at every input count, with
// Minimize as its reference and its fallback.
//
// Complexity is exponential in the input count; Minimize refuses
// functions with more than MaxInputs binary inputs.
package exact

import (
	"context"
	"fmt"
	"time"

	"picola/internal/cover"
	"picola/internal/covering"
	"picola/internal/ctxutil"
	"picola/internal/cube"
	"picola/internal/espresso"
	"picola/internal/obs"
)

// The exact minimizer substitutes for the heuristic espresso loop at
// small input widths, so its invocations are counted under the espresso
// family: together the two counters cover every two-level minimization.
var (
	mMinimize = obs.Default.Counter("espresso.exact_minimize")
	tMinimize = obs.Default.Timer("espresso.exact_minimize.time")
	hMinimize = obs.Default.LatencyHistogram("espresso.exact_minimize_ns")
)

// MaxInputs bounds the accepted input count (3^n cubes are enumerated).
const MaxInputs = 11

// MaxOutputs bounds the output count (output tags are uint64 bitsets).
const MaxOutputs = 64

// icube is an input cube: val holds the fixed bit values on positions not
// in dc; positions in dc are don't-cares.
type icube struct {
	val uint32
	dc  uint32
}

// Minimize returns a minimum-cardinality cover of the function and
// whether its covering search proved it minimum: when the search runs
// out of its 5,000,000-node budget, the cover is the best one found,
// valid but possibly larger. The domain must consist of binary input
// variables optionally followed by one multi-valued output variable
// (the cube.WithOutputs layout, which a plain cube.Binary domain
// matches with an implicit single output). inputs tells how many
// leading variables are inputs; pass f.D.NumVars() for a pure
// single-output function over a binary domain.
func Minimize(f *espresso.Function, inputs int) (c *cover.Cover, proven bool, err error) {
	return MinimizeContext(context.Background(), f, inputs)
}

// MinimizeContext is Minimize under a run context: the deadline is
// checked at the minimization boundary, and a cancelled call returns a
// wrapped context error instead of a cover.
func MinimizeContext(ctx context.Context, f *espresso.Function, inputs int) (c *cover.Cover, proven bool, err error) {
	if err := ctxutil.Check(ctx, "exact.minimize"); err != nil {
		return nil, false, err
	}
	mMinimize.Inc()
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		tMinimize.Observe(d)
		hMinimize.Observe(int64(d))
	}()
	return minimize(f, inputs)
}

// minimize is MinimizeContext's minimization, uncounted: Counter's
// fallback runs it inside a call Count has already counted.
func minimize(f *espresso.Function, inputs int) (*cover.Cover, bool, error) {
	d := f.D
	if inputs < 0 || inputs > d.NumVars() || d.NumVars()-inputs > 1 {
		return nil, false, fmt.Errorf("exact: domain must be inputs plus at most one output variable")
	}
	for v := 0; v < inputs; v++ {
		if d.Size(v) != 2 {
			return nil, false, fmt.Errorf("exact: input variable %d is not binary", v)
		}
	}
	no := 1
	outVar := -1
	if inputs < d.NumVars() {
		outVar = inputs
		no = d.Size(outVar)
	}
	if inputs > MaxInputs {
		return nil, false, fmt.Errorf("exact: %d inputs exceeds the limit of %d", inputs, MaxInputs)
	}
	if no > MaxOutputs {
		return nil, false, fmt.Errorf("exact: %d outputs exceeds the limit of %d", no, MaxOutputs)
	}

	onTag, dcTag, err := classify(f, inputs, outVar, no)
	if err != nil {
		return nil, false, err
	}
	nm := 1 << uint(inputs)
	// careTag = outputs that may be asserted at x (ON or DC).
	careTag := make([]uint64, nm)
	anyOn := false
	for x := 0; x < nm; x++ {
		careTag[x] = onTag[x] | dcTag[x]
		if onTag[x] != 0 {
			anyOn = true
		}
	}
	out := cover.New(d)
	if !anyOn {
		return out, true, nil
	}

	primes := generatePrimes(inputs, careTag)
	// Covering rows: every ON (minterm, output) pair.
	type row struct {
		x int
		o int
	}
	var rows []row
	for x := 0; x < nm; x++ {
		for o := 0; o < no; o++ {
			if onTag[x]>>uint(o)&1 == 1 {
				rows = append(rows, row{x, o})
			}
		}
	}
	rowCols := make([][]int, len(rows))
	for ri, r := range rows {
		for pi, p := range primes {
			if uint32(r.x)&^p.c.dc == p.c.val && p.tag>>uint(r.o)&1 == 1 {
				rowCols[ri] = append(rowCols[ri], pi)
			}
		}
		if len(rowCols[ri]) == 0 {
			return nil, false, fmt.Errorf("exact: internal: ON point (%d,%d) covered by no prime", r.x, r.o)
		}
	}
	chosen, proven := covering.Solve(rowCols, len(primes))
	for _, pi := range chosen {
		out.Add(primeToCube(d, inputs, outVar, no, primes[pi]))
	}
	return out, proven, nil
}

// classify derives per-minterm ON and DC output tags from the function's
// covers, validating consistency.
func classify(f *espresso.Function, inputs, outVar, no int) (onTag, dcTag []uint64, err error) {
	d := f.D
	nm := 1 << uint(inputs)
	onTag = make([]uint64, nm)
	dcTag = make([]uint64, nm)
	offTag := make([]uint64, nm)
	scan := func(cv *cover.Cover, tags []uint64) {
		if cv == nil {
			return
		}
		for _, c := range cv.Cubes {
			// Enumerate the input minterms of c.
			var rec func(v int, x int)
			rec = func(v, x int) {
				if v == inputs {
					if outVar < 0 {
						tags[x] |= 1
						return
					}
					for o := 0; o < no; o++ {
						if d.Has(c, outVar, o) {
							tags[x] |= 1 << uint(o)
						}
					}
					return
				}
				if d.Has(c, v, 0) {
					rec(v+1, x)
				}
				if d.Has(c, v, 1) {
					rec(v+1, x|1<<uint(v))
				}
			}
			rec(0, 0)
		}
	}
	scan(f.On, onTag)
	scan(f.DC, dcTag)
	scan(f.Off, offTag)
	full := uint64(1)<<uint(no) - 1
	switch {
	case f.DC == nil && f.Off == nil:
		// ON only: the rest is OFF; nothing to do.
	case f.Off == nil:
		// fd: rest is OFF.
	case f.DC == nil:
		// fr: rest is DC.
		for x := range dcTag {
			dcTag[x] |= full &^ (onTag[x] | offTag[x])
		}
	}
	for x := range onTag {
		if onTag[x]&offTag[x] != 0 {
			return nil, nil, fmt.Errorf("exact: ON and OFF overlap at minterm %d", x)
		}
		dcTag[x] &^= onTag[x]
	}
	return onTag, dcTag, nil
}

type prime struct {
	c   icube
	tag uint64
}

// generatePrimes enumerates all input cubes in increasing dash count,
// computing each cube's maximal output tag as the intersection of its two
// halves' tags. A cube is prime exactly when no one-dash enlargement has
// the same (necessarily not larger) tag.
func generatePrimes(inputs int, careTag []uint64) []prime {
	type key struct {
		val uint32
		dc  uint32
	}
	tags := make(map[key]uint64)
	// Level 0: minterms.
	level := make([]icube, 0, len(careTag))
	for x, t := range careTag {
		k := key{uint32(x), 0}
		tags[k] = t
		if t != 0 {
			level = append(level, icube{uint32(x), 0})
		}
	}
	var primes []prime
	for d := 0; d <= inputs; d++ {
		var next []icube
		seen := map[key]bool{}
		for _, c := range level {
			t := tags[key{c.val, c.dc}]
			if t == 0 {
				continue
			}
			isPrime := true
			for v := 0; v < inputs; v++ {
				bit := uint32(1) << uint(v)
				if c.dc&bit != 0 {
					continue
				}
				// The sibling with variable v flipped.
				sib := key{c.val ^ bit, c.dc}
				merged := key{c.val &^ bit, c.dc | bit}
				mt := t & tags[sib]
				if mt != 0 {
					tags[merged] = mt
					if !seen[merged] {
						seen[merged] = true
						next = append(next, icube{merged.val, merged.dc})
					}
					if mt == t {
						isPrime = false
					}
				}
			}
			if isPrime {
				primes = append(primes, prime{c, t})
			}
		}
		level = next
		if len(level) == 0 {
			break
		}
	}
	return primes
}

// primeToCube renders a prime over the original domain.
func primeToCube(d *cube.Domain, inputs, outVar, no int, p prime) cube.Cube {
	c := d.NewCube()
	for v := 0; v < inputs; v++ {
		bit := uint32(1) << uint(v)
		switch {
		case p.c.dc&bit != 0:
			d.Set(c, v, 0)
			d.Set(c, v, 1)
		case p.c.val&bit != 0:
			d.Set(c, v, 1)
		default:
			d.Set(c, v, 0)
		}
	}
	if outVar >= 0 {
		for o := 0; o < no; o++ {
			if p.tag>>uint(o)&1 == 1 {
				d.Set(c, outVar, o)
			}
		}
	}
	return c
}
