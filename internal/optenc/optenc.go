// Package optenc computes provably optimal minimum-length encodings for
// small face-constraint problems by exhaustive search with an exact
// two-level evaluation of every constraint. It is a research reference:
// the heuristic encoders (PICOLA, the NOVA- and ENC-style baselines) are
// validated against it in the tests, and the optimality gap it exposes is
// reported in EXPERIMENTS.md.
//
// The search fixes the first symbol's code to zero — complementing any
// subset of code columns maps encodings to cube-equivalent encodings, so
// one representative per complementation class suffices — and enumerates
// injective assignments of the remaining codes. Column permutations are
// a further symmetry that is intentionally not broken: the enumeration is
// already tiny at the supported sizes.
package optenc

import (
	"fmt"

	"picola/internal/eval"
	"picola/internal/exact"
	"picola/internal/face"
)

// MaxSymbols bounds the accepted problem size (the search is factorial).
const MaxSymbols = 8

// Result reports the optimum found.
type Result struct {
	Encoding *face.Encoding
	// Cubes is the exact minimum total product-term count over all
	// minimum-length encodings.
	Cubes int
	// Satisfied is the satisfied-constraint count of the returned
	// encoding (not necessarily the maximum achievable).
	Satisfied int
	// Evaluated counts the encodings scored.
	Evaluated int
}

// Optimal exhaustively finds a minimum-length encoding minimizing the
// exact total cube count of the problem's constraints.
func Optimal(p *face.Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	if n == 0 {
		return nil, fmt.Errorf("optenc: empty problem")
	}
	if n > MaxSymbols {
		return nil, fmt.Errorf("optenc: %d symbols exceeds the exhaustive limit of %d", n, MaxSymbols)
	}
	nv := p.MinLength()
	codes := 1 << uint(nv)
	e := face.NewEncoding(n, nv)
	best := &Result{Cubes: 1 << 30}
	used := make([]bool, codes)
	// Symbol 0 pinned to code 0 (column-complement symmetry).
	e.Codes[0] = 0
	used[0] = true
	var rec func(sym int)
	rec = func(sym int) {
		if sym == n {
			best.Evaluated++
			c, err := exactCost(p, e)
			if err != nil {
				// exact.Minimize cannot fail on these shapes; treat as
				// fatal by keeping the error in a sentinel cost.
				panic(err)
			}
			if c < best.Cubes {
				best.Cubes = c
				best.Encoding = e.Clone()
			}
			return
		}
		for code := 0; code < codes; code++ {
			if used[code] {
				continue
			}
			used[code] = true
			e.Codes[sym] = uint64(code)
			rec(sym + 1)
			used[code] = false
		}
	}
	rec(1)
	if best.Encoding == nil {
		// No constraints or a single symbol: any injective assignment.
		best.Encoding = e.Clone()
		best.Cubes = 0
	}
	for _, c := range p.Constraints {
		if best.Encoding.Satisfied(c) {
			best.Satisfied++
		}
	}
	return best, nil
}

// exactCost sums the exact minimum cube counts of all constraints under
// the encoding. It minimizes with exact.Minimize, the reference, rather
// than the Counter the evaluator uses, so the search stays independent
// of the evaluator it helps validate.
func exactCost(p *face.Problem, e *face.Encoding) (int, error) {
	total := 0
	for _, con := range p.Constraints {
		min, _, err := exact.Minimize(eval.ConstraintFunction(e, con), e.NV)
		if err != nil {
			return 0, err
		}
		total += min.Len()
	}
	return total, nil
}
