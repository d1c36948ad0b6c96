// Package nova implements a NOVA-style baseline encoder for the partial
// face-constrained encoding problem: a greedy-seeded simulated-annealing
// search over minimum-length code assignments whose objective is the
// weighted number of *satisfied* face constraints.
//
// This reproduces the modeling choice of conventional tools that the paper
// argues against: constraints that cannot be satisfied contribute nothing
// to the objective, so the search is indifferent to how expensively a
// violated constraint will be implemented. The IOHybrid variant adds
// NOVA's "-e ioh" flavor: a secondary objective rewarding code adjacency
// of designated symbol pairs (derived from next-state/output structure by
// the state-assignment flow).
package nova

import (
	"math"
	"math/bits"
	"math/rand"

	"picola/internal/face"
)

// Variant selects the NOVA emulation mode.
type Variant int

// Variants: IHybrid optimizes input (face) constraints only; IOHybrid adds
// the output-pair adjacency objective.
const (
	IHybrid Variant = iota
	IOHybrid
)

// Pair is an output-constraint surrogate: two symbols whose codes should
// be adjacent (Hamming distance 1), with a weight.
type Pair struct {
	A, B   int
	Weight float64
}

// Options tune the annealer.
type Options struct {
	Variant Variant
	// Seed drives the deterministic pseudo-random schedule.
	Seed int64
	// Sweeps scales the annealing length; 0 means the default.
	Sweeps int
	// OutputPairs feed the IOHybrid objective; ignored by IHybrid.
	OutputPairs []Pair
	// NV overrides the code length; 0 means the problem's minimum.
	NV int
}

// state caches per-constraint satisfaction bookkeeping so a code swap is
// evaluated in O(#constraints) with mostly O(1) work per constraint.
type state struct {
	p     *face.Problem
	enc   *face.Encoding
	pairs []Pair
	useIO bool

	sup    []face.Face // member-code supercube per constraint
	intrs  []int       // intruder count per constraint
	weight []float64
}

func newState(p *face.Problem, e *face.Encoding, o Options) *state {
	s := &state{p: p, enc: e, useIO: o.Variant == IOHybrid}
	// The output-pair objective is secondary in NOVA's ioh mode: normalize
	// its total mass to a fraction of the face-constraint mass so it
	// breaks ties rather than overriding input constraints.
	if s.useIO && len(o.OutputPairs) > 0 {
		faceMass := 0.0
		for i := range p.Constraints {
			faceMass += float64(p.Weight(i))
		}
		pairMass := 0.0
		for _, pr := range o.OutputPairs {
			pairMass += pr.Weight
		}
		scale := 1.0
		if pairMass > 0 && faceMass > 0 {
			scale = 0.25 * faceMass / pairMass
		}
		s.pairs = make([]Pair, len(o.OutputPairs))
		for i, pr := range o.OutputPairs {
			pr.Weight *= scale
			s.pairs[i] = pr
		}
	}
	r := len(p.Constraints)
	s.sup = make([]face.Face, r)
	s.intrs = make([]int, r)
	s.weight = make([]float64, r)
	for i := range p.Constraints {
		s.weight[i] = float64(p.Weight(i))
		s.recompute(i)
	}
	return s
}

// recompute rebuilds constraint i's supercube and intruder count.
func (s *state) recompute(i int) {
	c := s.p.Constraints[i]
	s.sup[i] = s.enc.Supercube(c)
	s.intrs[i] = s.enc.IntruderCount(c, s.sup[i])
}

// objective returns the current total objective.
func (s *state) objective() float64 {
	total := 0.0
	for i := range s.p.Constraints {
		if s.intrs[i] == 0 {
			total += s.weight[i]
		}
	}
	if s.useIO {
		total += s.pairBonus()
	}
	return total
}

func (s *state) pairBonus() float64 {
	total := 0.0
	for _, pr := range s.pairs {
		if bits.OnesCount64((s.enc.Codes[pr.A]^s.enc.Codes[pr.B])&s.enc.Mask()) == 1 {
			total += pr.Weight
		}
	}
	return total
}

// applySwap exchanges the codes of symbols a and b (b may be -1 with a
// spare code, meaning "move a to code spare") and incrementally updates
// the bookkeeping. It returns nothing; callers snapshot/restore by
// re-swapping.
func (s *state) applySwap(a, b int) {
	s.enc.Codes[a], s.enc.Codes[b] = s.enc.Codes[b], s.enc.Codes[a]
	for i, c := range s.p.Constraints {
		if c.Has(a) || c.Has(b) {
			s.recompute(i)
			continue
		}
		// Membership unchanged and supercube unchanged: only the two
		// moved codes' inside-status can differ — and since the two codes
		// merely exchanged owners (both remain assigned), the count of
		// assigned non-member codes inside the cube is unchanged as well.
		// Nothing to do.
	}
}

// applyMove moves symbol a to the unused code spare, updating bookkeeping.
// It returns the symbol's previous code (the new spare).
func (s *state) applyMove(a int, spare uint64) uint64 {
	old := s.enc.Codes[a]
	s.enc.Codes[a] = spare
	for i, c := range s.p.Constraints {
		if c.Has(a) {
			s.recompute(i)
			continue
		}
		wasIn := s.sup[i].Contains(old)
		isIn := s.sup[i].Contains(spare)
		if wasIn != isIn {
			if isIn {
				s.intrs[i]++
			} else {
				s.intrs[i]--
			}
		}
	}
	return old
}

// Encode runs the baseline encoder and returns a minimum-length encoding.
func Encode(p *face.Problem, o Options) (*face.Encoding, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	nv, err := p.CodeLength(o.NV)
	if err != nil {
		return nil, err
	}
	e := face.NewEncoding(n, nv)
	for sym := 0; sym < n; sym++ {
		e.Codes[sym] = uint64(sym)
	}
	if n == 0 {
		return e, nil
	}
	s := newState(p, e, o)
	r := rand.New(rand.NewSource(o.Seed + 1))

	// Unused codes (when n < 2^nv) enable move moves. The codes start as
	// the identity, so spare slot i holds code n+i until an accepted move
	// leaves a symbol's old code there; only those slots are stored, and
	// no code length pays for listing its 2^nv − n spare codes. At nv 64
	// the count overflows and there are no moves.
	nSpare := 0
	if nv < 64 {
		nSpare = int(uint64(1)<<uint(nv) - uint64(n))
	}
	moved := map[int]uint64{}

	sweeps := 40
	if o.Sweeps > 0 {
		sweeps = o.Sweeps
	}
	cur := s.objective()
	best := cur
	bestCodes := append([]uint64(nil), e.Codes...)
	// Initial temperature scaled to typical constraint weight.
	t := 0.0
	for i := range p.Constraints {
		t += s.weight[i]
	}
	if len(p.Constraints) > 0 {
		t = 2 * t / float64(len(p.Constraints))
	} else {
		t = 1
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		moves := 4 * n
		for mv := 0; mv < moves; mv++ {
			useMove := nSpare > 0 && r.Intn(4) == 0
			if useMove {
				a := r.Intn(n)
				si := r.Intn(nSpare)
				spare, ok := moved[si]
				if !ok {
					spare = uint64(n + si)
				}
				old := s.applyMove(a, spare)
				next := s.objective()
				if next >= cur || r.Float64() < math.Exp((next-cur)/t) {
					cur = next
					moved[si] = old
				} else {
					s.applyMove(a, old)
					// spare stays as it was
				}
			} else {
				a := r.Intn(n)
				b := r.Intn(n)
				if a == b {
					continue
				}
				s.applySwap(a, b)
				next := s.objective()
				if next >= cur || r.Float64() < math.Exp((next-cur)/t) {
					cur = next
				} else {
					s.applySwap(a, b)
				}
			}
			if cur > best {
				best = cur
				copy(bestCodes, e.Codes)
			}
		}
		t *= 0.88
		if t < 1e-3 {
			t = 1e-3
		}
	}
	copy(e.Codes, bestCodes)
	return e, nil
}
