// Package power models the switching activity of an encoded state
// register — the classical companion objective to area in state
// assignment (low-power encoding selects codes so that frequent state
// transitions flip few flip-flops).
//
// The state-transition probabilities come from a Markov model of the
// machine under uniformly random inputs: each state's outgoing input
// cubes carry probability proportional to their minterm counts, the chain
// is solved for its steady state by power iteration, and the activity of
// an encoding is the expected Hamming distance per cycle,
//
//	activity(E) = Σ_{i→j} P(i)·P(i→j)·hamming(E(i), E(j)).
//
// Encode searches for a minimum-length low-activity encoding (annealing
// over code permutations), trading product terms for register power; the
// BenchmarkPower ablation quantifies the trade-off against PICOLA.
package power

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"picola/internal/face"
	"picola/internal/kiss"
)

// Model holds the Markov view of a machine.
type Model struct {
	M *kiss.FSM
	// Trans[i][j] = probability of moving to state j from state i under
	// one uniformly random input vector (self-loops for unspecified
	// regions and '*' targets).
	Trans [][]float64
	// Steady is the stationary distribution.
	Steady []float64
}

// Build computes the transition matrix and its steady state.
func Build(m *kiss.FSM) (*Model, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	n := m.NumStates()
	if n == 0 {
		return nil, fmt.Errorf("power: machine has no states")
	}
	mod := &Model{M: m, Trans: make([][]float64, n)}
	total := math.Pow(2, float64(m.NumInputs))
	for i, st := range m.States {
		row := make([]float64, n)
		covered := 0.0
		for _, t := range m.TransitionsFrom(st) {
			weight := 1.0
			for _, c := range t.Input {
				if c == '-' {
					weight *= 2
				}
			}
			p := weight / total
			if t.To == "*" {
				row[i] += p // unspecified: stay (conservative)
			} else {
				row[m.StateIndex(t.To)] += p
			}
			covered += p
		}
		if covered < 1 {
			row[i] += 1 - covered // uncovered inputs: stay
		}
		mod.Trans[i] = row
	}
	mod.Steady = steadyState(mod.Trans)
	return mod, nil
}

// steadyState runs power iteration on the lazy chain (I+P)/2, which has
// exactly the same stationary distribution as P but is aperiodic, so the
// iteration converges even for oscillating machines.
func steadyState(trans [][]float64) []float64 {
	n := len(trans)
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1 / float64(n)
	}
	for iter := 0; iter < 5000; iter++ {
		for j := range next {
			next[j] = cur[j] / 2
		}
		for i := range trans {
			for j, p := range trans[i] {
				next[j] += cur[i] * p / 2
			}
		}
		diff := 0.0
		for j := range next {
			diff += math.Abs(next[j] - cur[j])
		}
		cur, next = next, cur
		if diff < 1e-13 {
			break
		}
	}
	return cur
}

// Activity returns the expected register bit flips per cycle under the
// encoding.
func (mod *Model) Activity(e *face.Encoding) float64 {
	total := 0.0
	for i, row := range mod.Trans {
		for j, p := range row {
			if p == 0 || i == j {
				continue
			}
			d := bits.OnesCount64(e.Codes[i] ^ e.Codes[j])
			total += mod.Steady[i] * p * float64(d)
		}
	}
	return total
}

// Options tune the low-power encoder.
type Options struct {
	Seed   int64
	Sweeps int // annealing sweeps; 0 = default
	NV     int // code length; 0 = minimum
}

// Encode searches for a minimum-length encoding with low switching
// activity by simulated annealing over code assignments.
func Encode(mod *Model, o Options) (*face.Encoding, error) {
	n := mod.M.NumStates()
	nv := o.NV
	if nv == 0 {
		nv = minLength(n)
	}
	if 1<<uint(nv) < n {
		return nil, fmt.Errorf("power: %d bits cannot hold %d states", nv, n)
	}
	e := face.NewEncoding(n, nv)
	for i := 0; i < n; i++ {
		e.Codes[i] = uint64(i)
	}
	var spares []uint64
	for c := n; c < 1<<uint(nv); c++ {
		spares = append(spares, uint64(c))
	}
	r := rand.New(rand.NewSource(o.Seed + 11))
	sweeps := 60
	if o.Sweeps > 0 {
		sweeps = o.Sweeps
	}
	cur := mod.Activity(e)
	best := cur
	bestCodes := append([]uint64(nil), e.Codes...)
	t := 0.5
	for sweep := 0; sweep < sweeps; sweep++ {
		for mv := 0; mv < 4*n; mv++ {
			if len(spares) > 0 && r.Intn(4) == 0 {
				a := r.Intn(n)
				si := r.Intn(len(spares))
				old := e.Codes[a]
				e.Codes[a] = spares[si]
				next := mod.Activity(e)
				if next <= cur || r.Float64() < math.Exp((cur-next)/t) {
					cur = next
					spares[si] = old
				} else {
					e.Codes[a] = old
				}
			} else {
				a, b := r.Intn(n), r.Intn(n)
				if a == b {
					continue
				}
				e.Codes[a], e.Codes[b] = e.Codes[b], e.Codes[a]
				next := mod.Activity(e)
				if next <= cur || r.Float64() < math.Exp((cur-next)/t) {
					cur = next
				} else {
					e.Codes[a], e.Codes[b] = e.Codes[b], e.Codes[a]
				}
			}
			if cur < best {
				best = cur
				copy(bestCodes, e.Codes)
			}
		}
		t *= 0.9
		if t < 1e-4 {
			t = 1e-4
		}
	}
	copy(e.Codes, bestCodes)
	return e, nil
}

func minLength(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}
