// Package enc implements an ENC-style baseline for the partial
// face-constrained encoding problem (after Saldanha et al.): a local
// search whose objective is the exact product-term count of the encoded
// constraints, recomputed with the two-level minimizer inside the loop.
//
// The defining property the paper relies on — and that this baseline
// reproduces — is quality comparable to PICOLA bought with intensive
// logic minimization, making the method orders of magnitude slower and
// impractical on large instances (the paper notes ENC fails on scf). The
// search therefore carries an evaluation budget; exceeding it reports an
// incomplete run.
package enc

import (
	"math/rand"

	"picola/internal/baseline/nova"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/par"
)

// Options tune the search.
type Options struct {
	// Seed drives the deterministic pseudo-random visit order.
	Seed int64
	// Budget bounds the number of espresso constraint minimizations; 0
	// means the default (200000). When the budget runs out before the
	// search converges, Result.Completed is false. Budget counts
	// evaluation requests — a memo-cache hit consumes budget like a miss
	// — so the search trajectory is independent of Cache and Workers.
	Budget int
	// NV overrides the code length; 0 means the problem's minimum.
	NV int
	// Workers fans the independent candidate minimizations of one move
	// out over the par pool; ≤ 1 evaluates sequentially. Results are
	// identical at every worker count.
	Workers int
	// Cache memoizes the constraint minimizations (nil = none). ENC
	// revisits the same constraint functions constantly — every reverted
	// swap re-evaluates positions seen before — so the cache removes
	// espresso runs without altering any answer.
	Cache *eval.Cache
}

// Result is the outcome of an ENC run.
type Result struct {
	Encoding *face.Encoding
	// Cost is the exact total cube count of the returned encoding.
	Cost int
	// Completed is false when the evaluation budget ran out first.
	Completed bool
	// Evaluations counts espresso constraint minimizations performed.
	Evaluations int
}

// searcher caches per-constraint costs so a swap only re-minimizes the
// constraints it can affect.
type searcher struct {
	p       *face.Problem
	enc     *face.Encoding
	cost    []int
	budget  int
	evals   int
	workers int
	cache   *eval.Cache
}

func (s *searcher) minimize(i int) error {
	k, err := s.cache.ConstraintCubesHeuristic(s.enc, s.p.Constraints[i])
	if err != nil {
		return err
	}
	s.evals++
	s.cost[i] = k
	return nil
}

// rescore refreshes the cost of the touched constraints after a swap,
// charging one budget unit each. When strictly more budget remains than
// constraints touched, the minimizations fan out over the
// pool: the sequential loop's mid-loop break can only fire on budget
// exhaustion, which the guard rules out, so the parallel path follows
// the exact sequential trajectory. Near the budget edge it stays
// sequential and reports exhausted exactly like the original loop.
func (s *searcher) rescore(touched []int, oldTotal int) (newTotal int, exhausted bool, err error) {
	if s.workers > 1 && s.evals+len(touched) < s.budget {
		costs, err := par.Map(len(touched), s.workers, func(j int) (int, error) {
			return s.cache.ConstraintCubesHeuristic(s.enc, s.p.Constraints[touched[j]])
		})
		if err != nil {
			return 0, false, err
		}
		s.evals += len(touched)
		for j, i := range touched {
			s.cost[i] = costs[j]
			newTotal += costs[j]
		}
		return newTotal, false, nil
	}
	for _, i := range touched {
		if err := s.minimize(i); err != nil {
			return 0, false, err
		}
		newTotal += s.cost[i]
		if s.evals >= s.budget && newTotal >= oldTotal {
			return newTotal, true, nil
		}
	}
	return newTotal, false, nil
}

func (s *searcher) total() int {
	t := 0
	for _, k := range s.cost {
		t += k
	}
	return t
}

// affected reports whether swapping the codes of symbols a and b can
// change constraint i's implementation: only when a or b is a member. A
// swap of two non-members leaves the member codes and the non-member
// code multiset as they were, so the minimized function is the same.
func (s *searcher) affected(i, a, b int) bool {
	c := s.p.Constraints[i]
	return c.Has(a) || c.Has(b)
}

// Encode runs the ENC-style search.
func Encode(p *face.Problem, o Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	nv, err := p.CodeLength(o.NV)
	if err != nil {
		return nil, err
	}
	budget := o.Budget
	if budget == 0 {
		budget = 200000
	}
	// Constructive seeding (Saldanha's ENC builds its start from symbolic
	// structure): a constraint-satisfaction pass provides the initial
	// codes the exact-objective refinement then improves.
	e, err := nova.Encode(p, nova.Options{Variant: nova.IHybrid, Seed: o.Seed, NV: nv})
	if err != nil {
		return nil, err
	}
	s := &searcher{p: p, enc: e, budget: budget, workers: o.Workers, cache: o.Cache}
	r := len(p.Constraints)
	s.cost = make([]int, r)
	// The initial costs are independent: fan them out, charging the same
	// r budget units the sequential loop would.
	if _, err := par.Map(r, s.workers, func(i int) (int, error) {
		k, err := s.cache.ConstraintCubesHeuristic(s.enc, s.p.Constraints[i])
		if err != nil {
			return 0, err
		}
		s.cost[i] = k
		return 0, nil
	}); err != nil {
		return nil, err
	}
	s.evals += r
	rng := rand.New(rand.NewSource(o.Seed + 7))
	completed := false
	// First-improvement hill climbing over code swaps, random sweep order,
	// until a full pass finds nothing better or the budget runs out.
	for pass := 0; pass < 100; pass++ {
		improved := false
		order := rng.Perm(n * n)
		for _, k := range order {
			a, b := k/n, k%n
			if a >= b {
				continue
			}
			if s.evals >= s.budget {
				goto out
			}
			// Identify affected constraints before the swap.
			var touched []int
			for i := 0; i < r; i++ {
				if s.affected(i, a, b) {
					touched = append(touched, i)
				}
			}
			if len(touched) == 0 {
				continue
			}
			oldCosts := make([]int, len(touched))
			oldTotal := 0
			for j, i := range touched {
				oldCosts[j] = s.cost[i]
				oldTotal += s.cost[i]
			}
			e.Codes[a], e.Codes[b] = e.Codes[b], e.Codes[a]
			newTotal, failed, err := s.rescore(touched, oldTotal)
			if err != nil {
				return nil, err
			}
			if failed || newTotal >= oldTotal {
				// Revert.
				e.Codes[a], e.Codes[b] = e.Codes[b], e.Codes[a]
				for j, i := range touched {
					s.cost[i] = oldCosts[j]
				}
				if failed {
					goto out
				}
				continue
			}
			improved = true
		}
		if !improved {
			completed = true
			break
		}
	}
out:
	return &Result{
		Encoding:    e,
		Cost:        s.total(),
		Completed:   completed,
		Evaluations: s.evals,
	}, nil
}
