// Package eval scores encodings the way the paper's Table I does: each
// group constraint defines a Boolean function over the code space — ON-set
// the member codes, OFF-set the non-member codes, don't-care set the
// unused codes — and the cost of the encoding is the total number of
// product terms a two-level minimizer needs for all constraint functions.
package eval

import (
	"context"
	"fmt"
	"time"

	"picola/internal/cover"
	"picola/internal/ctxutil"
	"picola/internal/cube"
	"picola/internal/espresso"
	"picola/internal/exact"
	"picola/internal/face"
	"picola/internal/obs"
	"picola/internal/par"
)

// Evaluation metrics: how many constraint functions were minimized, by
// which minimizer, and how many minimizer calls Evaluate skipped because
// the constraint was satisfied (one cube by construction). The latency
// histograms feed the percentile snapshots of the run ledger: one whole
// evaluation, and one per-constraint minimization (exact or heuristic).
var (
	mConstraintCubes = obs.Default.Counter("eval.constraint_cubes")
	mExact           = obs.Default.Counter("eval.exact")
	mHeuristic       = obs.Default.Counter("eval.heuristic")
	mSatShortcut     = obs.Default.Counter("eval.satisfied_shortcut")
	tEvaluate        = obs.Default.Timer("eval.evaluate")
	hEvaluate        = obs.Default.LatencyHistogram("eval.evaluate_ns")
	hMinimize        = obs.Default.LatencyHistogram("eval.minimize_ns")
)

// codeCube converts symbol sym's code into a 0-dimensional cube.
func codeCube(d *cube.Domain, e *face.Encoding, sym int) cube.Cube {
	c := d.NewCube()
	for col := 0; col < e.NV; col++ {
		d.Set(c, col, e.Bit(sym, col))
	}
	return c
}

// ConstraintFunction builds the ON/OFF covers of one constraint under the
// encoding (the don't-care set — the unused codes — is left implicit, the
// espresso fr convention). The domain is interned per nv: repeated calls
// share one immutable *Domain instead of rebuilding spans and masks.
func ConstraintFunction(e *face.Encoding, c face.Constraint) *espresso.Function {
	d := cube.BinaryInterned(e.NV)
	on := cover.New(d)
	off := cover.New(d)
	for s := 0; s < e.N(); s++ {
		if c.Has(s) {
			on.Add(codeCube(d, e, s))
		} else {
			off.Add(codeCube(d, e, s))
		}
	}
	return &espresso.Function{D: d, On: on, Off: off}
}

// ConstraintCubes returns the number of product terms a minimized
// sum-of-products implementation of the constraint needs under the
// encoding. Minimum-length code spaces are tiny, so the count is the
// exact minimum (Quine–McCluskey with branch-and-bound covering); code
// spaces beyond the exact minimizer's input limit fall back to the
// espresso heuristic. A satisfied constraint costs exactly one cube.
func ConstraintCubes(e *face.Encoding, c face.Constraint) (int, error) {
	return minimize(context.Background(), e, c, false, nil, nil)
}

// ConstraintCubesHeuristic is ConstraintCubes evaluated with the espresso
// heuristic regardless of size. The ENC baseline uses it: the published
// ENC is slow precisely because it runs full logic minimization inside
// its search loop, and that property is part of what Table I reproduces.
func ConstraintCubesHeuristic(e *face.Encoding, c face.Constraint) (int, error) {
	return minimize(context.Background(), e, c, true, nil, nil)
}

// minimizer names the minimizer that scores one request.
type minimizer uint8

const (
	// byExact is exact.Counter.Count, straight from the ON and used
	// bitsets: every exact request up to exact.MaxInputs.
	byExact minimizer = iota
	// byEspresso is the espresso heuristic: every heuristic request,
	// and exact requests beyond exact.MaxInputs.
	byEspresso
)

// minimizerFor is the one rule that picks the minimizer for a request
// policy and code length. minimize dispatches on it and cacheKey tags
// entries with it, so a key names the minimizer whose count it holds;
// Import refuses an entry whose tag contradicts it.
func minimizerFor(heuristic bool, nv int) minimizer {
	if heuristic || nv > exact.MaxInputs {
		return byEspresso
	}
	return byExact
}

// minimize runs the actual minimization behind ConstraintCubes
// (heuristic = false: exact within the input limit, espresso beyond) and
// ConstraintCubesHeuristic (heuristic = true: espresso always), with the
// minimizer minimizerFor picks. It is the single compute path Cache
// memoizes: the uncached, bypassed and missed requests all run here. The
// exact path counts from the ON and used bitsets: on a cache miss kb
// holds the request's key and its words, otherwise codeWords builds the
// same words in the pooled scorer. Espresso reads the pooled scorer's
// ON/OFF covers, which hold the same cubes in the same symbol order as
// ConstraintFunction's; on a cache miss it starts from dcm's memoized
// don't-care cover of the used-code signature, and with kb nil it
// derives that cover itself. ctx is checked at the minimization
// boundary (here and inside the minimizers it dispatches to).
func minimize(ctx context.Context, e *face.Encoding, c face.Constraint, heuristic bool, dcm *Cache, kb *keyBuf) (int, error) {
	if err := ctxutil.Check(ctx, "eval.minimize"); err != nil {
		return 0, err
	}
	mConstraintCubes.Inc()
	t0 := time.Now()
	defer func() { hMinimize.Observe(int64(time.Since(t0))) }()
	s := scorerPool.Get().(*scorer)
	defer scorerPool.Put(s)
	if minimizerFor(heuristic, e.NV) == byExact {
		// Exact path: the count exact.Minimize returns, with no cubes
		// built at all.
		mExact.Inc()
		var on, used []uint64
		if kb != nil {
			h := len(kb.words) / 2
			on, used = kb.words[:h], kb.words[h:]
		} else {
			n := entryWords(e.NV)
			if cap(s.bits) < 2*n {
				s.bits = make([]uint64, 2*n)
			}
			on, used = s.bits[:n], s.bits[n:2*n]
			if code, ok := codeWords(e, c, on, used); !ok {
				return 0, fmt.Errorf("eval: code %d is both ON and OFF: a member and a non-member share it", code)
			}
		}
		return s.counter.Count(ctx, e.NV, on, used)
	}
	mHeuristic.Inc()
	var dc *cover.Cover
	if kb != nil {
		dc = dcm.dcCover(kb, e)
	}
	return s.heurCount(ctx, e, c, dc)
}

// Cost is the per-problem evaluation of an encoding.
type Cost struct {
	// Cubes[i] is the product-term count of constraint i.
	Cubes []int
	// Total is the summed cube count (each constraint counted once, the
	// Table I convention).
	Total int
	// WeightedTotal multiplies each constraint by its problem weight
	// (symbolic-implicant multiplicity).
	WeightedTotal int
	// SatisfiedCount is the number of fully satisfied constraints.
	SatisfiedCount int
}

// Options tune Evaluate. The zero value reproduces the uncached,
// sequential evaluation exactly.
type Options struct {
	// Cache memoizes the per-constraint minimizations; nil computes every
	// request. Memoized counts are a pure function of the minimization
	// input, so the cache never changes a result.
	Cache *Cache
	// Workers fans the per-constraint minimizations out over the par
	// pool; ≤ 1 evaluates sequentially. The reduction is in constraint
	// order either way, so the Cost is identical at any worker count.
	Workers int
}

// Evaluate scores the encoding against every constraint of the problem.
func Evaluate(p *face.Problem, e *face.Encoding, opts ...Options) (*Cost, error) {
	return EvaluateContext(context.Background(), p, e, opts...)
}

// EvaluateContext is Evaluate under a run context: the deadline is
// checked per constraint task and at every minimization boundary below,
// and a cancelled evaluation returns a wrapped context error instead of
// a Cost.
func EvaluateContext(ctx context.Context, p *face.Problem, e *face.Encoding, opts ...Options) (*Cost, error) {
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		tEvaluate.Observe(d)
		hEvaluate.Observe(int64(d))
	}()
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	type conCost struct {
		cubes     int
		satisfied bool
	}
	rs, err := par.MapContext(ctx, len(p.Constraints), o.Workers, func(i int) (conCost, error) {
		con := p.Constraints[i]
		satisfied := e.Satisfied(con)
		if satisfied && con.Count() > 0 {
			// A satisfied constraint is implemented by its supercube
			// alone: exactly one cube (the ConstraintCubes contract), no
			// minimizer call needed.
			mSatShortcut.Inc()
			return conCost{cubes: 1, satisfied: true}, nil
		}
		k, err := o.Cache.constraintCubes(ctx, e, con, false)
		if err != nil {
			return conCost{}, err
		}
		return conCost{cubes: k, satisfied: satisfied}, nil
	})
	if err != nil {
		return nil, err
	}
	c := &Cost{Cubes: make([]int, len(p.Constraints))}
	for i, r := range rs {
		c.Cubes[i] = r.cubes
		c.Total += r.cubes
		c.WeightedTotal += r.cubes * p.Weight(i)
		if r.satisfied {
			c.SatisfiedCount++
		}
	}
	return c, nil
}
