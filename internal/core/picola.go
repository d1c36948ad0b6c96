// Package core implements PICOLA (Partial Input COLumn based Algorithm),
// the paper's primary contribution: a column-based algorithm for the
// partial face-constrained encoding problem using minimum code length.
//
// The encoder generates the code matrix one column at a time. Of the
// paper's constraint matrix it keeps, per constraint, the zero entries
// (the seed dichotomies no column has satisfied yet) and the number of
// columns its members agree on; from them it reads off the dimension of
// each constraint's supercube and its intruder set at no extra cost.
// Before each column, Classify detects constraints that can no longer be
// satisfied in B^nv (via nv-compatibility against already-satisfied
// constraints and capacity checks) and substitutes them by their
// guide-constraints: the group constraint on their intruder set. By
// Theorem I, making the intruders span a small cube disjoint from the
// members lets the violated constraint be implemented with
// dim(super(L)) − dim(super(I)) product terms instead of up to one per
// member.
package core

import (
	"context"
	"fmt"
	"time"

	"picola/internal/ctxutil"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/obs"
	"picola/internal/par"
)

// Hot-path metrics (atomic; pointers cached so no lookup on the hot path).
var (
	mEncodes     = obs.Default.Counter("core.encodes")
	mColumns     = obs.Default.Counter("core.columns")
	mColumnScans = obs.Default.Counter("core.dichotomy_scans")
	mInfeasible  = obs.Default.Counter("core.classify.infeasible")
	mGuides      = obs.Default.Counter("core.guides")
	mEstimates   = obs.Default.Counter("core.estimates")
	// mPolishCarried counts exact-polish constraint evaluations answered by
	// the dirty-set carry instead of a minimizer request. The carry decision
	// is a pure function of the current codes, so the count is deterministic
	// and identical at every cache/worker configuration.
	mPolishCarried = obs.Default.Counter("core.polish.carried")
	tPortfolio     = obs.Default.Timer("core.stage.portfolio")
	tPolish        = obs.Default.Timer("core.stage.polish")
	tExactPolish   = obs.Default.Timer("core.stage.exact_polish")
	tFinalize      = obs.Default.Timer("core.stage.finalize")
	// hEncode records whole-Encode latency: the distribution behind the
	// per-row percentile columns of the run ledger.
	hEncode = obs.Default.LatencyHistogram("core.encode_ns")
)

// Fixed tuning of the encoder.
const (
	// guideWeight scales the dichotomy weights of guide-constraints
	// relative to originals; portfolio variants 1 and 2 double and halve
	// it.
	guideWeight = 0.4
	// maxGuideDepth bounds recursive guide-of-guide substitution.
	maxGuideDepth = 2
	// polishMaxSymbols and polishMaxNV bound the problems the estimate
	// polish runs on: its candidate scan grows with n³, and it lists
	// every spare code of the 2^nv code space, so an unbounded nv would
	// make it exponential in the code length. Minimum-length problems
	// stay far inside both bounds (Table III peaks at nv = 10).
	polishMaxSymbols = 64
	polishMaxNV      = 12
)

// Options tune the encoder.
type Options struct {
	// NV overrides the code length; 0 means the problem's minimum length.
	NV int
	// DisableGuides turns guide-constraint generation off (for ablation
	// benchmarks: the algorithm degenerates to plain weighted dichotomy
	// satisfaction).
	DisableGuides bool
	// DisableClassify turns dynamic infeasibility detection off (for
	// ablation; implies no guides are ever generated mid-run).
	DisableClassify bool
	// DisablePolish turns off the cube-aware refinement pass that follows
	// column generation (for ablation).
	DisablePolish bool
	// ExactPolishBudget bounds the exact-minimizer requests (through
	// Cache when set) of the final exact-cost polish, which runs only on
	// problems small enough for exact scoring (affordsExactCost: n ≤ 40
	// and nv ≤ 7); 0 means the default 8000. Negative disables the pass
	// and, with it, exact scoring of the portfolio variants.
	ExactPolishBudget int
	// Restarts is the number of column-generation variants tried (guide
	// weight and start-column perturbations); the best by cube estimate is
	// kept. 0 means the default 4, 1 disables the portfolio.
	Restarts int
	// Workers bounds how many portfolio variants run concurrently; ≤ 1
	// runs the portfolio sequentially. The variants are independent and
	// the winner is selected by (score, variant index) in index order, so
	// the result is identical at every worker count.
	Workers int
	// Cache memoizes the exact constraint minimizations of the variant
	// scoring and the exact-cost polish (nil = no memoization). Cached
	// counts are a pure function of the minimization input, so sharing a
	// cache across runs never changes a result.
	Cache *eval.Cache
	// Trace receives structured span/event records for every pipeline
	// stage (restart, column, classify, guide, polish, exact-polish). Nil
	// means tracing is off and costs nothing.
	Trace obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.ExactPolishBudget == 0 {
		o.ExactPolishBudget = 8000
	}
	if o.Restarts == 0 {
		o.Restarts = 4
	}
	return o
}

// encoder carries the run state.
type encoder struct {
	ctx  context.Context
	p    *face.Problem
	opts Options
	n    int
	nv   int
	enc  *face.Encoding
	rows []*tracked // originals first, then guides as they appear
	nOri int
	// Portfolio variant parameters: the guide-constraint weight factor,
	// and whether solve starts columns at all zeros.
	guideWeight float64
	startZero   bool
	// Per-solve caches: the rows' unsat sets only change in apply, so
	// each row's unsatisfied-outsider list is invariant while one column
	// is built.
	unsat [][]int

	// infeasScratch backs classify's result between calls so a warmed
	// column scan performs no heap allocation (the TestAllocs gate).
	infeasScratch []int
	// traceAttrs is the reusable event-attrs map; Emit implementations
	// must not retain it (the obs.Tracer contract).
	traceAttrs map[string]float64

	tr      obs.Tracer // nil when untraced
	variant int        // portfolio variant index, for trace records
	// Solve diagnostics of the last generated column.
	lastMoves int
	lastCost  float64

	// polishConverged: the last polish pass ended at a local optimum and
	// the codes have not moved since. A polish from there would re-evaluate
	// and re-reject every candidate — the winning variant's full
	// refinement would repeat its in-variant light polish exactly — so it
	// returns at once. No snapshot of the codes is needed: between a
	// variant's light polish and the winner's full one, portfolio scoring
	// only reads codes, and exactPolish, the only later writer, clears
	// the flag.
	polishConverged bool
}

// Encode runs PICOLA on the problem and returns the minimum-length
// encoding together with per-constraint diagnostics. A small deterministic
// portfolio of column-generation variants is tried and the best result by
// the cube estimate kept (Options.Restarts).
func Encode(p *face.Problem, opts ...Options) (*Result, error) {
	return EncodeContext(context.Background(), p, opts...)
}

// EncodeContext is Encode under a run context. The deadline is checked
// at every restart, column, column-scan move, polish pass, and
// minimization boundary; a cancelled run returns a wrapped
// context.Canceled/DeadlineExceeded error and never a partial or
// different encoding (the cancellation contract, DESIGN.md §14).
func EncodeContext(ctx context.Context, p *face.Problem, opts ...Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	defer func() { hEncode.Observe(int64(time.Since(t0))) }()
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o = o.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := p.N()
	if n == 0 {
		return nil, fmt.Errorf("core: empty problem")
	}
	nv := o.NV
	if nv == 0 {
		nv = p.MinLength()
	}
	if minNeeded := p.MinLength(); nv < minNeeded {
		return nil, fmt.Errorf("core: %d columns cannot distinguish %d symbols", nv, n)
	}
	if nv > 64 {
		return nil, fmt.Errorf("core: code length %d exceeds 64", nv)
	}
	mEncodes.Inc()
	best, bestScore, bestVariant, err := runPortfolio(ctx, p, o, nv, o.affordsExactCost(n, nv))
	if err != nil {
		return nil, err
	}
	if o.Trace != nil {
		obs.Emit(o.Trace, obs.Event{Kind: obs.KindEvent, Stage: "select", Name: "winner",
			Attrs: map[string]float64{
				"variant": float64(bestVariant),
				"score":   float64(bestScore),
			}})
	}
	// Only the winning variant gets the full refinement.
	if !o.DisablePolish && affordsPolish(n, nv) {
		if err := best.polish(20); err != nil {
			return nil, err
		}
	}
	if !o.DisablePolish && o.affordsExactCost(n, nv) {
		if err := best.exactPolish(o.ExactPolishBudget); err != nil {
			return nil, err
		}
	}
	stopFinalize := tFinalize.Start()
	best.reclassifyFromScratch()
	best.finalClassify()
	r := best.result()
	stopFinalize()
	return r, nil
}

// affordsExactCost reports whether the problem is small enough to score
// encodings by the exact minimized cube count: the portfolio's variant
// selection and the final exact-cost swap polish both use it. The bound
// (≤ 40 symbols at ≤ 7 columns, with a positive evaluation budget) keeps
// the Quine–McCluskey evaluator's cost negligible next to column
// generation; anything larger falls back to the espresso-free estimate.
func (o Options) affordsExactCost(n, nv int) bool {
	return n <= 40 && nv <= 7 && o.ExactPolishBudget > 0
}

// affordsPolish reports whether the problem is inside the estimate
// polish's bounds (polishMaxSymbols, polishMaxNV).
func affordsPolish(n, nv int) bool {
	return n <= polishMaxSymbols && nv <= polishMaxNV
}

// runPortfolio tries the deterministic portfolio of column-generation
// variants and returns the best encoder by the selection score (exact
// constraint cubes when affordable, the cost-model estimate otherwise).
// The variants are independent, so up to o.Workers of them run
// concurrently; the reduction walks the ordered results and keeps the
// lowest-scoring variant, ties to the smaller index — exactly the
// sequential selection, whatever the completion order.
func runPortfolio(ctx context.Context, p *face.Problem, o Options, nv int, exactSelect bool) (*encoder, int, int, error) {
	defer tPortfolio.Start()()
	type variantRun struct {
		e     *encoder
		score int
	}
	runs, err := par.MapContext(ctx, o.Restarts, o.Workers, func(v int) (variantRun, error) {
		if err := ctxutil.Check(ctx, "core.restart"); err != nil {
			return variantRun{}, err
		}
		gw := guideWeight
		switch v {
		case 1:
			gw = guideWeight * 2
		case 2:
			gw = guideWeight / 2
		}
		t0 := time.Now()
		e, err := encodeOnce(ctx, p, o, nv, gw, v == 3, v)
		if err != nil {
			return variantRun{}, err
		}
		score := 0
		if exactSelect {
			for i, c := range p.Constraints {
				k, err := o.Cache.ConstraintCubesContext(ctx, e.enc, c)
				if err != nil {
					return variantRun{}, err
				}
				score += p.Weight(i) * k
			}
		} else {
			cm := newCostModel(e.enc, p.Constraints)
			for i := range p.Constraints {
				score += p.Weight(i) * cm.estimate(i)
			}
			cm.flush()
		}
		if o.Trace != nil {
			obs.Emit(o.Trace, obs.Event{Kind: obs.KindSpan, Stage: "restart",
				DurMS: obs.MS(time.Since(t0)),
				Attrs: map[string]float64{
					"variant":      float64(v),
					"guide_weight": gw,
					"start_zero":   boolAttr(v == 3),
					"score":        float64(score),
				}})
		}
		return variantRun{e: e, score: score}, nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	best, bestScore, bestVariant := runs[0].e, runs[0].score, 0
	for v := 1; v < len(runs); v++ {
		if runs[v].score < bestScore {
			best, bestScore, bestVariant = runs[v].e, runs[v].score, v
		}
	}
	return best, bestScore, bestVariant, nil
}

func boolAttr(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// encodeOnce runs one column-generation pass (plus a light estimate-based
// polish) as the given portfolio variant.
func encodeOnce(ctx context.Context, p *face.Problem, o Options, nv int, gw float64, startZero bool, variant int) (*encoder, error) {
	n := p.N()
	e := &encoder{ctx: ctx, p: p, opts: o, n: n, nv: nv,
		enc: face.NewEncoding(n, nv), guideWeight: gw,
		startZero: startZero, tr: o.Trace, variant: variant}
	for i, c := range p.Constraints {
		e.rows = append(e.rows, newTracked(c, 0, float64(p.Weight(i))))
	}
	e.nOri = len(e.rows)
	for j := 0; j < e.nv; j++ {
		if err := ctxutil.Check(ctx, "core.column"); err != nil {
			return nil, err
		}
		var t0 time.Time
		if e.tr != nil {
			t0 = time.Now()
		}
		if !o.DisableClassify {
			e.updateConstraints(j)
		}
		col, err := e.solve(j)
		if err != nil {
			return nil, err
		}
		e.apply(col, j)
		mColumns.Inc()
		if e.tr != nil {
			obs.Emit(e.tr, obs.Event{Kind: obs.KindSpan, Stage: "column",
				DurMS: obs.MS(time.Since(t0)),
				Attrs: map[string]float64{
					"variant": float64(e.variant),
					"col":     float64(j),
					"ones":    float64(col.Count()),
					"moves":   float64(e.lastMoves),
					"cost":    e.lastCost,
				}})
		}
	}
	if !o.DisablePolish && affordsPolish(n, nv) {
		if err := e.polish(4); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// exactCubes is the exact-cost evaluator of the polish and selection
// passes: the memoized ConstraintCubes when Options.Cache is set, the
// direct minimizer otherwise. Evaluation budgets count requests, not
// minimizer runs, so a cache hit and a miss consume budget identically
// and the search trajectory is independent of the cache.
func (e *encoder) exactCubes(c face.Constraint) (int, error) {
	return e.opts.Cache.ConstraintCubesContext(e.runCtx(), e.enc, c)
}

// runCtx is the encoder's run context; encoders built outside
// EncodeContext (tests constructing the struct directly) fall back to
// the background context.
func (e *encoder) runCtx() context.Context {
	if e.ctx == nil {
		return context.Background()
	}
	return e.ctx
}
