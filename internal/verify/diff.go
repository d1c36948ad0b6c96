// Differential checks of the two-level minimizers: every cover the
// pipeline's minimizers produce is validated against the ON/OFF/DC
// containment contract on all instances, re-evaluated through BDDs, and
// cross-checked against the exact branch-and-bound cover oracle
// (internal/exact over internal/covering) on code spaces small enough
// for it.
package verify

import (
	"picola/internal/bdd"
	"picola/internal/cover"
	"picola/internal/espresso"
	"picola/internal/eval"
	"picola/internal/exact"
	"picola/internal/face"
)

// CheckMinimization cross-checks the minimized implementation of every
// constraint of the problem under the encoding:
//
//   - the espresso cover must cover every ON minterm (member code) and
//     no OFF minterm (non-member code) — checked by elementary per-cube
//     containment and again through a BDD built from the cover;
//   - on code spaces within the exact minimizer's input limit, the exact
//     cover must pass the same containment checks and, when its covering
//     search proved it minimum, its cardinality must not exceed
//     espresso's (a smaller espresso cover would convict one of the two);
//   - the pipeline count Cache.ConstraintCubes must equal the oracle's
//     recomputation — or, where the exact search ran out of its node
//     budget and its cover is only an upper bound, must not exceed it —
//     and a satisfied constraint must cost exactly 1.
//
// cache may be nil; it only memoizes the pipeline-count recomputation.
func CheckMinimization(p *face.Problem, e *face.Encoding, cache *eval.Cache) *Report {
	mChecks.Inc()
	rep := &Report{}
	if e == nil || e.N() != p.N() {
		rep.addf("shape", -1, "encoding incompatible with problem")
		return rep
	}
	for i, c := range p.Constraints {
		checkConstraintCover(rep, e, i, c, cache)
	}
	return rep
}

// checkConstraintCover runs the differential checks for one constraint.
func checkConstraintCover(rep *Report, e *face.Encoding, i int, c face.Constraint, cache *eval.Cache) {
	if c.Count() == 0 {
		return
	}
	esp, err := espresso.Minimize(eval.ConstraintFunction(e, c))
	if err != nil {
		rep.addf("espresso", i, "minimize failed: %v", err)
		return
	}
	checkContainment(rep, "espresso", e, i, c, esp)
	want, proven := esp.Len(), true
	if e.NV <= exact.MaxInputs {
		ex, exProven, err := exact.Minimize(eval.ConstraintFunction(e, c), e.NV)
		if err != nil {
			rep.addf("exact", i, "minimize failed: %v", err)
			return
		}
		checkContainment(rep, "exact", e, i, c, ex)
		if exProven && ex.Len() > esp.Len() {
			rep.addf("differential", i,
				"exact cover has %d cubes, espresso %d — the exact minimum cannot be larger",
				ex.Len(), esp.Len())
		}
		want, proven = ex.Len(), exProven
	}
	k, err := cache.ConstraintCubes(e, c)
	if err != nil {
		rep.addf("pipeline", i, "ConstraintCubes failed: %v", err)
		return
	}
	checkPipelineCount(rep, i, k, want, proven)
	if e.Satisfied(c) && k != 1 {
		rep.addf("pipeline", i, "satisfied constraint costs %d cubes, want exactly 1", k)
	}
}

// checkPipelineCount holds the pipeline count k of non-empty constraint
// i to the reference count want: equal to it when the reference is a
// proven minimum, not above it when the reference is an unproven cover,
// and at least 1 either way.
func checkPipelineCount(rep *Report, i, k, want int, proven bool) {
	switch {
	case proven && k != want:
		rep.addf("pipeline", i, "Cache.ConstraintCubes = %d, oracle recomputation %d", k, want)
	case !proven && k > want:
		rep.addf("pipeline", i, "Cache.ConstraintCubes = %d exceeds the %d cubes of the exact search's unproven cover", k, want)
	}
	if k < 1 {
		rep.addf("pipeline", i, "non-empty constraint costs %d cubes", k)
	}
}

// checkContainment verifies the fr-semantics contract of a minimized
// cover: every member code (ON minterm) is covered, no non-member code
// (OFF minterm) is — first by elementary per-cube containment, then by
// evaluating a BDD built from the cover, so a bug in the cover algebra
// cannot certify its own output.
func checkContainment(rep *Report, label string, e *face.Encoding, i int, c face.Constraint, cov *cover.Cover) {
	d := cov.D
	mgr := bdd.New(e.NV)
	f := mgr.FromCover(cov)
	asn := make([]bool, e.NV)
	for s := 0; s < e.N(); s++ {
		// A fresh point cube per symbol: Domain.Set only ORs literal bits
		// in, so reusing one would accumulate earlier codes.
		pt := d.NewCube()
		for col := 0; col < e.NV; col++ {
			d.Set(pt, col, e.Bit(s, col))
			asn[col] = e.Bit(s, col) == 1
		}
		covered := false
		for _, cb := range cov.Cubes {
			if d.Contains(cb, pt) {
				covered = true
				break
			}
		}
		if got := mgr.Eval(f, asn); got != covered {
			rep.addf("oracle-disagree", i,
				"%s cover: BDD evaluation %v, cube containment %v for symbol %d",
				label, got, covered, s)
		}
		if c.Has(s) && !covered {
			rep.addf("containment-on", i, "%s cover misses member %d (code %s)",
				label, s, e.CodeString(s))
		}
		if !c.Has(s) && covered {
			rep.addf("containment-off", i, "%s cover contains non-member %d (code %s)",
				label, s, e.CodeString(s))
		}
	}
}

// Audit runs the single-encoding oracle stack every -check and -audit
// flag runs — CheckEncoding (with opts), CheckMinimization and
// CheckCost — and returns their merged report. cache may be nil; it only
// memoizes pipeline-count recomputations.
func Audit(p *face.Problem, e *face.Encoding, cache *eval.Cache, opts Options) *Report {
	rep := CheckEncoding(p, e, opts)
	rep.Merge(CheckMinimization(p, e, cache))
	rep.Merge(CheckCost(p, e, cache))
	return rep
}

// CheckCost validates the batch evaluator against an independent
// re-summation: eval.Evaluate's per-constraint counts, totals and
// satisfied count must match per-constraint recomputation through
// cache.ConstraintCubes (which, unlike Evaluate, never takes the
// satisfied-constraint shortcut; a nil cache computes every count).
func CheckCost(p *face.Problem, e *face.Encoding, cache *eval.Cache) *Report {
	mChecks.Inc()
	rep := &Report{}
	cost, err := eval.Evaluate(p, e)
	if err != nil {
		rep.addf("evaluate", -1, "Evaluate failed: %v", err)
		return rep
	}
	if len(cost.Cubes) != len(p.Constraints) {
		rep.addf("evaluate", -1, "Cubes has %d entries, want %d", len(cost.Cubes), len(p.Constraints))
		return rep
	}
	total, weighted, satisfied := 0, 0, 0
	for i, c := range p.Constraints {
		k, err := cache.ConstraintCubes(e, c)
		if err != nil {
			rep.addf("evaluate", i, "ConstraintCubes failed: %v", err)
			return rep
		}
		if cost.Cubes[i] != k {
			rep.addf("evaluate", i, "Evaluate reports %d cubes, direct minimization %d",
				cost.Cubes[i], k)
		}
		total += k
		weighted += k * p.Weight(i)
		if e.Satisfied(c) {
			satisfied++
		}
	}
	if cost.Total != total {
		rep.addf("evaluate", -1, "Total = %d, oracle %d", cost.Total, total)
	}
	if cost.WeightedTotal != weighted {
		rep.addf("evaluate", -1, "WeightedTotal = %d, oracle %d", cost.WeightedTotal, weighted)
	}
	if cost.SatisfiedCount != satisfied {
		rep.addf("evaluate", -1, "SatisfiedCount = %d, oracle %d", cost.SatisfiedCount, satisfied)
	}
	return rep
}
