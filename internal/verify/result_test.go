package verify

import (
	"picola/internal/core"
	"picola/internal/face"
)

// This file holds the oracle for core.Result's per-constraint
// diagnostics. Only the tests call it: verify.Audit checks encodings and
// counts, not an encoder's verdicts.

// CheckResult validates a PICOLA Result's per-constraint diagnostics
// against the oracle: the Satisfied/Infeasible verdicts must match the
// recomputed intruder sets, and every reported Theorem I cube count must
// be re-derivable (intruder supercube disjoint from the member codes,
// count = dim(super(L)) − dim(super(I)) ≥ 1).
func CheckResult(p *face.Problem, res *core.Result) *Report {
	mChecks.Inc()
	rep := &Report{}
	if res == nil || res.Encoding == nil {
		rep.addf("result", -1, "nil result or encoding")
		return rep
	}
	e := res.Encoding
	n := len(p.Constraints)
	if len(res.Satisfied) != n || len(res.Infeasible) != n || len(res.TheoremICubes) != n {
		rep.addf("result", -1, "diagnostics length %d/%d/%d, want %d",
			len(res.Satisfied), len(res.Infeasible), len(res.TheoremICubes), n)
		return rep
	}
	for i, c := range p.Constraints {
		members := c.Members()
		sc := slowSupercube(e, members)
		sat := true
		var intr []int
		for s := 0; s < e.N(); s++ {
			if !c.Has(s) && sc.contains(e, s) {
				sat = false
				intr = append(intr, s)
			}
		}
		if res.Satisfied[i] != sat {
			rep.addf("verdict", i, "Result.Satisfied = %v, oracle %v (intruders %v)",
				res.Satisfied[i], sat, intr)
		}
		if res.Infeasible[i] != !sat {
			rep.addf("verdict", i, "Result.Infeasible = %v, oracle %v",
				res.Infeasible[i], !sat)
		}
		checkTheoremI(rep, e, i, c, sat, intr, sc, res.TheoremICubes[i])
	}
	return rep
}

// checkTheoremI re-derives the Theorem I count for one constraint.
func checkTheoremI(rep *Report, e *face.Encoding, i int, c face.Constraint,
	sat bool, intr []int, sc slowCube, reported int) {
	if sat {
		if reported != 0 {
			rep.addf("theorem1", i, "satisfied constraint reports Theorem I count %d", reported)
		}
		return
	}
	iSc := slowSupercube(e, intr)
	applies := true
	for _, m := range c.Members() {
		if iSc.contains(e, m) {
			applies = false
			break
		}
	}
	if !applies {
		if reported != 0 {
			rep.addf("theorem1", i,
				"count %d reported but a member code lies inside the intruder supercube", reported)
		}
		return
	}
	want := sc.dim() - iSc.dim()
	if reported != want {
		rep.addf("theorem1", i, "count %d, oracle dim(super(L))-dim(super(I)) = %d-%d = %d",
			reported, sc.dim(), iSc.dim(), want)
	}
	if reported < 1 {
		rep.addf("theorem1", i, "applicable Theorem I count %d < 1", reported)
	}
}

// dim returns the cube's dimension (number of free columns).
func (sc slowCube) dim() int {
	d := 0
	for _, f := range sc.fixed {
		if !f {
			d++
		}
	}
	return d
}
