package core

import "picola/internal/obs"

// updateConstraints is the paper's Update_constraints: mark satisfied
// rows, Classify the infeasible ones, and add their guide-constraints.
func (e *encoder) updateConstraints(j int) {
	for ri, t := range e.rows {
		if !t.satisfied && !t.infeasible && t.unsat.Count() == 0 {
			t.satisfied = true
			if e.tr != nil {
				a := e.attrs()
				a["variant"] = float64(e.variant)
				a["row"] = float64(ri)
				a["col"] = float64(j)
				obs.Emit(e.tr, obs.Event{Kind: obs.KindEvent, Stage: "classify", Name: "satisfied", Attrs: a})
			}
		}
	}
	infeasible := e.classify(j)
	if e.opts.DisableGuides {
		return
	}
	for _, idx := range infeasible {
		e.addGuide(idx, j)
	}
}

// classify returns the indices of rows newly detected infeasible before
// generating column j. A row is infeasible when its remaining intruders
// can no longer all be excluded: no columns remain, excluding would shrink
// its cube below the capacity needed for its members, or it is not
// nv-compatible with an already-satisfied constraint (paper §3.3).
//
// This is the set-algebra fast path: intruder counts are word-parallel
// popcounts of the unsatisfied-outsider bitset, the per-row member count
// and minimum dimension are creation-time constants, and each pairwise
// compatibility check is compatibleSet's closed form. The scalar
// reference the randomized parity suite replays against lives in the
// package tests; on a warmed encoder one classify scan performs no heap
// allocation (the TestAllocs gate).
//
//picola:hot
func (e *encoder) classify(j int) []int {
	out := e.infeasScratch[:0]
	remaining := e.nv - j
	for i, t := range e.rows {
		if t.satisfied || t.infeasible {
			continue
		}
		intr := t.unsat.Count()
		if intr == 0 {
			continue
		}
		bad := false
		switch {
		case remaining == 0:
			bad = true
		case t.agree >= e.nv-t.dLo:
			// Any further agreeing column (needed to exclude an intruder)
			// would make the supercube too small for the members.
			bad = true
		default:
			for _, s := range e.rows {
				if !s.satisfied || s == t {
					continue
				}
				if !e.compatibleSet(s, t, s.members.IntersectCount(t.members)) {
					bad = true
					break
				}
			}
		}
		if bad {
			t.infeasible = true
			//lint:ignore hotalloc pooled scratch: grows only to the run's infeasible high-water mark
			out = append(out, i)
			mInfeasible.Inc()
			if e.tr != nil {
				//lint:ignore hotalloc reusable attrs map: allocated once per encoder, and only when traced
				a := e.attrs()
				a["variant"] = float64(e.variant)
				a["row"] = float64(i)
				a["col"] = float64(j)
				a["intruders"] = float64(intr)
				a["depth"] = float64(t.depth)
				obs.Emit(e.tr, obs.Event{Kind: obs.KindEvent, Stage: "classify", Name: "infeasible", Attrs: a})
			}
		}
	}
	e.infeasScratch = out
	return out
}

// attrs returns the encoder's reusable event-attrs map, cleared. One map
// serves every emission because Emit must not retain it (the obs.Tracer
// contract).
func (e *encoder) attrs() map[string]float64 {
	if e.traceAttrs == nil {
		e.traceAttrs = make(map[string]float64, 8)
	}
	clear(e.traceAttrs)
	return e.traceAttrs
}

// compatibleSet decides nv-compatibility (§3.3.1) between a satisfied
// constraint a and a candidate b in closed form, given their member
// intersection count son. The scalar reference in the package tests scans
// every admissible (dimA, dimB, dimAB) triple; here the disjoint, identical and
// nested cases collapse to constant-time checks, and the genuinely
// ambiguous case (0 < son < min(cA, cB)) reduces to one O(nv) scan over
// dimAB: for a fixed dimAB every remaining condition is a lower bound on
// dimA or dimB (conditions I and II are monotone in the slack) or an
// interval constraint on their sum, so feasibility per dimAB is a
// nonempty-box test.
//
//picola:hot
func (e *encoder) compatibleSet(a, b *tracked, son int) bool {
	nv := e.nv
	cA, cB := a.cnt, b.cnt
	dALo, dAHi := a.dLo, nv-a.agree
	dBLo, dBHi := b.dLo, nv-b.agree
	if dALo > dAHi || dBLo > dBHi {
		return false
	}
	if son == 0 {
		// Disjoint constraints need disjoint cubes: total capacity and
		// total slack must fit (a necessary condition; paper §3.3.1.b).
		total := 1 << uint(nv)
		if 1<<uint(dALo)+1<<uint(dBLo) > total {
			return false
		}
		slack := total - e.n
		return (1<<uint(dALo)-cA)+(1<<uint(dBLo)-cB) <= slack
	}
	switch {
	case son == cA && son == cB:
		// Identical member sets: conditions I force dimA = dimB = dimAB;
		// every other condition is then automatic. dALo == dBLo here.
		return dALo <= dBHi
	case son == cA:
		// A nested in B: dimAB = dimA < dimB, and condition II reduces to
		// slack(A) ≤ slack(B). Smallest dimA and largest dimB dominate.
		return dALo < dBHi && (1<<uint(dALo))-cA <= (1<<uint(dBHi))-cB
	case son == cB:
		return dBLo < dAHi && (1<<uint(dBLo))-cB <= (1<<uint(dAHi))-cA
	}
	union := cA + cB - son
	dimU := minDim(union)
	for dS := minDim(son); dS < dAHi && dS < dBHi; dS++ {
		slack := (1 << uint(dS)) - son
		dAmin := max(dALo, dS+1, minDim(cA+slack))
		dBmin := max(dBLo, dS+1, minDim(cB+slack))
		if dAmin > dAHi || dBmin > dBHi {
			continue
		}
		lo := max(dAmin+dBmin, dS+dimU)
		hi := min(dAHi+dBHi, dS+nv)
		if lo <= hi {
			return true
		}
	}
	return false
}

// addGuide substitutes an infeasible row by its guide-constraint: the
// group constraint on its intruder set, whose tracked dichotomies oppose
// the original members (the Theorem I condition is a cube of intruders
// disjoint from the member codes).
func (e *encoder) addGuide(idx, j int) {
	t := e.rows[idx]
	if t.depth >= maxGuideDepth {
		return
	}
	intr := t.intruders()
	if intr.Count() < 2 {
		// A single intruder is a 0-cube, trivially disjoint from the
		// member codes: Theorem I already applies maximally.
		return
	}
	mGuides.Inc()
	if e.tr != nil {
		obs.Emit(e.tr, obs.Event{Kind: obs.KindEvent, Stage: "guide", Name: "substitute",
			Attrs: map[string]float64{
				"variant":   float64(e.variant),
				"parent":    float64(idx),
				"col":       float64(j),
				"depth":     float64(t.depth + 1),
				"intruders": float64(intr.Count()),
				"weight":    t.weight * e.guideWeight,
			}})
	}
	g := newTracked(intr, t.depth+1, t.weight*e.guideWeight)
	// A guide's relevant dichotomies oppose only the original members.
	g.outsiders = t.members.Clone()
	g.unsat = g.outsiders.Clone()
	// Credit columns generated so far.
	for col := 0; col < j; col++ {
		e.creditColumn(g, col)
	}
	e.rows = append(e.rows, g)
}
