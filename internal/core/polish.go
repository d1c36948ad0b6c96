package core

import (
	"time"

	"picola/internal/ctxutil"
	"picola/internal/face"
	"picola/internal/obs"
)

// exactPolish refines the encoding under the exact minimized cube count:
// first-improvement descent over code swaps and spare-code moves, followed
// by deterministic basin hopping — at a local optimum, apply the
// least-damaging swap and descend again, keeping the best encoding seen.
// A swap exchanges codes between two symbols, so the function of any
// constraint containing neither symbol is literally unchanged (same
// member codes, same non-member code multiset) — only the touched
// memberships are re-minimized. The evaluation budget bounds the pass.
func (e *encoder) exactPolish(budget int) error {
	defer tExactPolish.Start()()
	// This pass moves codes, so an earlier estimate-polish optimum no
	// longer holds.
	e.polishConverged = false
	t0 := time.Now()
	n := e.n
	r := len(e.p.Constraints)
	if r == 0 {
		return nil
	}
	ps := &polishState{e: e, budget: budget}
	ps.cost = make([]int, r)
	for i, c := range e.p.Constraints {
		k, err := e.exactCubes(c)
		if err != nil {
			return err
		}
		ps.evals++
		ps.cost[i] = k
	}
	ps.touched = newAffectedSet(e.p.Constraints, n)
	ps.spares = e.enc.SpareCodes()
	ps.commitSeq = 1
	ps.pairTried = make([]int, n*n)
	ps.moveTried = make([]int, n*len(ps.spares))
	before := ps.total()
	if err := ps.descend(); err != nil {
		return err
	}
	// Basin hopping: remember the best encoding; kick with the cheapest
	// non-improving swap and descend again.
	bestCodes := append([]uint64(nil), e.enc.Codes...)
	bestTotal := ps.total()
	for hop := 0; hop < 3 && ps.evals < ps.budget; hop++ {
		if err := ps.kick(); err != nil {
			return err
		}
		if err := ps.descend(); err != nil {
			return err
		}
		if t := ps.total(); t < bestTotal {
			bestTotal = t
			copy(bestCodes, e.enc.Codes)
		}
	}
	copy(e.enc.Codes, bestCodes)
	if e.tr != nil {
		obs.Emit(e.tr, obs.Event{Kind: obs.KindSpan, Stage: "exact-polish",
			DurMS: obs.MS(time.Since(t0)),
			Attrs: map[string]float64{
				"evals":  float64(ps.evals),
				"budget": float64(budget),
				"before": float64(before),
				"after":  float64(bestTotal),
				"delta":  float64(bestTotal - before),
			}})
	}
	return nil
}

// polishState carries the exact-polish bookkeeping.
type polishState struct {
	e       *encoder
	cost    []int
	touched *affectedSet
	spares  []uint64
	evals   int
	budget  int

	// Spare-move scan scratch, refreshed per symbol by prepareSpareScan:
	// newCost is the candidate cost vector; for each constraint, aMem
	// records whether the moving symbol is a member and sup holds the
	// members' code supercube (valid only when aMem is false).
	newCost []int
	sup     []face.Face
	aMem    []bool

	// Don't-look memory (see the estimate polish): a candidate rejected
	// at commitSeq is skipped — but still charged the evals it would
	// have spent, so the budget trajectory is byte-identical — until any
	// commit bumps commitSeq. kick never skips: its evaluations rank
	// candidates rather than reject them.
	commitSeq int
	pairTried []int
	moveTried []int

	// swapDelta scratch, reused across candidates.
	swapCost []int
}

// prepareSpareScan sizes the scan scratch and snapshots, for the symbol a
// about to be moved, each constraint's membership bit and — for the
// constraints a does not belong to — the supercube of its member codes.
// Those supercubes stay valid across the whole spare scan of a: only a's
// own code changes, and a is not a member of any constraint they describe.
func (ps *polishState) prepareSpareScan(a int) {
	r := len(ps.e.p.Constraints)
	if cap(ps.newCost) < r {
		ps.newCost = make([]int, r)
		ps.sup = make([]face.Face, r)
		ps.aMem = make([]bool, r)
	}
	ps.newCost = ps.newCost[:r]
	ps.sup = ps.sup[:r]
	ps.aMem = ps.aMem[:r]
	for i, c := range ps.e.p.Constraints {
		ps.aMem[i] = c.Has(a)
		if !ps.aMem[i] {
			ps.sup[i] = ps.e.enc.Supercube(c)
		}
	}
}

func (ps *polishState) total() int {
	t := 0
	for i, k := range ps.cost {
		t += ps.e.p.Weight(i) * k
	}
	return t
}

// affectedSet lists the constraints a candidate move of either local
// search can change. The list is scratch, valid until the next candidate;
// each constraint carries an epoch stamp instead of being cleared, so the
// O(n²·passes) candidate loops do not allocate per candidate.
type affectedSet struct {
	memberOf [][]int // memberOf[s]: the constraints having s as a member
	stamp    []int
	epoch    int
	idx      []int
}

func newAffectedSet(cons []face.Constraint, n int) *affectedSet {
	as := &affectedSet{
		memberOf: make([][]int, n),
		stamp:    make([]int, len(cons)),
		idx:      make([]int, 0, len(cons)),
	}
	for i, c := range cons {
		for _, m := range c.Members() {
			as.memberOf[m] = append(as.memberOf[m], i)
		}
	}
	return as
}

// begin starts a new list holding the constraints having a as a member.
func (as *affectedSet) begin(a int) {
	as.epoch++
	as.idx = as.idx[:0]
	for _, i := range as.memberOf[a] {
		as.stamp[i] = as.epoch
		as.idx = append(as.idx, i)
	}
}

// add appends constraint i unless the list already holds it.
func (as *affectedSet) add(i int) {
	if as.stamp[i] != as.epoch {
		as.stamp[i] = as.epoch
		as.idx = append(as.idx, i)
	}
}

// swap lists the constraints with a or b as a member: the only ones a
// swap of their codes can change.
func (as *affectedSet) swap(a, b int) []int {
	as.begin(a)
	for _, i := range as.memberOf[b] {
		as.add(i)
	}
	return as.idx
}

// carryHolds is the exact-polish carry's predicate. Moving symbol a from
// code old to the spare code nw leaves the exact count of a constraint
// unchanged when a is not a member (aMem false) and neither code lies in
// the supercube sup of the members' codes: a minimum cover of the members
// restricts to that supercube (intersecting each cube with it preserves
// coverage and OFF-set disjointness), so minterms outside it may switch
// between OFF and don't-care freely.
func carryHolds(aMem bool, sup face.Face, old, nw uint64) bool {
	return !aMem && !sup.Contains(old) && !sup.Contains(nw)
}

// swapDelta applies the swap and returns the exact cost change and the
// touched constraints' new costs (without committing ps.cost). The cost
// slice is scratch, valid until the next call.
func (ps *polishState) swapDelta(a, b int, idx []int) (int, []int, error) {
	ps.e.enc.Codes[a], ps.e.enc.Codes[b] = ps.e.enc.Codes[b], ps.e.enc.Codes[a]
	d := 0
	if cap(ps.swapCost) < len(idx) {
		ps.swapCost = make([]int, len(ps.e.p.Constraints))
	}
	newCost := ps.swapCost[:len(idx)]
	for j, i := range idx {
		k, err := ps.e.exactCubes(ps.e.p.Constraints[i])
		if err != nil {
			return 0, nil, err
		}
		ps.evals++
		newCost[j] = k
		d += ps.e.p.Weight(i) * (k - ps.cost[i])
	}
	return d, newCost, nil
}

// descend runs first-improvement passes over swaps and spare moves until
// a local optimum or the budget.
func (ps *polishState) descend() error {
	e := ps.e
	n := e.n
	r := len(e.p.Constraints)
	for pass := 0; pass < 8 && ps.evals < ps.budget; pass++ {
		if err := ctxutil.Check(e.runCtx(), "core.exact_polish"); err != nil {
			return err
		}
		improved := false
		for a := 0; a < n && ps.evals < ps.budget; a++ {
			ps.prepareSpareScan(a)
			for si := range ps.spares {
				if ps.evals+r > ps.budget {
					break
				}
				if ps.moveTried[a*len(ps.spares)+si] == ps.commitSeq {
					// Already rejected under this exact state; charge the
					// scan it would have cost and move on.
					ps.evals += r
					continue
				}
				old := e.enc.Codes[a]
				nw := ps.spares[si]
				e.enc.Codes[a] = nw
				d := 0
				for i := range e.p.Constraints {
					// The budget counts evaluation requests, and a carried
					// constraint charges exactly like a recomputed one, so
					// the search trajectory is independent of the carry.
					ps.evals++
					if carryHolds(ps.aMem[i], ps.sup[i], old, nw) {
						ps.newCost[i] = ps.cost[i]
						mPolishCarried.Inc()
						continue
					}
					k, err := e.exactCubes(e.p.Constraints[i])
					if err != nil {
						return err
					}
					ps.newCost[i] = k
					d += e.p.Weight(i) * (k - ps.cost[i])
				}
				if d < 0 {
					copy(ps.cost, ps.newCost)
					ps.spares[si] = old
					improved = true
					ps.commitSeq++
				} else {
					e.enc.Codes[a] = old
					ps.moveTried[a*len(ps.spares)+si] = ps.commitSeq
				}
			}
			for b := a + 1; b < n && ps.evals < ps.budget; b++ {
				idx := ps.touched.swap(a, b)
				if len(idx) == 0 {
					continue
				}
				if ps.pairTried[a*n+b] == ps.commitSeq {
					ps.evals += len(idx)
					continue
				}
				d, newCost, err := ps.swapDelta(a, b, idx)
				if err != nil {
					return err
				}
				if d < 0 {
					for j, i := range idx {
						ps.cost[i] = newCost[j]
					}
					improved = true
					ps.commitSeq++
				} else {
					e.enc.Codes[a], e.enc.Codes[b] = e.enc.Codes[b], e.enc.Codes[a]
					ps.pairTried[a*n+b] = ps.commitSeq
				}
			}
		}
		if !improved {
			break
		}
	}
	return nil
}

// kick commits the least-damaging swap among a deterministic sample so the
// next descent explores a different basin.
func (ps *polishState) kick() error {
	e := ps.e
	if err := ctxutil.Check(e.runCtx(), "core.exact_polish"); err != nil {
		return err
	}
	n := e.n
	bestA, bestB, bestD := -1, -1, 1<<30
	var bestCost []int
	for a := 0; a < n && ps.evals < ps.budget; a++ {
		b := (a + 1 + n/2) % n
		if a == b {
			continue
		}
		idx := ps.touched.swap(a, b)
		if len(idx) == 0 {
			continue
		}
		d, newCost, err := ps.swapDelta(a, b, idx)
		if err != nil {
			return err
		}
		// Undo; the chosen kick is re-applied below.
		e.enc.Codes[a], e.enc.Codes[b] = e.enc.Codes[b], e.enc.Codes[a]
		if d != 0 && d < bestD {
			bestA, bestB, bestD = a, b, d
			// newCost is swapDelta scratch — snapshot it.
			bestCost = append(bestCost[:0], newCost...)
		}
	}
	if bestA < 0 {
		return nil
	}
	idx := ps.touched.swap(bestA, bestB)
	e.enc.Codes[bestA], e.enc.Codes[bestB] = e.enc.Codes[bestB], e.enc.Codes[bestA]
	for j, i := range idx {
		ps.cost[i] = bestCost[j]
	}
	ps.commitSeq++
	return nil
}

// polish is a deterministic first-improvement hill climb over code swaps
// and moves to spare codes, minimizing the weighted cube estimate. The
// estimate of a constraint depends only on its member codes and the
// multiset of non-member codes, so a swap of two symbols can only change
// constraints having one of them as a member — the evaluation is
// incremental and never calls espresso. name labels the trace span:
// "light" for a variant's polish inside its restart, "full" for the
// winning variant's after the portfolio.
func (e *encoder) polish(name string, maxPasses int) error {
	defer tPolish.Start()()
	if err := ctxutil.Check(e.runCtx(), "core.polish"); err != nil {
		return err
	}
	if e.polishConverged {
		return nil
	}
	t0 := time.Now()
	n := e.n
	r := len(e.p.Constraints)
	cm := newCostModel(e.enc, e.p.Constraints)
	defer cm.flush()
	est := make([]int, r)
	for i := range e.p.Constraints {
		est[i] = cm.estimate(i)
	}
	weightedEst := func() int {
		t := 0
		for i, k := range est {
			t += e.p.Weight(i) * k
		}
		return t
	}
	before := 0
	if e.tr != nil {
		before = weightedEst()
	}
	touched := newAffectedSet(e.p.Constraints, n)
	spares := e.enc.SpareCodes()
	// delta recomputes the listed constraints and returns the estimate
	// change, mutating est.
	delta := func(idx []int) int {
		d := 0
		for _, i := range idx {
			k := cm.estimate(i)
			d += e.p.Weight(i) * (k - est[i])
			est[i] = k
		}
		return d
	}
	restore := func(idx []int, saved []int) {
		for j, i := range idx {
			est[i] = saved[j]
		}
	}
	// The scan buffers are reused across every candidate swap and move:
	// savedBuf holds the estimates to restore on rollback, and sup the
	// per-constraint supercubes for the spare scan. The O(n²·passes)
	// candidate loop is the encoder's warm-path floor, so it must not
	// allocate per candidate.
	savedBuf := make([]int, r)
	sup := make([]face.Face, r)
	// Don't-look memory: a candidate rejected at commitSeq is skipped
	// until any candidate commits (every commit bumps commitSeq). A
	// rejected evaluation has no side effects — codes and est are
	// restored — so re-evaluating it under the identical global state
	// would reject identically: skipping preserves the exact search
	// trajectory while making the final convergence passes nearly free.
	commitSeq := 1
	pairTried := make([]int, n*n)
	moveTried := make([]int, n*len(spares))
	passes := 0
	for pass := 0; pass < maxPasses; pass++ {
		if err := ctxutil.Check(e.runCtx(), "core.polish"); err != nil {
			return err
		}
		passes++
		improved := false
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if pairTried[a*n+b] == commitSeq {
					continue
				}
				idx := touched.swap(a, b)
				if len(idx) == 0 {
					continue
				}
				saved := savedBuf[:len(idx)]
				for j, i := range idx {
					saved[j] = est[i]
				}
				e.enc.Codes[a], e.enc.Codes[b] = e.enc.Codes[b], e.enc.Codes[a]
				if delta(idx) < 0 {
					improved = true
					commitSeq++
				} else {
					e.enc.Codes[a], e.enc.Codes[b] = e.enc.Codes[b], e.enc.Codes[a]
					restore(idx, saved)
					pairTried[a*n+b] = commitSeq
				}
			}
			// Moves to spare codes change the non-member code multiset, so
			// they can affect a's memberships plus any constraint whose
			// supercube contains the departing or arriving code. Committing
			// a move changes only a's code, and a's member constraints are
			// listed unconditionally, so the supercubes consulted below are
			// invariant across the scan — compute them once per symbol.
			if len(spares) > 0 {
				for i, c := range e.p.Constraints {
					sup[i] = e.enc.Supercube(c)
				}
			}
			for si := range spares {
				if moveTried[a*len(spares)+si] == commitSeq {
					continue
				}
				touched.begin(a)
				old := e.enc.Codes[a]
				nw := spares[si]
				for i := 0; i < r; i++ {
					if sup[i].Contains(old) || sup[i].Contains(nw) {
						touched.add(i)
					}
				}
				idx := touched.idx
				saved := savedBuf[:len(idx)]
				for j, i := range idx {
					saved[j] = est[i]
				}
				e.enc.Codes[a] = nw
				if delta(idx) < 0 {
					spares[si] = old
					improved = true
					commitSeq++
				} else {
					e.enc.Codes[a] = old
					restore(idx, saved)
					moveTried[a*len(spares)+si] = commitSeq
				}
			}
		}
		if !improved {
			// Local optimum: every candidate was just rejected at the
			// current codes, so an immediate re-polish has nothing to do.
			e.polishConverged = true
			break
		}
		e.polishConverged = false
	}
	if e.tr != nil {
		after := weightedEst()
		obs.Emit(e.tr, obs.Event{Kind: obs.KindSpan, Stage: "polish", Name: name,
			DurMS: obs.MS(time.Since(t0)),
			Attrs: map[string]float64{
				"variant": float64(e.variant),
				"passes":  float64(passes),
				"before":  float64(before),
				"after":   float64(after),
				"delta":   float64(after - before),
			}})
	}
	return nil
}
