package core

import (
	"time"

	"picola/internal/ctxutil"
	"picola/internal/face"
	"picola/internal/obs"
)

// search is the local-search core both polishes run on. It holds each
// constraint's committed cost under one objective, scratch for a
// candidate's costs, the lists of constraints a candidate can change,
// the spare codes and the don't-look memory. A candidate is a swap of
// two symbols' codes or a spare move, which gives a symbol a code no
// symbol holds; it is applied to the codes, scored on its list alone and
// kept only when it lowers the weighted total. Each polish keeps its own
// loop over the candidates.
type search struct {
	e         *encoder
	objective func(i int) (int, error) // constraint i's cost under the current codes
	cost      []int                    // committed cost per constraint
	next      []int                    // the scored candidate's costs, in list order
	aff       *affectedSet
	spares    []uint64

	// Don't-look memory: a candidate rejected at commitSeq is skipped
	// until any commit bumps commitSeq. A rejected candidate leaves the
	// codes and costs as they were, so scoring it again under the same
	// state would reject it again: skipping keeps the first-improvement
	// trajectory while making the final convergence passes nearly free.
	// tried holds the swaps (a·n+b) first, then the spare moves.
	commitSeq int
	tried     []int

	// carried counts the constraints spare moves left off their lists;
	// the exact polish reports it as core.polish.carried.
	carried int

	// The estimate polish's current estimates (nil in the exact polish):
	// cur[i] is constraint i's estimate at the current codes while
	// curSeq[i] == commitSeq. A swap leaves a constraint holding both
	// symbols with the same member codes and the same non-member codes
	// in symbol order, so its estimate under the swap is cur[i], not
	// cost[i], which a committed swap of two non-members can leave stale
	// (costModel.estimate). reused counts these answers for
	// core.estimates.
	cur, curSeq []int
	reused      int
}

// newSearch scores every constraint under objective and sets up the
// search over the encoder's codes.
func (e *encoder) newSearch(objective func(i int) (int, error)) (*search, error) {
	r := len(e.p.Constraints)
	s := &search{e: e, objective: objective, cost: make([]int, r), next: make([]int, r),
		aff: newAffectedSet(e.enc, e.p.Constraints), spares: e.enc.SpareCodes(), commitSeq: 1}
	for i := range s.cost {
		k, err := objective(i)
		if err != nil {
			return nil, err
		}
		s.cost[i] = k
	}
	s.tried = make([]int, e.n*e.n+e.n*len(s.spares))
	return s, nil
}

// newEstimateSearch is the estimate polish's search under cm's estimate,
// with the current-estimate memory on.
func (e *encoder) newEstimateSearch(cm *costModel) *search {
	s, _ := e.newSearch(func(i int) (int, error) { return cm.estimate(i), nil }) // the estimate has no error
	s.cur, s.curSeq = make([]int, len(s.cost)), make([]int, len(s.cost))
	return s
}

func (s *search) total() int {
	t := 0
	for i, k := range s.cost {
		t += s.e.p.Weight(i) * k
	}
	return t
}

func (s *search) swapCodes(a, b int) {
	c := s.e.enc.Codes
	c[a], c[b] = c[b], c[a]
}

// score evaluates the objective on the listed constraints under the
// current codes into s.next and returns the weighted change from their
// committed costs.
func (s *search) score(idx []int) (int, error) {
	d := 0
	for j, i := range idx {
		k, err := s.costOf(i)
		if err != nil {
			return 0, err
		}
		s.next[j] = k
		d += s.e.p.Weight(i) * (k - s.cost[i])
	}
	return d, nil
}

// costOf is constraint i's objective under the candidate: its current
// estimate when the estimate polish scores a swap of two of i's
// members, computed at most once per commit.
func (s *search) costOf(i int) (int, error) {
	if s.cur == nil || s.aff.both[i] != s.aff.epoch {
		return s.objective(i)
	}
	if s.curSeq[i] == s.commitSeq {
		s.reused++
		return s.cur[i], nil
	}
	k, err := s.objective(i)
	s.cur[i], s.curSeq[i] = k, s.commitSeq
	return k, err
}

// commit makes the scored candidate's costs the committed ones.
func (s *search) commit(idx []int) {
	s.commitSeq++
	for j, i := range idx {
		s.cost[i] = s.next[j]
		if s.cur != nil {
			s.cur[i], s.curSeq[i] = s.next[j], s.commitSeq
		}
	}
}

// trySwap scores the swap of a's and b's codes and keeps it when it
// lowers the weighted total. It returns the length of the swap's list,
// scored or skipped.
func (s *search) trySwap(a, b int) (listed int, kept bool, err error) {
	idx := s.aff.swap(a, b)
	id := a*s.e.n + b
	if len(idx) == 0 || s.tried[id] == s.commitSeq {
		return len(idx), false, nil
	}
	s.swapCodes(a, b)
	d, err := s.score(idx)
	if err != nil {
		return 0, false, err
	}
	if d < 0 {
		s.commit(idx)
		return len(idx), true, nil
	}
	s.swapCodes(a, b)
	s.tried[id] = s.commitSeq
	return len(idx), false, nil
}

// tryMove scores moving a to the spare code spares[si] and keeps the move
// when it lowers the weighted total; a's old code then takes that spare's
// place. The move's list reads the supercubes of the last snapshot, which
// must be of a's spare scan.
func (s *search) tryMove(a, si int) (bool, error) {
	id := s.e.n*s.e.n + a*len(s.spares) + si
	if s.tried[id] == s.commitSeq {
		return false, nil
	}
	codes := s.e.enc.Codes
	old, nw := codes[a], s.spares[si]
	idx := s.aff.move(a, old, nw)
	s.carried += len(s.cost) - len(idx)
	codes[a] = nw
	d, err := s.score(idx)
	if err != nil {
		return false, err
	}
	if d < 0 {
		s.commit(idx)
		s.spares[si] = old
		return true, nil
	}
	codes[a] = old
	s.tried[id] = s.commitSeq
	return false, nil
}

// exactPolish refines the encoding under the exact minimized cube count:
// first-improvement descent over spare moves and code swaps, followed
// by deterministic basin hopping — at a local optimum, apply the
// least-damaging swap and descend again, keeping the best encoding seen.
// The evaluation budget bounds the pass.
func (e *encoder) exactPolish(budget int) error {
	defer tExactPolish.Start()()
	// This pass moves codes, so an earlier estimate-polish optimum no
	// longer holds.
	e.polishConverged = false
	t0 := time.Now()
	r := len(e.p.Constraints)
	if r == 0 {
		return nil
	}
	s, err := e.newSearch(func(i int) (int, error) { return e.exactCubes(e.p.Constraints[i]) })
	if err != nil {
		return err
	}
	defer func() { mPolishCarried.Add(int64(s.carried)) }()
	ps := &polishState{search: s, evals: r, budget: budget}
	before := s.total()
	if err := ps.descend(); err != nil {
		return err
	}
	// Basin hopping: remember the best encoding; kick with the cheapest
	// non-improving swap and descend again.
	bestCodes := append([]uint64(nil), e.enc.Codes...)
	bestTotal := s.total()
	for hop := 0; hop < 3 && ps.evals < ps.budget; hop++ {
		if err := ps.kick(); err != nil {
			return err
		}
		if err := ps.descend(); err != nil {
			return err
		}
		if t := s.total(); t < bestTotal {
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

// polishState is the exact polish's search with its request budget. The
// budget counts requests, and a constraint a list leaves out or a
// candidate the don't-look memory skips charges exactly like a request,
// so the trajectory is independent of both.
type polishState struct {
	*search
	evals  int
	budget int
}

// descend runs first-improvement passes over spare moves and swaps until
// a local optimum or the budget.
func (ps *polishState) descend() error {
	n, r := ps.e.n, len(ps.cost)
	for pass := 0; pass < 8 && ps.evals < ps.budget; pass++ {
		if err := ctxutil.Check(ps.e.runCtx(), "core.exact_polish"); err != nil {
			return err
		}
		improved := false
		for a := 0; a < n && ps.evals < ps.budget; a++ {
			if len(ps.spares) > 0 {
				ps.aff.snapshot()
			}
			for si := range ps.spares {
				if ps.evals+r > ps.budget {
					break
				}
				ps.evals += r
				kept, err := ps.tryMove(a, si)
				if err != nil {
					return err
				}
				improved = improved || kept
			}
			for b := a + 1; b < n && ps.evals < ps.budget; b++ {
				listed, kept, err := ps.trySwap(a, b)
				if err != nil {
					return err
				}
				ps.evals += listed
				improved = improved || kept
			}
		}
		if !improved {
			break
		}
	}
	return nil
}

// kick commits the least-damaging swap among a deterministic sample so the
// next descent explores a different basin. It never skips: its
// evaluations rank candidates rather than reject them.
func (ps *polishState) kick() error {
	if err := ctxutil.Check(ps.e.runCtx(), "core.exact_polish"); err != nil {
		return err
	}
	n := ps.e.n
	bestA, bestB, bestD := -1, -1, 1<<30
	var bestCost []int
	for a := 0; a < n && ps.evals < ps.budget; a++ {
		b := (a + 1 + n/2) % n
		if a == b {
			continue
		}
		idx := ps.aff.swap(a, b)
		if len(idx) == 0 {
			continue
		}
		ps.swapCodes(a, b)
		d, err := ps.score(idx)
		ps.swapCodes(a, b)
		if err != nil {
			return err
		}
		ps.evals += len(idx)
		if d != 0 && d < bestD {
			bestA, bestB, bestD = a, b, d
			bestCost = append(bestCost[:0], ps.next[:len(idx)]...)
		}
	}
	if bestA < 0 {
		return nil
	}
	idx := ps.aff.swap(bestA, bestB)
	ps.swapCodes(bestA, bestB)
	copy(ps.next, bestCost)
	ps.commit(idx)
	return nil
}

// polish is a deterministic first-improvement hill climb over code swaps
// and spare moves, minimizing the weighted cube estimate; it never calls
// espresso. name labels the trace span: "light" for a variant's polish
// inside its restart, "full" for the winning variant's after the
// portfolio.
func (e *encoder) polish(name string, maxPasses int) error {
	defer tPolish.Start()()
	if err := ctxutil.Check(e.runCtx(), "core.polish"); err != nil {
		return err
	}
	if e.polishConverged {
		return nil
	}
	t0 := time.Now()
	cm := newCostModel(e.enc, e.p.Constraints)
	// The candidate loop is the encoder's warm-path floor, so it must not
	// allocate per candidate (TestAllocsPolishCandidate).
	s := e.newEstimateSearch(cm)
	defer func() {
		cm.evals += s.reused
		cm.flush()
	}()
	before := s.total()
	passes := 0
	for pass := 0; pass < maxPasses; pass++ {
		if err := ctxutil.Check(e.runCtx(), "core.polish"); err != nil {
			return err
		}
		passes++
		improved := false
		for a := 0; a < e.n; a++ {
			for b := a + 1; b < e.n; b++ {
				_, kept, err := s.trySwap(a, b)
				if err != nil {
					return err
				}
				improved = improved || kept
			}
			if len(s.spares) > 0 {
				s.aff.snapshot()
			}
			for si := range s.spares {
				kept, err := s.tryMove(a, si)
				if err != nil {
					return err
				}
				improved = improved || kept
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
		after := s.total()
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

// affectedSet states the move rule of both polishes: which constraints a
// candidate can change. The list is scratch, valid until the next
// candidate; each constraint carries an epoch stamp instead of being
// cleared, so listing allocates nothing.
type affectedSet struct {
	enc      *face.Encoding
	cons     []face.Constraint
	memberOf [][]int     // memberOf[s]: the constraints having s as a member
	sup      []face.Face // each constraint's members' supercube at the last snapshot
	stamp    []int
	both     []int // both[i] == epoch: i holds both symbols of the listed swap
	epoch    int
	idx      []int
}

func newAffectedSet(enc *face.Encoding, cons []face.Constraint) *affectedSet {
	as := &affectedSet{
		enc:      enc,
		cons:     cons,
		memberOf: make([][]int, enc.N()),
		sup:      make([]face.Face, len(cons)),
		stamp:    make([]int, len(cons)),
		both:     make([]int, len(cons)),
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

// swap lists the constraints with a or b as a member, and marks in both
// those with both. A swap leaves every other constraint's member codes
// and non-member code multiset as they were, so its exact count cannot
// change. costModel.estimate can still move: its Theorem I test reads
// the intruder list after the split recursion has compacted it in
// place, so it depends on the non-members' order.
func (as *affectedSet) swap(a, b int) []int {
	as.begin(a)
	for _, i := range as.memberOf[b] {
		if as.stamp[i] == as.epoch {
			as.both[i] = as.epoch
		}
		as.add(i)
	}
	return as.idx
}

// snapshot records every constraint's members' supercube for move. It
// stays valid across one symbol's spare scan: a committed move changes
// only that symbol's code, and move lists the constraints holding it
// whatever their supercube.
func (as *affectedSet) snapshot() {
	for i, c := range as.cons {
		as.sup[i] = as.enc.Supercube(c)
	}
}

// move lists the constraints moving a from code old to the unused code nw
// can change: those having a as a member, and those whose members'
// supercube contains old or nw. Any other constraint keeps its exact
// count: a minimum cover of the members restricts to their supercube
// (intersecting each cube with it keeps the members covered and the
// non-members out), so codes outside it may switch between non-member
// and unused freely. It keeps its estimate too, which reads only the
// codes inside the supercube.
func (as *affectedSet) move(a int, old, nw uint64) []int {
	as.begin(a)
	for i, f := range as.sup {
		if f.Contains(old) || f.Contains(nw) {
			as.add(i)
		}
	}
	return as.idx
}
