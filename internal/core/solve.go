package core

import (
	"picola/internal/ctxutil"
	"picola/internal/face"
)

// collectUnsat lists, for the column about to be built, each unsatisfied
// row's unsatisfied outsiders (satisfied rows get none).
func (e *encoder) collectUnsat() {
	e.unsat = e.unsat[:0]
	for _, t := range e.rows {
		var u []int
		if !t.satisfied {
			u = t.unsat.Members()
		}
		e.unsat = append(e.unsat, u)
	}
}

// solve generates code column j (the paper's Solve): all bits start at 1
// and bits are flipped greedily — forced while some partial-code class
// exceeds its capacity 2^(nv−j−1) on one side, then by steepest ascent on
// the weighted sum of satisfied seed dichotomies (both flip directions,
// strict improvement) until the column is a local optimum among valid
// columns.
func (e *encoder) solve(j int) (face.Constraint, error) {
	e.collectUnsat()
	col := face.NewConstraint(e.n).Complement() // all ones
	if e.startZero {
		col = face.NewConstraint(e.n)
	}
	classCap := 1
	if rem := e.nv - j - 1; rem < 63 {
		classCap = 1 << uint(rem)
	}
	// Partial-code classes from columns 0..j-1.
	prefix := make([]uint64, e.n)
	mask := uint64(1)<<uint(j) - 1
	for s := 0; s < e.n; s++ {
		prefix[s] = e.enc.Codes[s] & mask
	}
	count := map[uint64][2]int{} // per prefix: symbols on side 0 / side 1
	for s := 0; s < e.n; s++ {
		c := count[prefix[s]]
		if col.Has(s) {
			c[1]++
		} else {
			c[0]++
		}
		count[prefix[s]] = c
	}
	cs := e.newColScorer(col)
	base := cs.cost()
	scans, applied := 1, 0
	maxMoves := 6*e.n + 8
	for move := 0; move < maxMoves; move++ {
		if err := ctxutil.Check(e.runCtx(), "core.column_scan"); err != nil {
			return face.Constraint{}, err
		}
		// Scan per symbol rather than over the count map: the predicate is
		// order-insensitive, but deterministic iteration keeps the whole
		// loop replayable instruction for instruction.
		oversized := false
		for s := 0; s < e.n; s++ {
			c := count[prefix[s]]
			if c[0] > classCap || c[1] > classCap {
				oversized = true
				break
			}
		}
		bestS, bestGain := -1, 0.0
		for s := 0; s < e.n; s++ {
			from := 0
			if col.Has(s) {
				from = 1
			}
			to := 1 - from
			c := count[prefix[s]]
			if oversized && c[from] <= classCap {
				continue // forced moves must relieve an oversized side
			}
			if c[to]+1 > classCap {
				continue // would overfill the target side
			}
			cs.flip(s, from == 0)
			cost := cs.cost()
			scans++
			cs.flip(s, from == 1)
			gain := cost - base
			if bestS < 0 || gain > bestGain {
				bestS, bestGain = s, gain
			}
		}
		if bestS < 0 {
			break // no admissible move (only possible when valid)
		}
		if !oversized && bestGain <= 0 {
			break // local optimum among valid columns
		}
		from := 0
		if col.Has(bestS) {
			from = 1
		}
		flip(col, bestS)
		cs.flip(bestS, from == 0)
		c := count[prefix[bestS]]
		c[from]--
		c[1-from]++
		count[prefix[bestS]] = c
		base += bestGain
		applied++
	}
	mColumnScans.Add(int64(scans))
	e.lastMoves, e.lastCost = applied, base
	return col, nil
}

func flip(col face.Constraint, s int) {
	if col.Has(s) {
		col.Remove(s)
	} else {
		col.Add(s)
	}
}

// colScorer evaluates solve's column cost: the weighted sum of seed
// dichotomies the column would newly satisfy. The weight of a dichotomy
// is its constraint's weight (multiplicity × kind factor) divided by the
// number of its dichotomies still unsatisfied, favoring constraints close
// to fulfillment — and, through the guide rows, the economical
// implementation of infeasible ones.
//
// The evaluation is incremental. Per active row it tracks
// in = |members ∩ col| and u1 = |{s ∈ u : col(s) = 1}|; a candidate bit
// flip touches only the rows of that symbol (memberRows/unsatRows), and
// the cost is re-summed over all rows in row order with exactly the terms
// of the scalar reference in the package tests (columnCost) —
// float-identical, O(1) per row instead of a bitset intersection plus an
// unsatisfied-symbol scan.
type colScorer struct {
	e      *encoder
	in, u1 []int
	cnt    []int
	// Reverse indexes over active rows (unsatisfied with a nonempty
	// dichotomy list; the set is fixed for the duration of one solve).
	memberRows [][]int
	unsatRows  [][]int
}

// newColScorer builds the tracking state for the current column.
func (e *encoder) newColScorer(col face.Constraint) *colScorer {
	cs := &colScorer{
		e:          e,
		in:         make([]int, len(e.rows)),
		u1:         make([]int, len(e.rows)),
		cnt:        make([]int, len(e.rows)),
		memberRows: make([][]int, e.n),
		unsatRows:  make([][]int, e.n),
	}
	for ri, t := range e.rows {
		u := e.unsat[ri]
		if t.satisfied || len(u) == 0 {
			continue
		}
		cs.cnt[ri] = t.members.Count()
		cs.in[ri] = t.members.IntersectCount(col)
		for s := 0; s < e.n; s++ {
			if t.members.Has(s) {
				cs.memberRows[s] = append(cs.memberRows[s], ri)
			}
		}
		for _, s := range u {
			cs.unsatRows[s] = append(cs.unsatRows[s], ri)
			if col.Has(s) {
				cs.u1[ri]++
			}
		}
	}
	return cs
}

// flip records that symbol s's column bit is now set (or now clear).
func (cs *colScorer) flip(s int, nowSet bool) {
	d := 1
	if !nowSet {
		d = -1
	}
	for _, ri := range cs.memberRows[s] {
		cs.in[ri] += d
	}
	for _, ri := range cs.unsatRows[s] {
		cs.u1[ri] += d
	}
}

// cost is the column cost over the tracked counters: columnCost's rows,
// order and float expression per row.
func (cs *colScorer) cost() float64 {
	total := 0.0
	for ri, t := range cs.e.rows {
		u := cs.e.unsat[ri]
		if t.satisfied || len(u) == 0 {
			continue
		}
		var bit int
		switch cs.in[ri] {
		case 0:
			bit = 0
		case cs.cnt[ri]:
			bit = 1
		default:
			continue // members not uniform: no dichotomy satisfied
		}
		newly := cs.u1[ri]
		if bit == 1 {
			newly = len(u) - cs.u1[ri]
		}
		if newly > 0 {
			total += t.weight * float64(newly) / float64(len(u))
		}
	}
	return total
}
