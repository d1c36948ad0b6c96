package core

import (
	"math/bits"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/face"
)

// estimateCubes is the espresso-free cost surrogate the polish pass
// minimizes: 1 for a satisfied constraint, and otherwise the better of the
// Theorem I count (when the intruders span a cube disjoint from the
// members) and a recursive-split upper bound: split the members on a
// disagreeing code column chosen to isolate intruders, and sum the halves.
func estimateCubes(enc *face.Encoding, c face.Constraint) int {
	cm := newCostModel(enc, []face.Constraint{c})
	k := cm.estimate(0)
	cm.flush()
	return k
}

// costModel evaluates the cube estimate without allocation: per-constraint
// member/non-member index lists are cached, and the split recursion
// partitions shared scratch arrays in place.
type costModel struct {
	enc     *face.Encoding
	nv      int
	mask    uint64
	members [][]int
	nonmem  [][]int
	mbuf    []uint64 // member codes scratch
	ibuf    []uint64 // intruder-candidate codes scratch
	evals   int      // estimates since the last flush (kept local: the
	// hot loops would pay for a per-call atomic)
}

// flush folds the local estimate count into the metrics registry.
func (cm *costModel) flush() {
	if cm.evals > 0 {
		mEstimates.Add(int64(cm.evals))
		cm.evals = 0
	}
}

func newCostModel(enc *face.Encoding, cons []face.Constraint) *costModel {
	cm := &costModel{enc: enc, nv: enc.NV}
	cm.mask = uint64(1)<<uint(cm.nv) - 1
	if cm.nv == 64 {
		cm.mask = ^uint64(0)
	}
	cm.members = make([][]int, len(cons))
	cm.nonmem = make([][]int, len(cons))
	for i, c := range cons {
		cm.members[i] = c.Members()
		for s := 0; s < c.N(); s++ {
			if !c.Has(s) {
				cm.nonmem[i] = append(cm.nonmem[i], s)
			}
		}
	}
	cm.mbuf = make([]uint64, enc.N())
	cm.ibuf = make([]uint64, enc.N())
	return cm
}

// estimate returns the cube estimate of constraint i under the current
// codes.
func (cm *costModel) estimate(i int) int {
	cm.evals++
	members := cm.members[i]
	if len(members) == 0 {
		return 0
	}
	m := cm.mbuf[:len(members)]
	agree := cm.mask
	vals := cm.enc.Codes[members[0]] & cm.mask
	for j, s := range members {
		code := cm.enc.Codes[s] & cm.mask
		m[j] = code
		agree &^= (vals ^ code) & cm.mask
	}
	vals &= agree
	// Intruder candidates: non-member codes inside the supercube.
	nIntr := 0
	for _, s := range cm.nonmem[i] {
		code := cm.enc.Codes[s] & cm.mask
		if (code^vals)&agree == 0 {
			cm.ibuf[nIntr] = code
			nIntr++
		}
	}
	if nIntr == 0 {
		return 1
	}
	est := cm.splitPre(m, cm.ibuf[:nIntr], agree, vals)
	// Theorem I: when the intruders span a cube containing no member
	// code, dim(super(L)) − dim(super(I)) cubes suffice.
	iAgree := cm.mask
	iVals := cm.ibuf[0]
	for _, code := range cm.ibuf[:nIntr] {
		iAgree &^= (iVals ^ code) & cm.mask
	}
	iVals &= iAgree
	ok := true
	for _, code := range m {
		if (code^iVals)&iAgree == 0 {
			ok = false
			break
		}
	}
	if ok {
		// supDim − iDim = (nv − |agree|) − (nv − |iAgree|).
		k := popcount(iAgree&cm.mask) - popcount(agree&cm.mask)
		if k >= 1 && k < est {
			est = k
		}
	}
	return est
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

// splitHalf recurses into one side of a split: agree/vals describe the
// side's member supercube (computed by the parent during partitioning),
// and intr holds the intruder candidates routed to the side, not yet
// compacted against that tighter supercube.
func (cm *costModel) splitHalf(m, intr []uint64, agree, vals uint64) int {
	k := 0
	for _, code := range intr {
		if (code^vals)&agree == 0 {
			intr[k] = code
			k++
		}
	}
	return cm.splitPre(m, intr[:k], agree, vals)
}

// splitPre bounds the cubes needed to cover the member codes m while
// excluding the intruder codes intr, partitioning both slices in place.
// agree/vals must be m's supercube signature and every intr code must
// lie inside that supercube. estimate calls it directly — it has just
// derived exactly these while filtering intruder candidates, so a
// top-level recompute would be pure rework.
func (cm *costModel) splitPre(m, intr []uint64, agree, vals uint64) int {
	if len(intr) == 0 || len(m) == 1 {
		return 1
	}
	bestCol, bestScore := -1, 1<<30
	// Only the disagreeing in-mask columns can split; TrailingZeros walks
	// them in ascending order, so ties still resolve to the lowest column.
	// |2·m0 − |m|| can never beat |m| mod 2, so the scan stops at the
	// first column reaching that floor.
	opt := len(m) & 1
	for d := ^agree & cm.mask; d != 0; d &= d - 1 {
		bit := d & -d
		m0 := 0
		for _, code := range m {
			if code&bit == 0 {
				m0++
			}
		}
		balance := 2*m0 - len(m)
		if balance < 0 {
			balance = -balance
		}
		// All current intruders stay candidates on one side or the other;
		// prefer balanced splits, then low columns for determinism.
		if balance < bestScore {
			bestScore, bestCol = balance, bits.TrailingZeros64(bit)
			if bestScore <= opt {
				break
			}
		}
	}
	if bestCol < 0 {
		return len(m)
	}
	bit := uint64(1) << uint(bestCol)
	// Partition the members by the chosen column, folding each side's
	// supercube signature into the same pass so the children never
	// rescan their members.
	mi := 0
	var agL, vaL, agR, vaR uint64
	for j, x := range m {
		if x&bit == 0 {
			if mi == 0 {
				agL, vaL = cm.mask, x
			} else {
				agL &^= vaL ^ x
			}
			m[mi], m[j] = x, m[mi]
			mi++
		} else if agR == 0 && vaR == 0 {
			agR, vaR = cm.mask, x
		} else {
			agR &^= vaR ^ x
		}
	}
	vaL &= agL
	vaR &= agR
	ii := partition(intr, bit)
	// bestCol disagrees among the members, so both sides are non-empty.
	// A side with no intruder candidates, or a single member (whose
	// supercube is one point no distinct code can intrude on), is one
	// cube — skip the child call outright.
	total := 0
	if ii > 0 && mi > 1 {
		total += cm.splitHalf(m[:mi], intr[:ii], agL, vaL)
	} else {
		total++
	}
	if ii < len(intr) && len(m)-mi > 1 {
		total += cm.splitHalf(m[mi:], intr[ii:], agR, vaR)
	} else {
		total++
	}
	return total
}

// partition reorders xs so codes with the bit clear come first, returning
// the boundary index.
func partition(xs []uint64, bit uint64) int {
	i := 0
	for j, x := range xs {
		if x&bit == 0 {
			xs[i], xs[j] = xs[j], xs[i]
			i++
		}
	}
	return i
}

// TheoremI applies the paper's Theorem I to a violated constraint under a
// complete encoding: when the intruder codes' supercube contains no member
// code, the constraint is implementable with
// dim(super(L)) − dim(super(I)) product terms. It returns that count and
// whether the theorem applies.
func TheoremI(e *face.Encoding, L face.Constraint) (int, bool) {
	sup, supDim := supercubeOf(e, L)
	intr := e.Intruders(L)
	if len(intr) == 0 {
		return 1, true // satisfied: a single cube
	}
	iSet := face.FromMembers(L.N(), intr...)
	iSup, iDim := supercubeOf(e, iSet)
	// The theorem needs the intruder cube disjoint from every member code.
	for _, m := range L.Members() {
		if codeInside(e, m, iSup) {
			return 0, false
		}
	}
	_ = sup
	return supDim - iDim, true
}

// TheoremICover builds the constructive cover of Theorem I over the
// encoding's code space: for each literal of super(I) not in super(L), one
// cube equal to super(I) with that literal complemented and the remaining
// such literals freed. It returns nil, false when the theorem does not
// apply.
func TheoremICover(e *face.Encoding, L face.Constraint) (*cover.Cover, bool) {
	d := cube.BinaryInterned(e.NV)
	intr := e.Intruders(L)
	if len(intr) == 0 {
		// Satisfied constraint: its supercube is the single-cube cover.
		sup, _ := supercubeOf(e, L)
		f := cover.New(d)
		f.Add(maskedCube(d, e.NV, sup))
		return f, true
	}
	iSet := face.FromMembers(L.N(), intr...)
	iSup, _ := supercubeOf(e, iSet)
	for _, m := range L.Members() {
		if codeInside(e, m, iSup) {
			return nil, false
		}
	}
	lSup, _ := supercubeOf(e, L)
	f := cover.New(d)
	for col := 0; col < e.NV; col++ {
		if !iSup.fixed(col) || lSup.fixed(col) {
			continue // not a literal of super(I) exclusive to it
		}
		c := d.Universe()
		// Keep super(I)'s other literals that are also in super(L); set
		// this column to the complement of super(I)'s value; free the
		// remaining exclusive literals.
		for k := 0; k < e.NV; k++ {
			switch {
			case k == col:
				if iSup.val(k) == 0 {
					d.SetBinLit(c, k, cube.LitOne)
				} else {
					d.SetBinLit(c, k, cube.LitZero)
				}
			case lSup.fixed(k):
				if lSup.val(k) == 0 {
					d.SetBinLit(c, k, cube.LitZero)
				} else {
					d.SetBinLit(c, k, cube.LitOne)
				}
			}
		}
		f.Add(c)
	}
	return f, true
}

// bcube is a binary supercube summary: per column, fixed value or free.
type bcube struct {
	agree uint64 // bit set: column fixed
	vals  uint64 // fixed value per column
}

func (b bcube) fixed(col int) bool { return b.agree>>uint(col)&1 == 1 }
func (b bcube) val(col int) int    { return int(b.vals >> uint(col) & 1) }

// supercubeOf computes the supercube of the codes of set's members and its
// dimension (number of free columns).
func supercubeOf(e *face.Encoding, set face.Constraint) (bcube, int) {
	var b bcube
	members := set.Members()
	if len(members) == 0 {
		return b, 0
	}
	mask := uint64(1)<<uint(e.NV) - 1
	if e.NV == 64 {
		mask = ^uint64(0)
	}
	b.agree = mask
	b.vals = e.Codes[members[0]] & mask
	for _, m := range members[1:] {
		b.agree &^= (b.vals ^ e.Codes[m]) & mask
	}
	b.vals &= b.agree
	return b, e.NV - bits.OnesCount64(b.agree)
}

// codeInside reports whether symbol sym's code lies in the supercube b.
func codeInside(e *face.Encoding, sym int, b bcube) bool {
	return wordInside(e.Codes[sym], b)
}

// wordInside is codeInside on a raw code word: the exact-polish carry uses
// it to test codes a symbol is moving between, not just codes it holds.
func wordInside(w uint64, b bcube) bool {
	return (w^b.vals)&b.agree == 0
}

// maskedCube converts a bcube to a cube.Cube over a binary domain.
func maskedCube(d *cube.Domain, nv int, b bcube) cube.Cube {
	c := d.Universe()
	for col := 0; col < nv; col++ {
		if b.fixed(col) {
			if b.val(col) == 0 {
				d.SetBinLit(c, col, cube.LitZero)
			} else {
				d.SetBinLit(c, col, cube.LitOne)
			}
		}
	}
	return c
}
