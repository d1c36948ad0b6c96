package core

import (
	"math/bits"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/face"
)

// costModel evaluates the cube estimate without allocation: per-constraint
// member/non-member index lists are cached, and the split recursion
// partitions shared scratch arrays in place.
type costModel struct {
	enc     *face.Encoding
	mask    uint64
	words   bool // nv ≤ wordMaxNV: codes index one code-space word
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
	cm := &costModel{enc: enc, mask: enc.Mask(), words: enc.NV <= wordMaxNV}
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
// codes, the espresso-free cost surrogate the polish pass minimizes: 1
// for a satisfied constraint, and otherwise the better of the Theorem I
// count (when the intruders span a cube disjoint from the members) and a
// recursive split: split the members on a disagreeing code column chosen
// to isolate intruders, and sum the halves.
func (cm *costModel) estimate(i int) int {
	cm.evals++
	members := cm.members[i]
	if len(members) == 0 {
		return 0
	}
	m := cm.mbuf[:len(members)]
	agree := cm.mask
	vals := cm.enc.Codes[members[0]] & cm.mask
	var word uint64
	for j, s := range members {
		code := cm.enc.Codes[s] & cm.mask
		m[j] = code
		agree &^= (vals ^ code) & cm.mask
		word |= 1 << code // read at nv ≤ wordMaxNV only
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
	var est int
	if cm.words && popcount(word) == len(m) {
		est = cm.splitWord(word, cm.ibuf[:nIntr], agree)
	} else {
		est = cm.splitPre(m, cm.ibuf[:nIntr], agree, vals)
	}
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

// compact moves the codes of intr inside the face agree/vals to its
// front, in order, and returns them: a side of a split keeps the
// intruder candidates routed to it that its tighter face still holds.
func compact(intr []uint64, agree, vals uint64) []uint64 {
	k := 0
	for _, code := range intr {
		if (code^vals)&agree == 0 {
			intr[k] = code
			k++
		}
	}
	return intr[:k]
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
		total += cm.splitPre(m[:mi], compact(intr[:ii], agL, vaL), agL, vaL)
	} else {
		total++
	}
	if ii < len(intr) && len(m)-mi > 1 {
		total += cm.splitPre(m[mi:], compact(intr[ii:], agR, vaR), agR, vaR)
	} else {
		total++
	}
	return total
}

// wordMaxNV bounds splitWord: at nv ≤ 6 the 2^nv codes index one uint64.
const wordMaxNV = 6

// colZero[c] has bit x set for every code x whose column c is 0.
var colZero = [wordMaxNV]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff,
	0x0000ffff0000ffff,
	0x00000000ffffffff,
}

// splitWord is splitPre at nv ≤ wordMaxNV on distinct member codes,
// carried as one code-space word w (bit x set when a member holds code
// x): a column's member count is popcount(w & colZero[c]), the member
// split two ANDs, and a side's face a test of the parent's free
// columns. It picks splitPre's column and partitions and compacts intr
// exactly as splitPre does, since estimate's Theorem I test reads intr
// afterwards. Two members sharing a code take splitPre.
func (cm *costModel) splitWord(w uint64, intr []uint64, agree uint64) int {
	n := popcount(w)
	if len(intr) == 0 || n == 1 {
		return 1
	}
	free := ^agree & cm.mask
	col, best := 0, 1<<30
	for d := free; d != 0; d &= d - 1 {
		c := bits.TrailingZeros64(d)
		balance := 2*popcount(w&colZero[c]) - n
		if balance < 0 {
			balance = -balance
		}
		if balance < best {
			col, best = c, balance
			if best <= n&1 {
				break
			}
		}
	}
	ii := partition(intr, 1<<uint(col))
	total := cm.wordSide(w&colZero[col], intr[:ii], agree, free)
	return total + cm.wordSide(w&^colZero[col], intr[ii:], agree, free)
}

// wordSide is one side w of splitWord's split: one cube when no
// intruder candidate reaches it or it holds a single member, else the
// split of its face, which agrees with the parent's agree columns and
// with each of the parent's free columns w is uniform on.
func (cm *costModel) wordSide(w uint64, intr []uint64, agree, free uint64) int {
	if len(intr) == 0 || w&(w-1) == 0 {
		return 1
	}
	for ; free != 0; free &= free - 1 {
		c := bits.TrailingZeros64(free)
		if w&colZero[c] == 0 || w&^colZero[c] == 0 {
			agree |= 1 << uint(c)
		}
	}
	vals := uint64(bits.TrailingZeros64(w)) & agree
	return cm.splitWord(w, compact(intr, agree, vals), agree)
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
	intr := e.Intruders(L)
	if len(intr) == 0 {
		return 1, true // satisfied: a single cube
	}
	iSup, ok := intruderFace(e, L, intr)
	if !ok {
		return 0, false
	}
	// dim(super(L)) − dim(super(I)) = |fixed(super(I))| − |fixed(super(L))|.
	return popcount(iSup.Agree) - popcount(e.Supercube(L).Agree), true
}

// intruderFace returns super(I), the supercube of the intruder codes intr
// of L, and whether it holds no member code of L — Theorem I's condition.
func intruderFace(e *face.Encoding, L face.Constraint, intr []int) (face.Face, bool) {
	iSup := e.Supercube(face.FromMembers(L.N(), intr...))
	for _, m := range L.Members() {
		if iSup.Contains(e.Codes[m]) {
			return iSup, false
		}
	}
	return iSup, true
}

// TheoremICover builds the constructive cover of Theorem I over the
// encoding's code space: for each literal of super(I) not in super(L), one
// cube equal to super(I) with that literal complemented and the remaining
// such literals freed. It returns nil, false when the theorem does not
// apply.
func TheoremICover(e *face.Encoding, L face.Constraint) (*cover.Cover, bool) {
	d := cube.BinaryInterned(e.NV)
	sup := e.Supercube(L)
	// setLit fixes column k of c to bit k of v.
	setLit := func(c cube.Cube, k int, v uint64) {
		if v>>uint(k)&1 == 0 {
			d.SetBinLit(c, k, cube.LitZero)
		} else {
			d.SetBinLit(c, k, cube.LitOne)
		}
	}
	// supCube returns super(L) as a cube: its fixed columns set, the rest
	// free.
	supCube := func() cube.Cube {
		c := d.Universe()
		for fixed := sup.Agree; fixed != 0; fixed &= fixed - 1 {
			setLit(c, bits.TrailingZeros64(fixed), sup.Vals)
		}
		return c
	}
	f := cover.New(d)
	intr := e.Intruders(L)
	if len(intr) == 0 {
		// Satisfied constraint: its supercube is the single-cube cover.
		f.Add(supCube())
		return f, true
	}
	iSup, ok := intruderFace(e, L, intr)
	if !ok {
		return nil, false
	}
	// One cube per literal of super(I) exclusive to it: super(L)'s
	// literals, that column complemented from super(I)'s value, and the
	// other exclusive literals free.
	for excl := iSup.Agree &^ sup.Agree; excl != 0; excl &= excl - 1 {
		c := supCube()
		setLit(c, bits.TrailingZeros64(excl), ^iSup.Vals)
		f.Add(c)
	}
	return f, true
}
