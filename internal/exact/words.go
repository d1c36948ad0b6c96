package exact

import (
	"math/bits"
	"slices"
)

// WordsMaxInputs bounds the one-word functions: at nv ≤ 6 the 2^nv
// minterms of a single-output function fit one uint64, so every
// implicant set is one machine word.
const WordsMaxInputs = 6

// wordsNodeBudget bounds the word search's branch and bound. An
// exhausted search falls back to Minimize over the same function, so
// the budget can cost time but never change a count.
const wordsNodeBudget = 100_000

// halfMask[i] selects the minterm positions whose bit i is 0: the base
// halves of the one-larger cubes that free variable i.
var halfMask = [WordsMaxInputs]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff,
	0x0000ffff0000ffff,
	0x00000000ffffffff,
}

// subcube[D] has bit s set for every s ⊆ D: the minterms of the cube
// with base 0 and don't-care set D. Shifting it left by a base x with
// x&D == 0 gives the minterms of the cube (x, D).
var subcube = func() (t [1 << WordsMaxInputs]uint64) {
	t[0] = 1
	for d := 1; d < len(t); d++ {
		i := bits.TrailingZeros(uint(d))
		p := t[d&^(1<<i)]
		t[d] = p | p<<(1<<i)
	}
	return t
}()

// searchWords is the word search at nv ≤ WordsMaxInputs, where the
// function is one word: primes by shifting implicant words, each kept as
// a column over the ON minterms it covers. It reports false when the
// branch and bound ran out of budget before proving its incumbent
// minimal.
//
//picola:hot
func (ct *Counter) searchWords(nv int, on, used uint64, budget int) (int, bool) {
	full := ^uint64(0)
	if nv < WordsMaxInputs {
		full = 1<<(uint(1)<<uint(nv)) - 1
	}
	on &= full
	if on == 0 {
		return 0, true
	}

	// imp[D] marks the bases x of the implicants (x, D): I_∅ is every
	// minterm that is not OFF, and I_{D∪{i}} keeps the bases with bit i
	// clear whose upper half (x | 1<<i, D) is an implicant too.
	nd := 1 << uint(nv)
	imp := &ct.imp
	imp[0] = (on | ^used) & full
	for d := 1; d < nd; d++ {
		i := bits.TrailingZeros(uint(d))
		p := imp[d&^(1<<i)]
		imp[d] = p & (p >> (uint(1) << uint(i))) & halfMask[i]
	}

	// Primes at D are the implicants that neither half of any one-larger
	// implicant contains. Only their ON minterms matter to the cover, so
	// each becomes a column mask; a prime covering no ON minterm is no
	// column at all.
	ct.wcols = ct.wcols[:0]
	for d := 0; d < nd; d++ {
		p := imp[d]
		if p == 0 {
			continue
		}
		for i := 0; i < nv; i++ {
			if d&(1<<i) == 0 {
				up := imp[d|1<<i]
				p &^= up | up<<(uint(1)<<uint(i))
			}
		}
		for sub := subcube[d]; p != 0; p &= p - 1 {
			if c := sub << uint(bits.TrailingZeros64(p)) & on; c != 0 {
				ct.wcols = append(ct.wcols, c)
			}
		}
	}
	return ct.coverWords(on, budget)
}

// searchWide is the word search above WordsMaxInputs, where a bitset
// spans 2^nv/64 words: the implicant sets are computed as at nv ≤ 6, a
// shift by 2^i ≥ 64 moving whole words, and bit j of a column is the
// ON minterm ct.ons[j]. It reports false when the function has more
// than 64 ON minterms or the branch and bound ran out of budget.
//
//picola:hot
func (ct *Counter) searchWide(nv int, on, used []uint64, budget int) (int, bool) {
	nw := 1 << uint(nv-WordsMaxInputs)
	k := 0
	for w := 0; w < nw; w++ {
		for b := on[w]; b != 0; b &= b - 1 {
			if k == len(ct.ons) {
				return 0, false
			}
			ct.ons[k] = uint16(w<<6 | bits.TrailingZeros64(b))
			k++
		}
	}
	if k == 0 {
		return 0, true
	}

	// Words D·nw to D·nw+nw of imp are I_D. Only the bits of bases x
	// with x&D == 0 are ever read, and they depend only on such bits of
	// the row they derive from, so the other bits need no masking.
	nd := 1 << uint(nv)
	if cap(ct.wimp) < nd*nw {
		ct.wimp = make([]uint64, nd*nw)
	}
	imp := ct.wimp[:nd*nw]
	for w := 0; w < nw; w++ {
		imp[w] = on[w] | ^used[w]
	}
	for d := 1; d < nd; d++ {
		i := bits.TrailingZeros(uint(d))
		p, q := imp[(d&^(1<<i))*nw:][:nw], imp[d*nw:][:nw]
		for w := range q {
			if i < WordsMaxInputs {
				q[w] = p[w] & (p[w] >> (uint(1) << uint(i)))
			} else {
				q[w] = p[w] & p[w|1<<uint(i-WordsMaxInputs)]
			}
		}
	}

	// At each D the ON minterms fall into the cubes (ons[j] &^ D, D).
	// Those whose cube is an implicant are grouped by base, and each
	// group whose cube no one-larger implicant contains is a prime's
	// column.
	all := ^uint64(0) >> uint(64-k)
	ct.wcols = ct.wcols[:0]
	for d := 0; d < nd; d++ {
		var live uint64
		for r := all; r != 0; r &= r - 1 {
			if j := bits.TrailingZeros64(r); bitAt(imp, d<<uint(nv)|int(ct.ons[j])&^d) {
				live |= 1 << uint(j)
			}
		}
		for live != 0 {
			base := int(ct.ons[bits.TrailingZeros64(live)]) &^ d
			var c uint64
			for r := live; r != 0; r &= r - 1 {
				if j := bits.TrailingZeros64(r); int(ct.ons[j])&^d == base {
					c |= 1 << uint(j)
				}
			}
			live &^= c
			prime := true
			for i := 0; i < nv && prime; i++ {
				b := 1 << uint(i)
				prime = d&b != 0 || !bitAt(imp, (d|b)<<uint(nv)|base&^b)
			}
			if prime {
				ct.wcols = append(ct.wcols, c)
			}
		}
	}
	// Many primes share one ON mask here (most of a sparse function is
	// don't-care); one copy of each serves the cover.
	slices.Sort(ct.wcols)
	ct.wcols = slices.Compact(ct.wcols)
	return ct.coverWords(all, budget)
}

// bitAt reports bit x of the bitset s: for the wide implicant bitset,
// whether the cube (x mod 2^nv, x >> nv) is an implicant.
//
//picola:hot
func bitAt(s []uint64, x int) bool { return s[x>>6]>>(uint(x)&63)&1 == 1 }

// coverWords returns the size of a minimum cover of the minterm mask u
// by the columns in ct.wcols: essential columns, then a greedy
// incumbent and a branch and bound over the rest. It reports false when
// the branch and bound ran out of budget before proving its incumbent
// minimal.
//
//picola:hot
func (ct *Counter) coverWords(u uint64, budget int) (int, bool) {
	// Essential primes: the only column over some ON minterm.
	var once, twice uint64
	for _, c := range ct.wcols {
		twice |= once & c
		once |= c
	}
	ess := once &^ twice
	n := 0
	for _, c := range ct.wcols {
		if c&ess != 0 {
			n++
			u &^= c
		}
	}
	if u == 0 {
		return n, true
	}

	// The residual problem: the columns restricted to the minterms the
	// essentials left uncovered.
	ct.wstack = ct.wstack[:0]
	for _, c := range ct.wcols {
		if g := c & u; g != 0 {
			ct.wstack = append(ct.wstack, g)
		}
	}
	cols := ct.wstack[:len(ct.wstack):len(ct.wstack)]
	ct.wbest = greedyWords(cols, u)
	ct.wnodes, ct.wbudget = 0, budget
	ct.branchWords(cols, u, 0)
	return n + ct.wbest, ct.wnodes <= ct.wbudget
}

// greedyWords returns the size of the cover built by repeatedly taking
// the column over the most uncovered minterms.
//
//picola:hot
func greedyWords(cols []uint64, u uint64) int {
	k := 0
	for u != 0 {
		var best uint64
		bestGain := 0
		for _, c := range cols {
			if g := bits.OnesCount64(c & u); g > bestGain {
				best, bestGain = c, g
			}
		}
		u &^= best
		k++
	}
	return k
}

// branchWords is one node of the branch and bound: cols, each restricted
// to the uncovered minterms u, are the columns still allowed, and depth
// columns are already chosen. It lowers ct.wbest to any smaller cover it
// finds. A node branches on an uncovered minterm that one column covers,
// else one that two columns cover, else the lowest; it branches once per
// column over that minterm, and the i-th branch excludes the columns
// before it, whose covers the earlier branches already explored.
//
//picola:hot
func (ct *Counter) branchWords(cols []uint64, u uint64, depth int) {
	ct.wnodes++
	if ct.wnodes > ct.wbudget {
		return
	}
	var once, twice, thrice uint64
	for _, c := range cols {
		thrice |= twice & c
		twice |= once & c
		once |= c
	}
	if once != u {
		return // an uncovered minterm no allowed column covers
	}
	var m uint64
	switch {
	case once&^twice != 0:
		m = once &^ twice
	case twice&^thrice != 0:
		m = twice &^ thrice
	default:
		m = u
	}
	m &= -m
	if depth+indepBound(cols, u, once&^twice, twice&^thrice) >= ct.wbest {
		return
	}
	base := len(ct.wstack)
	for i, c := range cols {
		if c&m == 0 {
			continue
		}
		nu := u &^ c
		if nu == 0 {
			ct.wbest = depth + 1 // the bound above proved depth+1 < wbest
			return
		}
		for j, cj := range cols {
			if cj&m != 0 && j <= i {
				continue
			}
			if g := cj & nu; g != 0 {
				ct.wstack = append(ct.wstack, g)
			}
		}
		top := len(ct.wstack)
		ct.branchWords(ct.wstack[base:top:top], nu, depth+1)
		ct.wstack = ct.wstack[:base]
		if ct.wnodes > ct.wbudget {
			return
		}
	}
}

// indepBound returns a lower bound on the columns any cover of u needs:
// the size of a set of uncovered minterms no column covers two of,
// picked greedily, minterms in fewer columns first (the forced class c1,
// then the two-column class c2, then the rest).
//
//picola:hot
func indepBound(cols []uint64, u, c1, c2 uint64) int {
	k := 0
	for r := u; r != 0; {
		var m uint64
		switch {
		case r&c1 != 0:
			m = r & c1
		case r&c2 != 0:
			m = r & c2
		default:
			m = r
		}
		m &= -m
		r &^= m
		for _, c := range cols {
			if c&m != 0 {
				r &^= c
			}
		}
		k++
	}
	return k
}
