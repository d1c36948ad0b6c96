package cube

import "math/bits"

// Word-parallel field tests (see Domain.low). A binary field lying inside
// one word is non-empty when either of its two bits is set, so x|x>>1
// carries that answer to the field's low bit, and one compare against
// low tests every such field of the word at once; x&(x>>1) does the same
// for fullness. A binary field at bit 63 straddles two words and sits in
// odd with the multi-valued fields, which take one mask test each. The
// whole-cube operations of cube.go (Intersects, and through it IsEmpty,
// Intersect and Cofactor; FullParts) and the two below run these tests
// at every width.

// DisjointFields returns the number n of fields in which a and b share
// no value and, when n is 1, that field's variable v. The binary fields
// inside each word are tested at once, low&^(x|x>>1) marking the empty
// ones of x = a AND b; every other field takes one mask test.
//
//picola:hot
func (d *Domain) DisjointFields(a, b Cube) (n, v int) {
	for i, low := range d.low {
		x := a[i] & b[i]
		if e := low &^ (x | x>>1); e != 0 {
			n += bits.OnesCount64(e)
			v = d.bitVar[i*64+bits.TrailingZeros64(e)]
		}
	}
	for _, u := range d.odd {
		var x uint64
		for _, s := range d.spans[u] {
			x |= a[s.word] & b[s.word] & s.mask
		}
		if x == 0 {
			n++
			v = u
		}
	}
	return n, v
}

// AddNonFull adds one to cnt[v] for every variable v whose field in c is
// not full — one cube's share of the unate recursion's choice of
// splitting variable. cnt must hold NumVars entries.
//
//picola:hot
func (d *Domain) AddNonFull(cnt []int, c Cube) {
	for i, low := range d.low {
		x := c[i]
		for nf := low &^ (x & (x >> 1)); nf != 0; nf &= nf - 1 {
			cnt[d.bitVar[i*64+bits.TrailingZeros64(nf)]]++
		}
	}
	for _, v := range d.odd {
		if !d.PartFull(c, v) {
			cnt[v]++
		}
	}
}
