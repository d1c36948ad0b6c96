package cube

import "math/bits"

// Word-parallel field tests (see Domain.low). A binary field lying inside
// one word is non-empty when either of its two bits is set, so x|x>>1
// carries that answer to the field's low bit, and one compare against
// low tests every such field of the word at once; x&(x>>1) does the same
// for fullness. A binary field at bit 63 straddles two words and sits in
// odd with the multi-valued fields, which take one mask test each.
// These whole-cube tests (IsEmpty, Intersect, Intersects, Cofactor) are
// the one fast path of every multi-word domain, whatever its width; its
// per-variable operations take the span loops of cube.go. The generic
// span path (Domain.Generic) remains the reference these tests are
// checked against in the package tests.

// meets reports whether every field of a AND b is non-empty, without
// materializing the intersection.
//
//picola:hot
func (d *Domain) meets(a, b Cube) bool {
	for i, low := range d.low {
		x := a[i] & b[i]
		if (x|x>>1)&low != low {
			return false
		}
	}
	for _, v := range d.odd {
		var x uint64
		for _, s := range d.spans[v] {
			x |= a[s.word] & b[s.word] & s.mask
		}
		if x == 0 {
			return false
		}
	}
	return true
}

// cofactorMulti is Cofactor for every multi-word domain.
//
//picola:hot
func (d *Domain) cofactorMulti(dst, c, p Cube) bool {
	if !d.meets(c, p) {
		return false
	}
	for i, f := range d.fullw {
		dst[i] = dst[i]&^f | (c[i]|^p[i])&f
	}
	return true
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
