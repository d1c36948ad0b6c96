package cube

import "math/bits"

// Two- and three-word cube kernels. Domains of 65..128 and 129..192 bits —
// the symbolic multi-output covers whose machines carry more inputs and
// products than one word holds — select these at construction the same way
// the single-word tier does. Every per-variable operation is a fixed-width
// word expression over the precomputed per-variable masks: no span loop,
// no slice of word/mask pairs, just two or three fully unrolled words per
// field test. A variable whose field straddles a word boundary is handled
// by the same expressions — its mask simply has non-zero parts in more
// than one word. The whole-cube emptiness tests (IsEmpty, Intersect,
// Intersects, Cofactor) take the word-parallel path of wide.go instead,
// as every multi-word domain does. The generic span path
// (Domain.Generic) remains the reference oracle these kernels are checked
// against in the package tests.

// --- two-word kernels ---

//picola:hot
func (d *Domain) fullParts2(c Cube) int {
	c0, c1 := c[0], c[1]
	n := 0
	for _, m := range d.vmask2 {
		if c0&m[0] == m[0] && c1&m[1] == m[1] {
			n++
		}
	}
	return n
}

//picola:hot
func (d *Domain) partEmpty2(c Cube, v int) bool {
	m := &d.vmask2[v]
	return c[0]&m[0]|c[1]&m[1] == 0
}

//picola:hot
func (d *Domain) partFull2(c Cube, v int) bool {
	m := &d.vmask2[v]
	return c[0]&m[0] == m[0] && c[1]&m[1] == m[1]
}

//picola:hot
func (d *Domain) partCount2(c Cube, v int) int {
	m := &d.vmask2[v]
	return bits.OnesCount64(c[0]&m[0]) + bits.OnesCount64(c[1]&m[1])
}

// --- three-word kernels ---

//picola:hot
func (d *Domain) fullParts3(c Cube) int {
	c0, c1, c2 := c[0], c[1], c[2]
	n := 0
	for _, m := range d.vmask3 {
		if c0&m[0] == m[0] && c1&m[1] == m[1] && c2&m[2] == m[2] {
			n++
		}
	}
	return n
}

//picola:hot
func (d *Domain) partEmpty3(c Cube, v int) bool {
	m := &d.vmask3[v]
	return c[0]&m[0]|c[1]&m[1]|c[2]&m[2] == 0
}

//picola:hot
func (d *Domain) partFull3(c Cube, v int) bool {
	m := &d.vmask3[v]
	return c[0]&m[0] == m[0] && c[1]&m[1] == m[1] && c[2]&m[2] == m[2]
}

//picola:hot
func (d *Domain) partCount3(c Cube, v int) int {
	m := &d.vmask3[v]
	return bits.OnesCount64(c[0]&m[0]) + bits.OnesCount64(c[1]&m[1]) +
		bits.OnesCount64(c[2]&m[2])
}
