package cube

import "math/bits"

// Two- and three-word cube kernels. Domains of 65..128 and 129..192 bits —
// the symbolic multi-output covers whose machines carry more inputs and
// products than one word holds — select these at construction the same way
// the single-word tier does. Every operation is a fixed-width word
// expression over the precomputed per-variable masks: no span loop, no
// slice of word/mask pairs, just two or three fully unrolled words per
// field test. A variable whose field straddles a word boundary is handled
// by the same expressions — its mask simply has non-zero parts in more
// than one word. The generic span path (Domain.Generic) remains the
// reference oracle these kernels are checked against in the package tests.

// --- two-word kernels ---

//picola:hot
func (d *Domain) isEmpty2(c Cube) bool {
	c0, c1 := c[0], c[1]
	for _, m := range d.vmask2 {
		if c0&m[0]|c1&m[1] == 0 {
			return true
		}
	}
	return false
}

//picola:hot
func (d *Domain) intersect2(dst, a, b Cube) bool {
	x0, x1 := a[0]&b[0], a[1]&b[1]
	dst[0], dst[1] = x0, x1
	for _, m := range d.vmask2 {
		if x0&m[0]|x1&m[1] == 0 {
			return false
		}
	}
	return true
}

//picola:hot
func (d *Domain) intersects2(a, b Cube) bool {
	x0, x1 := a[0]&b[0], a[1]&b[1]
	for _, m := range d.vmask2 {
		if x0&m[0]|x1&m[1] == 0 {
			return false
		}
	}
	return true
}

//picola:hot
func (d *Domain) cofactor2(dst, c, p Cube) bool {
	x0, x1 := c[0]&p[0], c[1]&p[1]
	for _, m := range d.vmask2 {
		if x0&m[0]|x1&m[1] == 0 {
			return false
		}
	}
	r0 := (c[0] | ^p[0]) & d.full2[0]
	r1 := (c[1] | ^p[1]) & d.full2[1]
	dst[0] = dst[0]&^d.full2[0] | r0
	dst[1] = dst[1]&^d.full2[1] | r1
	return true
}

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
func (d *Domain) isEmpty3(c Cube) bool {
	c0, c1, c2 := c[0], c[1], c[2]
	for _, m := range d.vmask3 {
		if c0&m[0]|c1&m[1]|c2&m[2] == 0 {
			return true
		}
	}
	return false
}

//picola:hot
func (d *Domain) intersect3(dst, a, b Cube) bool {
	x0, x1, x2 := a[0]&b[0], a[1]&b[1], a[2]&b[2]
	dst[0], dst[1], dst[2] = x0, x1, x2
	for _, m := range d.vmask3 {
		if x0&m[0]|x1&m[1]|x2&m[2] == 0 {
			return false
		}
	}
	return true
}

//picola:hot
func (d *Domain) intersects3(a, b Cube) bool {
	x0, x1, x2 := a[0]&b[0], a[1]&b[1], a[2]&b[2]
	for _, m := range d.vmask3 {
		if x0&m[0]|x1&m[1]|x2&m[2] == 0 {
			return false
		}
	}
	return true
}

//picola:hot
func (d *Domain) cofactor3(dst, c, p Cube) bool {
	x0, x1, x2 := c[0]&p[0], c[1]&p[1], c[2]&p[2]
	for _, m := range d.vmask3 {
		if x0&m[0]|x1&m[1]|x2&m[2] == 0 {
			return false
		}
	}
	r0 := (c[0] | ^p[0]) & d.full3[0]
	r1 := (c[1] | ^p[1]) & d.full3[1]
	r2 := (c[2] | ^p[2]) & d.full3[2]
	dst[0] = dst[0]&^d.full3[0] | r0
	dst[1] = dst[1]&^d.full3[1] | r1
	dst[2] = dst[2]&^d.full3[2] | r2
	return true
}

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
