package cover

import (
	"slices"
	"sync"

	"picola/internal/cube"
)

// Tautology kernel. Tautology, CoversCube and DropCoveredValues run the
// unate recursion (Rudell and Sangiovanni-Vincentelli, IEEE TCAD 1987)
// over cubes stored as strides of W words (W = the domain's word count)
// in a pooled bump arena: child covers are carved as three-index
// sub-slices instead of materializing a fresh *Cover per cofactor, and
// the field tests are cube's word-parallel ones.
//
// The kernel mirrors one reference recursion decision-for-decision —
// same quick accept, quick reject, splitting variable and value order —
// so the cover.tautology_nodes metric counts identically. That
// recursion, which allocates a cover per cofactor, lives in
// kernel_test.go as the twin the kernel is checked against.
//
// The one-field lemma. The cubes of a cover whose every field is
// non-empty, cofactored by the value cube of value val of variable v
// (the universe with field v restricted to {val}), are kept exactly when
// their field v holds val: every other field of the value cube is full,
// so the intersection is non-empty there already. A kept cube comes out
// with field v full and every other field as it was, so it is again
// non-empty in every field. Hence once every cube in the arena is
// non-empty in every field, each cofactor below needs one bit of field v.
// The entry cofactor keeps the full "every field of the intersection is
// non-empty" test: CoversCube's cofactor by an arbitrary cube c, and
// Tautology's top-level split, whose cover may hold empty cubes; both
// leave only cubes that are non-empty in every field. TestOneFieldLemma
// checks the lemma against Cover.Cofactor. DropCoveredValues
// rests on it too: it takes the entry cofactor by c once per field and
// reaches each value's test from it by one value cofactor.

// tautW is the pooled scratch of one W-word kernel run: a bump arena of
// cofactored cubes, each a stride of W words (W = the domain's word
// count), the per-variable non-full counts of the node being split, and
// the value cube of Tautology's top-level split. Carved child covers are
// never written after creation, so growing the arena during deeper
// recursion is safe.
type tautW struct {
	buf []uint64
	cnt []int
	vc  []uint64
}

var tautWPool = sync.Pool{New: func() any { return new(tautW) }}

// rec is the unate recursion over a cover of W-word strides. It must keep
// the exact decision structure of the reference recursion
// (kernel_test.go). top marks Tautology's top-level node, whose cubes may
// be empty in some field: its split takes the full test, every node below
// the one-field test (see the lemma above).
//
//picola:hot
func (s *tautW) rec(d *cube.Domain, cs []uint64, top bool) bool {
	mTautologyNodes.Inc()
	full := d.FullWords()
	w := len(full)
	for j := 0; j < len(cs); j += w {
		if slices.Equal(cs[j:j+w], full) {
			return true
		}
	}
	if len(cs) == 0 {
		return false
	}
	for i, f := range full {
		var or uint64
		for j := i; j < len(cs); j += w {
			or |= cs[j]
		}
		if or != f {
			return false
		}
	}
	cnt := s.cnt[:d.NumVars()]
	clear(cnt)
	for j := 0; j < len(cs); j += w {
		d.AddNonFull(cnt, cs[j:j+w])
	}
	best, bestN := -1, 0
	for v, n := range cnt {
		if n > bestN {
			best, bestN = v, n
		}
	}
	if best < 0 {
		return true
	}
	// The full field of best goes into the arena ahead of the children,
	// where deeper splits leave it alone.
	base := len(s.buf)
	for range w {
		s.buf = append(s.buf, 0)
	}
	fv := s.buf[base:len(s.buf):len(s.buf)]
	d.SetAll(fv, best)
	ok := true
	for val := 0; ok && val < d.Size(best); val++ {
		lo := len(s.buf)
		if top {
			s.vc = append(s.vc[:0], full...)
			d.Restrict(s.vc, best, val)
			s.cofactorInto(d, cs, s.vc)
		} else {
			s.cofactorValue(cs, d.BitOf(best, val), fv)
		}
		sub := s.buf[lo:len(s.buf):len(s.buf)]
		ok = s.rec(d, sub, false)
		s.buf = s.buf[:lo]
	}
	s.buf = s.buf[:base]
	return ok
}

// cofactorInto appends to the arena the cofactor of the W-word cubes cs by
// the cube p under the full test: the cubes whose intersection with p is
// non-empty in every field, with fields widened by ^p.
//
//picola:hot
func (s *tautW) cofactorInto(d *cube.Domain, cs []uint64, p cube.Cube) {
	full := d.FullWords()
	w := len(full)
	for j := 0; j < len(cs); j += w {
		x := cs[j : j+w]
		if !d.Intersects(x, p) {
			continue
		}
		for i, f := range full {
			s.buf = append(s.buf, (x[i]|^p[i])&f)
		}
	}
}

// cofactorValue appends to the arena the cofactor of the W-word cubes cs,
// each non-empty in every field, by the value at absolute bit position
// bit of the variable whose full field is fv (W words), under the
// one-field lemma: the cubes holding that bit, with the field made full.
//
//picola:hot
func (s *tautW) cofactorValue(cs []uint64, bit int, fv []uint64) {
	w := len(fv)
	word, m := bit/64, uint64(1)<<(bit%64)
	for j := 0; j < len(cs); j += w {
		if cs[j+word]&m == 0 {
			continue
		}
		for i, f := range fv {
			s.buf = append(s.buf, cs[j+i]|f)
		}
	}
}

// reset readies a scratch checked out of the pool for a run over d: the
// arena empty, the count buffer sized for d's variables.
func (s *tautW) reset(d *cube.Domain) {
	s.buf = s.buf[:0]
	if cap(s.cnt) < d.NumVars() {
		s.cnt = make([]int, d.NumVars())
	}
}

// Tautology reports whether the cover covers the entire space: the
// kernel over the cover's cubes, masked to the domain's bits.
//
//picola:hot
func (f *Cover) Tautology() bool {
	s := tautWPool.Get().(*tautW)
	defer tautWPool.Put(s)
	s.reset(f.D)
	full := f.D.FullWords()
	for _, c := range f.Cubes {
		for i, m := range full {
			s.buf = append(s.buf, c[i]&m)
		}
	}
	return s.rec(f.D, s.buf, true)
}

// cofactorCubes appends to the arena the cofactor of the cubes by c
// under the full test: the cubes meeting c in every field, with fields
// widened by ^c.
//
//picola:hot
func (s *tautW) cofactorCubes(d *cube.Domain, cubes []cube.Cube, c cube.Cube) {
	full := d.FullWords()
	for _, k := range cubes {
		if !d.Intersects(k, c) {
			continue
		}
		for i, m := range full {
			s.buf = append(s.buf, (k[i]|^c[i])&m)
		}
	}
}

// CoversCube reports whether the cover covers every minterm of cube c:
// whether its cofactor by c is a tautology. The kernel runs on that
// cofactor, fused so the intermediate cover is never materialized; the
// cofactor by c takes the full test, so the recursion starts below the
// entry.
//
//picola:hot
func (f *Cover) CoversCube(c cube.Cube) bool {
	s := tautWPool.Get().(*tautW)
	defer tautWPool.Put(s)
	s.reset(f.D)
	s.cofactorCubes(f.D, f.Cubes, c)
	return s.rec(f.D, s.buf, false)
}

// DropCoveredValues clears, in value order, each value val of field v of
// c for which the cover covers c restricted to val (field v narrowed to
// {val}), as long as the field keeps two or more values. It answers as
// CoversCube of each restricted cube would, and counts the same
// recursion nodes, but cofactors the cover by c once: a cube survives
// the cofactor by c restricted to val exactly when it meets c and holds
// val, and comes out as its cofactor by c with field v full. Clearing
// values of field v changes neither, and in the cofactor by c a cube's
// field v holds a value of c exactly when the cube does, so one
// cofactor by c serves every value, each answered from it by a value
// cofactor (the one-field lemma). The full field of v goes into the
// arena first, then the entry list.
//
//picola:hot
func (f *Cover) DropCoveredValues(c cube.Cube, v int) {
	s := tautWPool.Get().(*tautW)
	defer tautWPool.Put(s)
	d := f.D
	s.reset(d)
	w := d.Words()
	for range w {
		s.buf = append(s.buf, 0)
	}
	fv := s.buf[:w:w]
	d.SetAll(fv, v)
	s.cofactorCubes(d, f.Cubes, c)
	n := len(s.buf)
	entry := s.buf[w:n:n]
	left := d.PartCount(c, v)
	for val := 0; val < d.Size(v) && left >= 2; val++ {
		if !d.Has(c, v, val) {
			continue
		}
		s.cofactorValue(entry, d.BitOf(v, val), fv)
		if s.rec(d, s.buf[n:len(s.buf):len(s.buf)], false) {
			d.ClearVal(c, v, val)
			left--
		}
		s.buf = s.buf[:n]
	}
}
