package cover

import (
	"slices"
	"sync"

	"picola/internal/cube"
)

// Tautology kernels. Tautology and CoversCube run the unate recursion
// (Rudell and Sangiovanni-Vincentelli, IEEE TCAD 1987) over cubes stored
// as plain words in a pooled bump arena: child covers are carved as
// three-index sub-slices instead of materializing a fresh *Cover per
// cofactor. Two kernels share that shape, chosen by the domain's word
// count: taut1 for single-word domains (the encoder's code spaces always
// are: nv <= 8 bits), where a cube is one uint64 tested against the
// per-variable masks, and tautW for every wider domain (the symbolic
// covers of the larger machines), where a cube is a stride of W words
// and the field tests are cube's word-parallel ones. taut1 stays because
// tautW, run at one word, is the slower of the two: 139–152 against
// 101–109 ns per CoversCube in BenchmarkCoversCubeOneWord (2-vCPU Xeon
// VM, Go 1.24).
//
// Both mirror one reference recursion decision-for-decision — same quick
// accept, quick reject, splitting variable and value order — so the
// cover.tautology_nodes metric counts identically. That recursion, which
// allocates a cover per cofactor, lives in kernel_test.go as the twin the
// kernels are checked against.
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
// checks the lemma against the generic Cofactor. DropCoveredValues
// (cover.go) rests on it too: it takes the entry cofactor by c once per
// field and reaches each value's test from it by one value cofactor.

// taut1 is the pooled scratch of one kernel run: a bump arena of cofactored
// cover words. Child covers are carved as sub-slices; reallocation during
// deeper recursion is safe because carved slices are never written after
// creation.
type taut1 struct {
	buf []uint64
}

var taut1Pool = sync.Pool{New: func() any { return new(taut1) }}

// rec is the unate recursion over a single-word cover. It must keep the
// exact decision structure of the reference recursion (kernel_test.go).
//
//picola:hot
func (s *taut1) rec(d *cube.Domain, cs []uint64) bool {
	mTautologyNodes.Inc()
	full := d.FullWords()[0]
	for _, w := range cs {
		if w&full == full {
			return true
		}
	}
	if len(cs) == 0 {
		return false
	}
	var or uint64
	for _, w := range cs {
		or |= w
	}
	vmask := d.VarMasks()
	for _, m := range vmask {
		if or&m != m {
			return false
		}
	}
	best, bestN := -1, 0
	for v, m := range vmask {
		n := 0
		for _, w := range cs {
			if w&m != m {
				n++
			}
		}
		if n > bestN {
			best, bestN = v, n
		}
	}
	if best < 0 {
		return true
	}
	bm := vmask[best]
	for val := 0; val < d.Size(best); val++ {
		vcw := (full &^ bm) | 1<<uint(d.BitOf(best, val))
		lo := len(s.buf)
		s.cofactorInto(d, cs, vcw)
		sub := s.buf[lo:len(s.buf):len(s.buf)]
		ok := s.rec(d, sub)
		s.buf = s.buf[:lo]
		if !ok {
			return false
		}
	}
	return true
}

// cofactorInto appends to the arena the cofactor of each cover word by the
// cube word p: words intersecting p, with fields widened by ^p.
//
//picola:hot
func (s *taut1) cofactorInto(d *cube.Domain, cs []uint64, p uint64) {
	full := d.FullWords()[0]
	vmask := d.VarMasks()
outer:
	for _, w := range cs {
		x := w & p
		for _, m := range vmask {
			if x&m == 0 {
				continue outer
			}
		}
		s.buf = append(s.buf, (w|^p)&full)
	}
}

// tautology1 runs the kernel over the cover's cubes.
//
//picola:hot
func (f *Cover) tautology1() bool {
	s := taut1Pool.Get().(*taut1)
	defer taut1Pool.Put(s)
	s.buf = s.buf[:0]
	full := f.D.FullWords()[0]
	for _, c := range f.Cubes {
		s.buf = append(s.buf, c[0]&full)
	}
	return s.rec(f.D, s.buf)
}

// cofactorCubes appends to the arena the cofactor of the cubes by the
// cube word p under the full test: the cubes whose intersection with p
// is non-empty in every field, with fields widened by ^p.
//
//picola:hot
func (s *taut1) cofactorCubes(d *cube.Domain, cubes []cube.Cube, p uint64) {
	full := d.FullWords()[0]
	vmask := d.VarMasks()
outer:
	for _, k := range cubes {
		x := k[0] & p
		for _, m := range vmask {
			if x&m == 0 {
				continue outer
			}
		}
		s.buf = append(s.buf, (k[0]|^p)&full)
	}
}

// coversCube1 runs the kernel on the cover cofactored by c, fused so the
// intermediate cover is never materialized.
//
//picola:hot
func (f *Cover) coversCube1(c cube.Cube) bool {
	s := taut1Pool.Get().(*taut1)
	defer taut1Pool.Put(s)
	s.buf = s.buf[:0]
	s.cofactorCubes(f.D, f.Cubes, c[0])
	return s.rec(f.D, s.buf)
}

// dropCoveredValues1 is DropCoveredValues on a single-word domain. A
// value cofactor of the entry list is one word per cube, so it takes
// cofactorInto's full test by the value cube.
//
//picola:hot
func (f *Cover) dropCoveredValues1(c cube.Cube, v int) {
	s := taut1Pool.Get().(*taut1)
	defer taut1Pool.Put(s)
	s.buf = s.buf[:0]
	d := f.D
	s.cofactorCubes(d, f.Cubes, c[0])
	n := len(s.buf)
	entry := s.buf[:n:n]
	others := d.FullWords()[0] &^ d.VarMasks()[v] // a value cube less its bit
	left := d.PartCount(c, v)
	for val := 0; val < d.Size(v) && left >= 2; val++ {
		bit := uint64(1) << uint(d.BitOf(v, val))
		if c[0]&bit == 0 {
			continue
		}
		s.cofactorInto(d, entry, others|bit)
		if s.rec(d, s.buf[n:len(s.buf):len(s.buf)]) {
			c[0] &^= bit
			left--
		}
		s.buf = s.buf[:n]
	}
}

// tautW is the pooled scratch of one W-word kernel run: a bump arena of
// cofactored cubes, each a stride of W words (W = the domain's word
// count), the per-variable non-full counts of the node being split, and
// the value cube of Tautology's top-level split. As in taut1, carved
// child covers are never written after creation, so growing the arena
// during deeper recursion is safe.
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

// tautologyW runs the W-word kernel over the cover's cubes, masked to the
// domain's bits.
//
//picola:hot
func (f *Cover) tautologyW() bool {
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

// coversCubeW runs the W-word kernel on the cover cofactored by c, fused
// so the intermediate cover is never materialized. The cofactor by c
// takes the full test, so the recursion starts below the entry.
//
//picola:hot
func (f *Cover) coversCubeW(c cube.Cube) bool {
	s := tautWPool.Get().(*tautW)
	defer tautWPool.Put(s)
	s.reset(f.D)
	s.cofactorCubes(f.D, f.Cubes, c)
	return s.rec(f.D, s.buf, false)
}

// dropCoveredValuesW is DropCoveredValues on a domain of two or more
// words. The full field of v goes into the arena first, then the entry
// list; each value cofactor of it tests one bit (cofactorValue).
//
//picola:hot
func (f *Cover) dropCoveredValuesW(c cube.Cube, v int) {
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
