package eval

import (
	"context"
	"sync"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/espresso"
	"picola/internal/exact"
	"picola/internal/face"
)

// scorer is the pooled scratch of one constraint scoring: for espresso
// a slab of cube words backing the n code cubes and reusable ON/OFF
// cover headers; for the exact path the count-only exact minimizer and,
// when the request has no cache key, its ON and used bitsets. On a
// warmed instance, exact scoring allocates nothing — the TestAllocs
// gates enforce that.
type scorer struct {
	words    []uint64
	onCubes  []cube.Cube
	offCubes []cube.Cube
	on, off  cover.Cover
	fn       espresso.Function
	counter  exact.Counter
	bits     []uint64
}

var scorerPool = sync.Pool{New: func() any { return new(scorer) }}

// build populates the pooled code-cube slab and the ON/OFF cover headers
// for one espresso scoring — the same partition ConstraintFunction
// builds (member codes ON, non-member codes OFF, unused codes implicit
// DC) — and returns the interned domain.
//
//picola:hot
func (s *scorer) build(e *face.Encoding, c face.Constraint) *cube.Domain {
	//lint:ignore hotalloc interned domain: allocates only on the first use of a given nv
	d := cube.BinaryInterned(e.NV)
	n := e.N()
	w := d.Words()
	if cap(s.words) < n*w {
		s.words = make([]uint64, n*w)
	}
	s.words = s.words[:n*w]
	s.onCubes = s.onCubes[:0]
	s.offCubes = s.offCubes[:0]
	for sym := 0; sym < n; sym++ {
		cw := cube.Cube(s.words[sym*w : (sym+1)*w : (sym+1)*w])
		for i := range cw {
			cw[i] = 0
		}
		for col := 0; col < e.NV; col++ {
			d.Set(cw, col, e.Bit(sym, col))
		}
		if c.Has(sym) {
			s.onCubes = append(s.onCubes, cw)
		} else {
			s.offCubes = append(s.offCubes, cw)
		}
	}
	s.on = cover.Cover{D: d, Cubes: s.onCubes}
	s.off = cover.Cover{D: d, Cubes: s.offCubes}
	return d
}

// heurCount scores one constraint with the pooled espresso path. dc may
// carry the memoized don't-care cover of the encoding's used-code set
// (nil lets espresso derive it from On/Off as before); espresso clones
// the ON cover and never mutates or retains Off/DC cubes, so the pooled
// slab and a shared DC cover are both safe here.
func (s *scorer) heurCount(ctx context.Context, e *face.Encoding, c face.Constraint, dc *cover.Cover) (int, error) {
	d := s.build(e, c)
	s.fn = espresso.Function{D: d, On: &s.on, Off: &s.off, DC: dc}
	min, err := espresso.MinimizeContext(ctx, &s.fn)
	if err != nil {
		return 0, err
	}
	return min.Len(), nil
}
