// Package cover implements operations on covers — sets of multi-valued
// cubes interpreted as a union of cube sets (a sum-of-products form).
//
// The package provides the classical unate-recursive-paradigm operations
// (tautology, complement), the sharp operation, single-cube containment,
// and cover-containment tests. These are the substrate for the espresso
// minimizer and for evaluating the cost of encoded face constraints.
package cover

import (
	"sort"
	"strings"

	"picola/internal/cube"
	"picola/internal/obs"
)

// URP metrics: tautology node visits count the recursion (a URP workload
// measure), the others count entry-point calls.
var (
	mTautologyNodes = obs.Default.Counter("cover.tautology_nodes")
	mComplements    = obs.Default.Counter("cover.complements")
)

// Cover is a set of cubes over a common domain. The cube slice is owned by
// the cover; callers must Clone before mutating shared cubes.
type Cover struct {
	D     *cube.Domain
	Cubes []cube.Cube
}

// New returns an empty cover over d.
func New(d *cube.Domain) *Cover { return &Cover{D: d} }

// FromStrings builds a cover by parsing each string in the domain's cube
// syntax. It panics on parse errors; intended for tests and fixtures.
//
//lint:ignore deadexport fixture builder of the bdd, core, espresso and exact tests
func FromStrings(d *cube.Domain, rows ...string) *Cover {
	c := New(d)
	for _, r := range rows {
		c.Cubes = append(c.Cubes, d.MustParse(r))
	}
	return c
}

// Add appends a cube to the cover. The cube is not copied.
func (f *Cover) Add(c cube.Cube) { f.Cubes = append(f.Cubes, c) }

// Len returns the number of cubes.
func (f *Cover) Len() int { return len(f.Cubes) }

// Clone returns a deep copy of the cover.
func (f *Cover) Clone() *Cover {
	g := New(f.D)
	g.Cubes = make([]cube.Cube, len(f.Cubes))
	for i, c := range f.Cubes {
		g.Cubes[i] = c.Clone()
	}
	return g
}

// Literals returns the total literal count over all cubes (the number of
// non-full variable fields), a standard secondary cost measure.
func (f *Cover) Literals() int {
	n := 0
	for _, c := range f.Cubes {
		n += f.D.Literals(c)
	}
	return n
}

// String renders the cover one cube per line, in a stable (sorted) order.
func (f *Cover) String() string {
	rows := make([]string, len(f.Cubes))
	for i, c := range f.Cubes {
		rows[i] = f.D.String(c)
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// dropEmpty removes empty cubes in place.
func (f *Cover) dropEmpty() {
	out := f.Cubes[:0]
	for _, c := range f.Cubes {
		if !f.D.IsEmpty(c) {
			out = append(out, c)
		}
	}
	f.Cubes = out
}

// SCC performs single-cube containment: it removes every cube contained in
// another cube of the cover (and all empty cubes). Duplicates keep one copy.
func (f *Cover) SCC() {
	f.dropEmpty()
	d := f.D
	// Sort by descending set-bit count so containers come first.
	sort.SliceStable(f.Cubes, func(i, j int) bool {
		return cube.SetBits(f.Cubes[i]) > cube.SetBits(f.Cubes[j])
	})
	kept := f.Cubes[:0]
	for _, c := range f.Cubes {
		contained := false
		for _, k := range kept {
			if d.Contains(k, c) {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, c)
		}
	}
	f.Cubes = kept
}

// Cofactor returns the cofactor of the cover with respect to cube p: each
// cube that intersects p, cofactored by p. The result is a fresh cover.
func (f *Cover) Cofactor(p cube.Cube) *Cover {
	d := f.D
	g := New(d)
	for _, c := range f.Cubes {
		out := d.NewCube()
		if d.Cofactor(out, c, p) {
			g.Cubes = append(g.Cubes, out)
		}
	}
	return g
}

// activeVar selects the splitting variable for unate recursion: the
// variable with the largest number of non-full fields across the cover.
// It returns -1 when every field of every cube is full.
func (f *Cover) activeVar() int {
	d := f.D
	best, bestN := -1, 0
	for v := 0; v < d.NumVars(); v++ {
		n := 0
		for _, c := range f.Cubes {
			if !d.PartFull(c, v) {
				n++
			}
		}
		if n > bestN {
			best, bestN = v, n
		}
	}
	return best
}

// Tautology reports whether the cover covers the entire space, by the
// unate recursion of kernel.go: the single-word kernel on single-word
// domains, the W-word kernel on every other.
func (f *Cover) Tautology() bool {
	if f.D.SingleWord() {
		return f.tautology1()
	}
	return f.tautologyW()
}

// Complement returns a cover of the complement of f (the minterms covered
// by no cube of f), computed by Shannon expansion with single-cube
// containment cleanup. The result is not guaranteed minimal.
func (f *Cover) Complement() *Cover {
	mComplements.Inc()
	g := f.complementRec()
	g.SCC()
	return g
}

func (f *Cover) complementRec() *Cover {
	d := f.D
	if len(f.Cubes) == 0 {
		g := New(d)
		g.Cubes = append(g.Cubes, d.Universe())
		return g
	}
	for _, c := range f.Cubes {
		if d.FullParts(c) == d.NumVars() {
			return New(d) // tautology: empty complement
		}
	}
	if len(f.Cubes) == 1 {
		return &Cover{D: d, Cubes: DisjointSharp(d, d.Universe(), f.Cubes[0])}
	}
	v := f.activeVar()
	if v < 0 {
		return New(d) // all cubes universal
	}
	out := New(d)
	for val := 0; val < d.Size(v); val++ {
		vc := d.ValueCube(v, val)
		sub := f.Cofactor(vc).complementRec()
		for _, c := range sub.Cubes {
			r := c.Clone()
			ok := d.Intersect(r, r, vc)
			if ok {
				out.Cubes = append(out.Cubes, r)
			}
		}
	}
	out.SCC()
	return out
}

// CoversCube reports whether the cover covers every minterm of cube c:
// whether its cofactor by c is a tautology.
func (f *Cover) CoversCube(c cube.Cube) bool {
	if f.D.SingleWord() {
		return f.coversCube1(c)
	}
	return f.coversCubeW(c)
}

// Covers reports whether f covers every cube of g.
func (f *Cover) Covers(g *Cover) bool {
	for _, c := range g.Cubes {
		if f.D.IsEmpty(c) {
			continue
		}
		if !f.CoversCube(c) {
			return false
		}
	}
	return true
}

// Equivalent reports whether f and g cover exactly the same minterms.
//
//lint:ignore deadexport URP equivalence oracle of TestBDDOracleAgainstCoverAlgebra, TestTheoremIOnPaperEncoding and the pla round-trip tests
func Equivalent(f, g *Cover) bool {
	return f.Covers(g) && g.Covers(f)
}

// Union returns a fresh cover with the cubes of both covers (no cleanup).
func Union(f, g *Cover) *Cover {
	out := New(f.D)
	out.Cubes = append(out.Cubes, f.Cubes...)
	out.Cubes = append(out.Cubes, g.Cubes...)
	return out
}

// Without returns a fresh cover with all cubes of f except the one at
// index i. The cubes are shared, not copied.
//
//lint:ignore deadexport cube-dropping probe of TestMinimizeIrredundant (espresso) and TestVerifyCatchesCorruption (sim)
func (f *Cover) Without(i int) *Cover {
	out := New(f.D)
	out.Cubes = append(out.Cubes, f.Cubes[:i]...)
	out.Cubes = append(out.Cubes, f.Cubes[i+1:]...)
	return out
}

// DisjointSharp returns pairwise-disjoint cubes whose union is a minus b.
func DisjointSharp(d *cube.Domain, a, b cube.Cube) []cube.Cube {
	if !d.Intersects(a, b) {
		return []cube.Cube{a.Clone()}
	}
	var out []cube.Cube
	prefix := a.Clone()
	for v := 0; v < d.NumVars(); v++ {
		// Piece for variable v: prefix with field v = a_v \ b_v.
		r := prefix.Clone()
		any := false
		for val := 0; val < d.Size(v); val++ {
			if d.Has(b, v, val) {
				d.ClearVal(r, v, val)
			} else if d.Has(a, v, val) {
				any = true
			}
		}
		if any && !d.IsEmpty(r) {
			out = append(out, r)
		}
		// Restrict the prefix's field v to a_v ∩ b_v so later pieces are
		// disjoint from this one.
		for val := 0; val < d.Size(v); val++ {
			if !d.Has(b, v, val) {
				d.ClearVal(prefix, v, val)
			}
		}
	}
	return out
}
