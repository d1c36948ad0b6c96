// Package espresso implements a heuristic two-level logic minimizer in the
// style of Berkeley espresso: the classical EXPAND / IRREDUNDANT / REDUCE
// iteration with essential-prime extraction, operating on multi-valued
// covers in positional notation.
//
// The paper evaluates encodings by the number of product terms espresso
// needs for the encoded constraints and for the encoded FSM combinational
// logic; this package is the from-scratch substitute for those external
// espresso calls (see DESIGN.md §4).
package espresso

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"picola/internal/cover"
	"picola/internal/covering"
	"picola/internal/ctxutil"
	"picola/internal/cube"
	"picola/internal/obs"
)

// scratch holds the per-Minimize working buffers that used to be allocated
// per call (and, for expandCube, per cube): conflict bookkeeping, bit
// masks, column counts, and the shared "rest of the cover" cube list the
// containment loops rebuild per cube. One scratch is checked out of the
// pool per Minimize call, so concurrent minimizations (the par fan-out)
// each get their own.
type scratch struct {
	conflictCount []int
	conflictVar   []int
	blockedMask   []uint64
	varMask       []uint64
	colCount      []int
	covered       []bool
	rest          cover.Cover
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (sc *scratch) ints(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	for i := range *buf {
		(*buf)[i] = 0
	}
	return *buf
}

func (sc *scratch) bools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	for i := range *buf {
		(*buf)[i] = false
	}
	return *buf
}

func (sc *scratch) words(buf *[]uint64, n int) []uint64 {
	if cap(*buf) < n {
		*buf = make([]uint64, n)
	}
	*buf = (*buf)[:n]
	for i := range *buf {
		(*buf)[i] = 0
	}
	return *buf
}

// restOf rebuilds the shared rest buffer as F minus cube i plus dc. The
// result is read-only and valid until the next restOf call.
func (sc *scratch) restOf(d *cube.Domain, cubes []cube.Cube, skip int, dc *cover.Cover) *cover.Cover {
	sc.rest.D = d
	sc.rest.Cubes = sc.rest.Cubes[:0]
	sc.rest.Cubes = append(sc.rest.Cubes, cubes[:skip]...)
	sc.rest.Cubes = append(sc.rest.Cubes, cubes[skip+1:]...)
	if dc != nil {
		sc.rest.Cubes = append(sc.rest.Cubes, dc.Cubes...)
	}
	return &sc.rest
}

// Invocation metrics (atomic; cached pointers keep lookups off hot paths).
var (
	mMinimize   = obs.Default.Counter("espresso.minimize")
	mIterations = obs.Default.Counter("espresso.iterations")
	tMinimize   = obs.Default.Timer("espresso.minimize.time")
	hMinimizeNS = obs.Default.LatencyHistogram("espresso.minimize_ns")
	hOnSize     = obs.Default.Histogram("espresso.on_size", 4, 16, 64, 256, 1024)
)

// Function is a three-valued logic function given as an ON-set, a
// don't-care set, and optionally an OFF-set. If Off is nil, it is computed
// as the complement of On ∪ DC. DC may be nil (empty).
type Function struct {
	D   *cube.Domain
	On  *cover.Cover
	DC  *cover.Cover
	Off *cover.Cover
}

// Options tune the minimizer.
type Options struct {
	// MaxIterations bounds the reduce/expand/irredundant improvement loop.
	// Zero means the default (a generous bound; the loop exits as soon as
	// the cost stops improving).
	MaxIterations int
	// SkipEssentials disables essential-prime extraction (mainly for tests
	// exercising the main loop in isolation).
	SkipEssentials bool
	// SkipLastGasp disables the post-convergence LAST_GASP attempt.
	SkipLastGasp bool
	// SkipMakeSparse disables the final output-lowering pass.
	SkipMakeSparse bool
}

// cost is the espresso cost function: primary the number of cubes,
// secondary the literal count (fewer is better).
type cost struct {
	cubes int
	lits  int
}

func coverCost(f *cover.Cover) cost {
	return cost{cubes: f.Len(), lits: f.Literals()}
}

func (a cost) less(b cost) bool {
	if a.cubes != b.cubes {
		return a.cubes < b.cubes
	}
	return a.lits < b.lits
}

// Minimize returns a heuristically minimum cover of the function: a cover
// F with On ⊆ F ⊆ On ∪ DC, irredundant and consisting of prime implicants
// (relative to the heuristic). The input covers are not modified.
func Minimize(f *Function, opts ...Options) (*cover.Cover, error) {
	return MinimizeContext(context.Background(), f, opts...)
}

// MinimizeContext is Minimize under a run context: the deadline is
// checked on entry and once per improvement iteration, and a cancelled
// minimization returns a wrapped context.Canceled/DeadlineExceeded
// error instead of a cover.
func MinimizeContext(ctx context.Context, f *Function, opts ...Options) (*cover.Cover, error) {
	if err := ctxutil.Check(ctx, "espresso.minimize"); err != nil {
		return nil, err
	}
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 100
	}
	mMinimize.Inc()
	hOnSize.Observe(int64(f.On.Len()))
	t0 := time.Now()
	defer func() {
		d := time.Since(t0)
		tMinimize.Observe(d)
		hMinimizeNS.Observe(int64(d))
	}()
	d := f.D
	dc := f.DC
	off := f.Off
	switch {
	case dc == nil && off == nil:
		dc = cover.New(d)
		off = f.On.Complement()
	case off == nil:
		off = cover.Union(f.On, dc).Complement()
	case dc == nil:
		// fr-style input: everything outside ON ∪ OFF is a don't care.
		dc = cover.Union(f.On, off).Complement()
	}
	// Consistency: ON must not intersect OFF.
	for _, a := range f.On.Cubes {
		for _, b := range off.Cubes {
			if d.Intersects(a, b) {
				return nil, fmt.Errorf("espresso: ON-set intersects OFF-set (%s ∩ %s)",
					d.String(a), d.String(b))
			}
		}
	}
	F := f.On.Clone()
	F.SCC()
	if F.Len() == 0 {
		return F, nil
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	F = expand(F, off, sc)
	F = irredundant(F, dc, sc)

	var essentials *cover.Cover
	workDC := dc
	if !o.SkipEssentials {
		essentials, F = extractEssentials(F, dc, sc)
		if essentials.Len() > 0 {
			workDC = cover.Union(dc, essentials)
		}
	} else {
		essentials = cover.New(d)
	}

	best := coverCost(F)
	for iter := 0; iter < o.MaxIterations; iter++ {
		if err := ctxutil.Check(ctx, "espresso.iterate"); err != nil {
			return nil, err
		}
		mIterations.Inc()
		F = reduce(F, workDC, sc)
		F = expand(F, off, sc)
		F = irredundant(F, workDC, sc)
		c := coverCost(F)
		if !c.less(best) {
			break
		}
		best = c
	}
	if !o.SkipLastGasp {
		if G, ok := lastGasp(F, workDC, off, sc); ok {
			F = G
		}
	}
	F.Cubes = append(F.Cubes, essentials.Cubes...)
	F.SCC()
	if !o.SkipMakeSparse {
		F = makeSparse(F, dc, sc)
	}
	return F, nil
}

// lastGasp is espresso's post-convergence escape: every cube is reduced
// independently against the full cover (no sequential interaction), the
// reduced cubes are expanded, and any new prime covering two or more
// reduced cubes is offered to irredundant together with the old cover.
// It reports whether an improvement was found.
func lastGasp(F *cover.Cover, dc, off *cover.Cover, sc *scratch) (*cover.Cover, bool) {
	d := F.D
	reduced := cover.New(d)
	for i, c := range F.Cubes {
		rest := sc.restOf(d, F.Cubes, i, dc)
		q := rest.Cofactor(c)
		if q.Tautology() {
			continue
		}
		comp := q.Complement()
		sc := d.NewCube()
		for _, cc := range comp.Cubes {
			d.Supercube(sc, sc, cc)
		}
		nc := d.NewCube()
		if d.Intersect(nc, c, sc) {
			reduced.Add(nc)
		}
	}
	if reduced.Len() == 0 {
		return F, false
	}
	// Expand the reduced cubes and keep the primes covering ≥ 2 of them.
	colCount := sc.ints(&sc.colCount, d.Bits())
	for _, f := range reduced.Cubes {
		for bit := 0; bit < d.Bits(); bit++ {
			if f[bit/64]>>(uint(bit)%64)&1 == 1 {
				colCount[bit]++
			}
		}
	}
	var candidates []cube.Cube
	for _, c := range reduced.Cubes {
		p := expandCube(d, c.Clone(), off, colCount, sc)
		covered := 0
		for _, rc := range reduced.Cubes {
			if d.Contains(p, rc) {
				covered++
			}
		}
		if covered >= 2 {
			candidates = append(candidates, p)
		}
	}
	if len(candidates) == 0 {
		return F, false
	}
	trial := F.Clone()
	trial.Cubes = append(trial.Cubes, candidates...)
	trial.SCC()
	trial = irredundant(trial, dc, sc)
	if coverCost(trial).less(coverCost(F)) {
		return trial, true
	}
	return F, false
}

// makeSparse lowers every cube's output-like fields to the values it must
// assert: a value is dropped when the rest of the cover plus the
// don't-care set already covers the cube restricted to it. This is
// espresso's sparse-matrix pass — it cannot change the cube count, only
// shrink the asserted literals (PLA transistors).
func makeSparse(F *cover.Cover, dc *cover.Cover, sc *scratch) *cover.Cover {
	d := F.D
	out := F.Clone()
	for i, c := range out.Cubes {
		for v := 0; v < d.NumVars(); v++ {
			if d.Size(v) == 2 || d.PartCount(c, v) <= 1 {
				continue // only multi-valued (output-like) fields
			}
			for val := 0; val < d.Size(v); val++ {
				if !d.Has(c, v, val) || d.PartCount(c, v) == 1 {
					continue
				}
				restricted := c.Clone()
				d.Restrict(restricted, v, val)
				rest := sc.restOf(d, out.Cubes, i, dc)
				if rest.CoversCube(restricted) {
					d.ClearVal(c, v, val)
				}
			}
		}
	}
	return out
}

// MustMinimize is Minimize that panics on inconsistent input; intended for
// internal flows where ON/OFF are constructed disjoint by design.
func MustMinimize(f *Function, opts ...Options) *cover.Cover {
	m, err := Minimize(f, opts...)
	if err != nil {
		panic(err)
	}
	return m
}

// expand turns every cube of F into a prime implicant by greedily raising
// value bits while remaining disjoint from the OFF-set, then drops cubes
// covered by the expanded primes.
func expand(F *cover.Cover, off *cover.Cover, sc *scratch) *cover.Cover {
	d := F.D
	// Expand small cubes first: they benefit most and their expansion is
	// most likely to cover the remaining cubes.
	sort.SliceStable(F.Cubes, func(i, j int) bool {
		return cube.SetBits(F.Cubes[i]) < cube.SetBits(F.Cubes[j])
	})
	covered := sc.bools(&sc.covered, F.Len())
	out := cover.New(d)
	// Column counts over the ON-set: how many cubes contain each value bit.
	// The classical expansion heuristic raises the feasible bit present in
	// the most ON cubes.
	colCount := sc.ints(&sc.colCount, d.Bits())
	for _, f := range F.Cubes {
		for bit := 0; bit < d.Bits(); bit++ {
			if f[bit/64]>>(uint(bit)%64)&1 == 1 {
				colCount[bit]++
			}
		}
	}
	for i, c := range F.Cubes {
		if covered[i] {
			continue
		}
		p := expandCube(d, c.Clone(), off, colCount, sc)
		for j := i + 1; j < F.Len(); j++ {
			if !covered[j] && d.Contains(p, F.Cubes[j]) {
				covered[j] = true
			}
		}
		out.Add(p)
	}
	out.SCC()
	return out
}

// expandCube raises bits of c until it is a prime implicant of the
// complement of off, picking at each step the feasible bit with the
// highest ON-column count. Feasibility is tracked incrementally: an OFF
// cube at distance 1 "blocks" the bits of its conflicting variable's
// field, since raising one would make c intersect it.
func expandCube(d *cube.Domain, c cube.Cube, off *cover.Cover, colCount []int, sc *scratch) cube.Cube {
	nv := d.NumVars()
	nb := d.Bits()
	words := d.Words()
	conflictCount := sc.ints(&sc.conflictCount, off.Len())
	conflictVar := sc.ints(&sc.conflictVar, off.Len()) // meaningful when count == 1
	for k, o := range off.Cubes {
		for v := 0; v < nv; v++ {
			if varDisjoint(d, c, o, v) {
				conflictCount[k]++
				conflictVar[k] = v
			}
		}
	}
	blockedMask := sc.words(&sc.blockedMask, words)
	varMask := sc.words(&sc.varMask, words) // scratch
	for {
		// Rebuild the blocked mask: bits of single-conflict OFF cubes'
		// conflicting fields.
		for w := range blockedMask {
			blockedMask[w] = 0
		}
		for k, o := range off.Cubes {
			if conflictCount[k] != 1 {
				continue
			}
			v := conflictVar[k]
			for w := range varMask {
				varMask[w] = 0
			}
			d.SetAll(cube.Cube(varMask), v)
			for w := range blockedMask {
				blockedMask[w] |= o[w] & varMask[w]
			}
		}
		bestBit, bestScore := -1, -1
		for bit := 0; bit < nb; bit++ {
			w, sh := bit/64, uint(bit)%64
			if c[w]>>sh&1 == 1 || blockedMask[w]>>sh&1 == 1 {
				continue
			}
			if colCount[bit] > bestScore {
				bestBit, bestScore = bit, colCount[bit]
			}
		}
		if bestBit < 0 {
			return c
		}
		c[bestBit/64] |= 1 << (uint(bestBit) % 64)
		bestV := d.VarOfBit(bestBit)
		// OFF cubes that conflicted only at bestV and allow the raised
		// value no longer conflict there.
		for k, o := range off.Cubes {
			if conflictCount[k] > 0 && o[bestBit/64]>>(uint(bestBit)%64)&1 == 1 {
				// The raised bit is in o's field; if bestV was a conflict
				// variable of o it no longer is.
				if wasConflict(d, c, o, bestV, bestBit) {
					conflictCount[k]--
					if conflictCount[k] == 1 {
						// Recompute the single remaining conflict variable.
						for v := 0; v < nv; v++ {
							if varDisjoint(d, c, o, v) {
								conflictVar[k] = v
								break
							}
						}
					}
				}
			}
		}
	}
}

// wasConflict reports whether variable v of o conflicted with c before the
// raise of bit (which belongs to v): true iff the only shared value now is
// the raised bit itself.
func wasConflict(d *cube.Domain, c, o cube.Cube, v, bit int) bool {
	for val := 0; val < d.Size(v); val++ {
		b := d.BitOf(v, val)
		if b == bit {
			continue
		}
		if c[b/64]>>(uint(b)%64)&1 == 1 && o[b/64]>>(uint(b)%64)&1 == 1 {
			return false
		}
	}
	return true
}

// varDisjoint reports whether cubes a and b share no value of variable v.
func varDisjoint(d *cube.Domain, a, b cube.Cube, v int) bool {
	for val := 0; val < d.Size(v); val++ {
		if d.Has(a, v, val) && d.Has(b, v, val) {
			return false
		}
	}
	return true
}

// irredundant selects a small irredundant subcover. The cubes are
// partitioned espresso-style into relatively essential (E: not covered by
// the rest plus DC), totally redundant (covered by E plus DC — dropped)
// and partially redundant (Rp); a minimum subset of Rp covering the
// region E ∪ DC leaves uncovered is then chosen by branch-and-bound set
// covering at shard granularity. Oversized instances fall back to the
// order-dependent sequential removal.
func irredundant(F *cover.Cover, dc *cover.Cover, sc *scratch) *cover.Cover {
	d := F.D
	n := F.Len()
	if n <= 1 {
		return F.Clone()
	}
	ess := cover.New(d)
	var rp []cube.Cube
	for i, c := range F.Cubes {
		rest := sc.restOf(d, F.Cubes, i, dc)
		if rest.CoversCube(c) {
			rp = append(rp, c)
		} else {
			ess.Add(c)
		}
	}
	// Totally redundant: covered by the essentials plus DC alone.
	base := cover.Union(ess, dc)
	kept := rp[:0]
	for _, c := range rp {
		if !base.CoversCube(c) {
			kept = append(kept, c)
		}
	}
	rp = kept
	if len(rp) == 0 {
		return ess
	}
	const maxRp, maxShards = 64, 4096
	if len(rp) > maxRp {
		return irredundantSeq(F, dc, sc)
	}
	// Shard each partially-redundant cube against E ∪ DC; every shard must
	// end up inside some chosen Rp cube.
	var rowCols [][]int
	shardCount := 0
	for _, c := range rp {
		shards := []cube.Cube{c.Clone()}
		for _, b := range base.Cubes {
			var next []cube.Cube
			for _, s := range shards {
				next = append(next, cover.DisjointSharp(d, s, b)...)
			}
			shards = next
			if len(shards) == 0 {
				break
			}
		}
		shardCount += len(shards)
		if shardCount > maxShards {
			return irredundantSeq(F, dc, sc)
		}
		for _, s := range shards {
			var cols []int
			for pi, p := range rp {
				if d.Contains(p, s) {
					cols = append(cols, pi)
				}
			}
			// The parent cube always contains its own shards, so cols is
			// never empty.
			rowCols = append(rowCols, cols)
		}
	}
	chosen, _ := covering.Solve(rowCols, len(rp), covering.Options{MaxNodes: 200000})
	out := ess.Clone()
	for _, pi := range chosen {
		out.Add(rp[pi])
	}
	return out
}

// irredundantSeq is the order-dependent fallback: remove cubes covered by
// the rest plus DC, smallest first.
func irredundantSeq(F *cover.Cover, dc *cover.Cover, sc *scratch) *cover.Cover {
	sort.SliceStable(F.Cubes, func(i, j int) bool {
		return cube.SetBits(F.Cubes[i]) < cube.SetBits(F.Cubes[j])
	})
	kept := F.Clone()
	for i := 0; i < kept.Len(); {
		rest := sc.restOf(F.D, kept.Cubes, i, dc)
		if rest.CoversCube(kept.Cubes[i]) {
			kept.Cubes = append(kept.Cubes[:i], kept.Cubes[i+1:]...)
			continue
		}
		i++
	}
	return kept
}

// extractEssentials splits F into (essential primes, the rest). A prime is
// essential when the other primes plus the don't-care set do not cover it;
// essential primes appear in every prime irredundant cover, so the main
// loop need not touch them.
func extractEssentials(F *cover.Cover, dc *cover.Cover, sc *scratch) (ess, rest *cover.Cover) {
	ess = cover.New(F.D)
	rest = cover.New(F.D)
	for i, c := range F.Cubes {
		others := sc.restOf(F.D, F.Cubes, i, dc)
		if others.CoversCube(c) {
			rest.Add(c)
		} else {
			ess.Add(c)
		}
	}
	return ess, rest
}

// reduce shrinks each cube to the unique maximally reduced cube that still
// leaves the cover's union unchanged: c ∩ supercube(¬((F−c ∪ DC) cofactor c)).
// Cubes that become empty (covered entirely by the rest) are dropped.
// Processing is ordered by descending size so large cubes are reduced
// against the originals of the small ones.
func reduce(F *cover.Cover, dc *cover.Cover, sc *scratch) *cover.Cover {
	d := F.D
	sort.SliceStable(F.Cubes, func(i, j int) bool {
		return cube.SetBits(F.Cubes[i]) > cube.SetBits(F.Cubes[j])
	})
	out := cover.New(d)
	work := F.Clone()
	rest := &sc.rest
	rest.D = d
	for i := 0; i < work.Len(); i++ {
		c := work.Cubes[i]
		rest.Cubes = rest.Cubes[:0]
		rest.Cubes = append(rest.Cubes, out.Cubes...) // already reduced
		rest.Cubes = append(rest.Cubes, work.Cubes[i+1:]...)
		rest.Cubes = append(rest.Cubes, dc.Cubes...)
		q := rest.Cofactor(c)
		if q.Tautology() {
			continue // c entirely covered by the rest: drop
		}
		comp := q.Complement()
		sc := d.NewCube()
		for _, cc := range comp.Cubes {
			d.Supercube(sc, sc, cc)
		}
		nc := d.NewCube()
		if d.Intersect(nc, c, sc) {
			out.Add(nc)
		}
	}
	return out
}

// Verify checks that min is a correct cover of f: it covers the ON-set, is
// covered by ON ∪ DC, and intersects no OFF cube. It returns nil when all
// three hold.
func Verify(min *cover.Cover, f *Function) error {
	d := f.D
	dc := f.DC
	off := f.Off
	switch {
	case dc == nil && off == nil:
		dc = cover.New(d)
		off = f.On.Complement()
	case off == nil:
		off = cover.Union(f.On, dc).Complement()
	case dc == nil:
		dc = cover.Union(f.On, off).Complement()
	}
	if !min.Covers(f.On) {
		return fmt.Errorf("espresso: result does not cover the ON-set")
	}
	if !cover.Union(f.On, dc).Covers(min) {
		return fmt.Errorf("espresso: result not contained in ON ∪ DC")
	}
	for _, a := range min.Cubes {
		for _, b := range off.Cubes {
			if d.Intersects(a, b) {
				return fmt.Errorf("espresso: result intersects OFF-set (%s ∩ %s)",
					d.String(a), d.String(b))
			}
		}
	}
	return nil
}
