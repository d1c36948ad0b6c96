// Package espresso implements a heuristic two-level logic minimizer in the
// style of Berkeley espresso: the classical EXPAND / IRREDUNDANT / REDUCE
// iteration, with the relatively essential cubes set aside, operating on
// multi-valued covers in positional notation.
//
// The paper evaluates encodings by the number of product terms espresso
// needs for the encoded constraints and for the encoded FSM combinational
// logic; this package is the from-scratch substitute for those external
// espresso calls (see DESIGN.md §4).
package espresso

import (
	"context"
	"fmt"
	"math/bits"
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

// columnCounts returns, for every value bit of the domain, the number of
// the cubes holding it: the ON-column counts expandCube ranks bits by.
// The result lives in the scratch until the next columnCounts call.
func (sc *scratch) columnCounts(d *cube.Domain, cubes []cube.Cube) []int {
	cnt := sc.ints(&sc.colCount, d.Bits())
	for _, c := range cubes {
		for i, m := range d.FullWords() {
			for w := c[i] & m; w != 0; w &= w - 1 {
				cnt[i*64+bits.TrailingZeros64(w)]++
			}
		}
	}
	return cnt
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

// maxIterations bounds the reduce/expand/irredundant improvement loop:
// a generous bound, since the loop exits as soon as the cost stops
// improving.
const maxIterations = 100

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
func Minimize(f *Function) (*cover.Cover, error) {
	return MinimizeContext(context.Background(), f)
}

// MinimizeContext is Minimize under a run context: the deadline is
// checked on entry and once per improvement iteration, and a cancelled
// minimization returns a wrapped context.Canceled/DeadlineExceeded
// error instead of a cover.
func MinimizeContext(ctx context.Context, f *Function) (*cover.Cover, error) {
	if err := ctxutil.Check(ctx, "espresso.minimize"); err != nil {
		return nil, err
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
	F, proved := irredundant(F, dc, sc)

	essentials, F := extractEssentials(F, dc, proved, sc)
	workDC := dc
	if essentials.Len() > 0 {
		workDC = cover.Union(dc, essentials)
	}

	best := coverCost(F)
	for iter := 0; iter < maxIterations; iter++ {
		if err := ctxutil.Check(ctx, "espresso.iterate"); err != nil {
			return nil, err
		}
		mIterations.Inc()
		F = reduce(F, workDC, sc)
		F = expand(F, off, sc)
		F, _ = irredundant(F, workDC, sc)
		c := coverCost(F)
		if !c.less(best) {
			break
		}
		best = c
	}
	if G, ok := lastGasp(F, workDC, off, sc); ok {
		F = G
	}
	F.Cubes = append(F.Cubes, essentials.Cubes...)
	F.SCC()
	return makeSparse(F, dc, sc), nil
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
		if nc, ok := reduceCube(d, c, sc.restOf(d, F.Cubes, i, dc)); ok {
			reduced.Add(nc)
		}
	}
	if reduced.Len() == 0 {
		return F, false
	}
	// Expand the reduced cubes and keep the primes covering ≥ 2 of them.
	colCount := sc.columnCounts(d, reduced.Cubes)
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
	trial, _ = irredundant(trial, dc, sc)
	if coverCost(trial).less(coverCost(F)) {
		return trial, true
	}
	return F, false
}

// makeSparse lowers every cube's output-like fields to the values it must
// assert: a value is dropped when the rest of the cover plus the
// don't-care set already covers the cube restricted to it. This is
// espresso's sparse-matrix pass — it cannot change the cube count, only
// shrink the asserted literals (PLA transistors). Each field's values
// are tested from one cofactor of the rest by the cube
// (cover.DropCoveredValues), in value order, while the field keeps two
// or more of them.
func makeSparse(F *cover.Cover, dc *cover.Cover, sc *scratch) *cover.Cover {
	d := F.D
	out := F.Clone()
	for i, c := range out.Cubes {
		// rest leaves cube i out, and only cube i changes while its
		// fields are lowered, so one rest serves them all. It is built at
		// the cube's first field to lower: binary-only covers need none.
		var rest *cover.Cover
		for v := 0; v < d.NumVars(); v++ {
			if d.Size(v) == 2 || d.PartCount(c, v) <= 1 {
				continue // only multi-valued (output-like) fields
			}
			if rest == nil {
				rest = sc.restOf(d, out.Cubes, i, dc)
			}
			rest.DropCoveredValues(c, v)
		}
	}
	return out
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
	// Column counts over the ON-set: the classical expansion heuristic
	// raises the feasible bit present in the most ON cubes.
	colCount := sc.columnCounts(d, F.Cubes)
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
// field, since raising one would make c intersect it. An OFF cube's
// conflicting fields are counted word-parallel (Domain.DisjointFields).
func expandCube(d *cube.Domain, c cube.Cube, off *cover.Cover, colCount []int, sc *scratch) cube.Cube {
	nb := d.Bits()
	words := d.Words()
	conflictCount := sc.ints(&sc.conflictCount, off.Len())
	conflictVar := sc.ints(&sc.conflictVar, off.Len()) // meaningful when count == 1
	for k, o := range off.Cubes {
		conflictCount[k], conflictVar[k] = d.DisjointFields(c, o)
	}
	blockedMask := sc.words(&sc.blockedMask, words)
	for {
		// Rebuild the blocked mask: bits of single-conflict OFF cubes'
		// conflicting fields.
		for w := range blockedMask {
			blockedMask[w] = 0
		}
		for k, o := range off.Cubes {
			if conflictCount[k] == 1 {
				d.OrField(blockedMask, o, conflictVar[k])
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
				if wasConflict(d, c, o, bestV) {
					conflictCount[k]--
					if conflictCount[k] == 1 {
						// Find the single remaining conflict variable.
						_, conflictVar[k] = d.DisjointFields(c, o)
					}
				}
			}
		}
	}
}

// wasConflict reports whether variable v of o conflicted with c before the
// raise of bit (which belongs to v and which o allows): true iff the
// raised bit is now the only value the two fields share.
func wasConflict(d *cube.Domain, c, o cube.Cube, v int) bool {
	return d.SharedValues(c, o, v) == 1
}

// irredundant selects a small irredundant subcover. The cubes are
// partitioned espresso-style into relatively essential (E: not covered by
// the rest plus DC), totally redundant (covered by E plus DC — dropped)
// and partially redundant (Rp); a minimum subset of Rp covering the
// region E ∪ DC leaves uncovered is then chosen by branch-and-bound set
// covering at shard granularity. Oversized instances fall back to the
// order-dependent sequential removal.
//
// The result is a subcover of F with E first, and irredundant also
// returns |E|: its verdicts, which extractEssentials reuses. It proves
// nothing, and returns 0, for n ≤ 1 and on the fallback.
func irredundant(F *cover.Cover, dc *cover.Cover, sc *scratch) (*cover.Cover, int) {
	d := F.D
	n := F.Len()
	if n <= 1 {
		return F.Clone(), 0
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
		return ess, ess.Len()
	}
	const maxRp, maxShards = 64, 4096
	if len(rp) > maxRp {
		return irredundantSeq(F, dc, sc), 0
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
			return irredundantSeq(F, dc, sc), 0
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
	return out, ess.Len()
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

// extractEssentials splits F into its relatively essential cubes, which
// the rest of F plus the don't-care set does not cover, and the others,
// which the main loop works on. The test is against the current cover,
// not against every prime, so a cube it sets aside need not be an
// essential prime (one in every prime irredundant cover). On
// irredundant's output it sets aside every cube that irredundant did not
// leave redundant: usually all of F.
//
// The first proved cubes of F are set aside untested: irredundant's
// verdicts. irredundant proved that the rest of its input G plus DC does
// not cover them, and F, its result, is a subcover of G, so F − {c} ∪ DC
// does not cover them either. Only the cubes its covering step chose are
// tested.
func extractEssentials(F *cover.Cover, dc *cover.Cover, proved int, sc *scratch) (ess, rest *cover.Cover) {
	ess = cover.New(F.D)
	rest = cover.New(F.D)
	ess.Cubes = append(ess.Cubes, F.Cubes[:proved]...)
	for i := proved; i < F.Len(); i++ {
		c := F.Cubes[i]
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
		rest.Cubes = rest.Cubes[:0]
		rest.Cubes = append(rest.Cubes, out.Cubes...) // already reduced
		rest.Cubes = append(rest.Cubes, work.Cubes[i+1:]...)
		rest.Cubes = append(rest.Cubes, dc.Cubes...)
		if nc, ok := reduceCube(d, work.Cubes[i], rest); ok {
			out.Add(nc)
		}
	}
	return out
}

// reduceCube returns c ∩ supercube(¬(rest cofactor c)): the smallest cube
// inside c that still holds every minterm of c that rest leaves
// uncovered. It reports false when rest covers all of c, or the
// intersection is empty: c can be dropped.
func reduceCube(d *cube.Domain, c cube.Cube, rest *cover.Cover) (cube.Cube, bool) {
	q := rest.Cofactor(c)
	if q.Tautology() {
		return nil, false
	}
	sup := d.NewCube()
	for _, cc := range q.Complement().Cubes {
		d.Supercube(sup, sup, cc)
	}
	return sup, d.Intersect(sup, c, sup)
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
