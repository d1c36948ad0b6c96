// Package verify is the repository's semantic verification subsystem:
// an encoding-validity oracle that recomputes face membership from first
// principles, differential checks of the two-level minimizers, metamorphic
// instance transformations under which cube counts are invariant, and a
// greedy shrinker that minimizes failing instances before reporting.
//
// Everything here intentionally re-derives results with algorithms
// different from the production paths: supercubes are rebuilt one column
// at a time instead of with the word-parallel mask algebra of
// internal/face, membership is re-evaluated through BDDs
// (internal/bdd), and on small code spaces the minimal spanning cube is
// found by brute-force enumeration of all 3^nv cubes — so an encoder or
// minimizer bug cannot validate itself (DESIGN.md §9).
package verify

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"picola/internal/bdd"
	"picola/internal/face"
	"picola/internal/obs"
)

// Oracle metrics: instances checked and failures found, by layer.
var (
	mChecks   = obs.Default.Counter("verify.checks")
	mFailures = obs.Default.Counter("verify.failures")
)

// bruteMaxNV bounds the code length at which the oracle enumerates all
// 3^nv cubes to find the minimal spanning cube from scratch (6561 cubes
// at the bound; beyond it the independent per-column recomputation and
// the BDD evaluation still run).
const bruteMaxNV = 8

// Failure is one oracle disagreement or broken invariant.
type Failure struct {
	// Check names the failed invariant (e.g. "distinct", "intruders",
	// "containment-off", "metamorphic").
	Check string
	// Constraint is the index of the constraint involved, or -1 when the
	// failure is not constraint-specific.
	Constraint int
	// Detail is the human-readable disagreement.
	Detail string
}

func (f Failure) String() string {
	if f.Constraint < 0 {
		return fmt.Sprintf("%s: %s", f.Check, f.Detail)
	}
	return fmt.Sprintf("%s[constraint %d]: %s", f.Check, f.Constraint, f.Detail)
}

// Report collects the failures of one verification run. A nil or empty
// report means every check passed.
type Report struct {
	Failures []Failure
}

// Ok reports whether every check passed.
func (r *Report) Ok() bool { return r == nil || len(r.Failures) == 0 }

// Err returns nil when every check passed, and otherwise an error
// summarizing every failure, one per line.
func (r *Report) Err() error {
	if r.Ok() {
		return nil
	}
	lines := make([]string, len(r.Failures))
	for i, f := range r.Failures {
		lines[i] = f.String()
	}
	return fmt.Errorf("verify: %d failure(s):\n  %s", len(r.Failures), strings.Join(lines, "\n  "))
}

func (r *Report) addf(check string, con int, format string, args ...any) {
	r.Failures = append(r.Failures, Failure{Check: check, Constraint: con,
		Detail: fmt.Sprintf(format, args...)})
	mFailures.Inc()
}

// Merge appends another report's failures.
func (r *Report) Merge(o *Report) {
	if o != nil {
		r.Failures = append(r.Failures, o.Failures...)
	}
}

// Options tune the oracle.
type Options struct {
	// RequireMinLength additionally demands nv = ceil(log2 n), the
	// paper's minimum code length. Leave false when the encoding was
	// produced with an explicit length override.
	RequireMinLength bool
	// SkipBrute disables the 3^nv brute-force cube enumeration (the
	// fuzzers use it to keep iterations fast; the independent per-column
	// and BDD oracles still run).
	SkipBrute bool
}

// nvMask returns the mask of the nv low code bits.
func nvMask(nv int) uint64 {
	if nv >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(nv) - 1
}

// slowCube is a supercube recomputed independently of the word-parallel
// algebra in internal/face: one column at a time, via Encoding.Bit.
type slowCube struct {
	fixed []bool
	val   []int
}

// slowSupercube computes the minimal cube spanned by the members' codes,
// column by column.
func slowSupercube(e *face.Encoding, members []int) slowCube {
	sc := slowCube{fixed: make([]bool, e.NV), val: make([]int, e.NV)}
	if len(members) == 0 {
		return sc
	}
	for col := 0; col < e.NV; col++ {
		b := e.Bit(members[0], col)
		uniform := true
		for _, m := range members[1:] {
			if e.Bit(m, col) != b {
				uniform = false
				break
			}
		}
		if uniform {
			sc.fixed[col] = true
			sc.val[col] = b
		}
	}
	return sc
}

// contains reports whether symbol sym's code lies inside the cube.
func (sc slowCube) contains(e *face.Encoding, sym int) bool {
	for col := 0; col < e.NV; col++ {
		if sc.fixed[col] && e.Bit(sym, col) != sc.val[col] {
			return false
		}
	}
	return true
}

// bddRef builds the cube's characteristic function in the manager.
func (sc slowCube) bddRef(m *bdd.Manager) bdd.Ref {
	f := bdd.True
	for col := range sc.fixed {
		if !sc.fixed[col] {
			continue
		}
		if sc.val[col] == 1 {
			f = m.And(f, m.Var(col))
		} else {
			f = m.And(f, m.NVar(col))
		}
	}
	return f
}

// CheckEncoding validates an encoding against a problem from first
// principles: structural validity (dimensions, code width, minimal
// length when required), distinct codes, and — for every constraint —
// face membership recomputed independently (per-column supercube, BDD
// evaluation, and on small code spaces brute-force enumeration of the
// minimal spanning cube), compared against the production verdicts of
// internal/face (Satisfied, Intruders).
func CheckEncoding(p *face.Problem, e *face.Encoding, opts ...Options) *Report {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	mChecks.Inc()
	rep := &Report{}
	if e == nil {
		rep.addf("encoding", -1, "nil encoding")
		return rep
	}
	if err := p.Validate(); err != nil {
		rep.addf("problem", -1, "invalid problem: %v", err)
		return rep
	}
	if e.N() != p.N() {
		rep.addf("shape", -1, "encoding has %d codes, problem %d symbols", e.N(), p.N())
		return rep
	}
	if e.NV < 1 || e.NV > 64 {
		rep.addf("width", -1, "code length %d outside [1,64]", e.NV)
		return rep
	}
	if e.NV < p.MinLength() {
		rep.addf("width", -1, "code length %d below the minimum %d for %d symbols",
			e.NV, p.MinLength(), p.N())
	}
	if o.RequireMinLength && e.NV != p.MinLength() {
		rep.addf("width", -1, "code length %d, want the minimum ceil(log2 %d) = %d",
			e.NV, p.N(), p.MinLength())
	}
	mask := nvMask(e.NV)
	for s, c := range e.Codes {
		if c&^mask != 0 {
			rep.addf("width", -1, "symbol %d code %#x has bits beyond column %d", s, c, e.NV-1)
		}
	}
	checkDistinct(rep, e, mask)
	mgr := bdd.New(e.NV)
	for i, c := range p.Constraints {
		checkConstraint(rep, e, i, c, o, mgr)
	}
	return rep
}

// checkDistinct verifies code injectivity without the map-based
// production path (sort and compare neighbours), then confirms the
// production Injective agrees.
func checkDistinct(rep *Report, e *face.Encoding, mask uint64) {
	type cs struct {
		code uint64
		sym  int
	}
	pairs := make([]cs, e.N())
	for s, c := range e.Codes {
		pairs[s] = cs{code: c & mask, sym: s}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].code != pairs[b].code {
			return pairs[a].code < pairs[b].code
		}
		return pairs[a].sym < pairs[b].sym
	})
	distinct := true
	for i := 1; i < len(pairs); i++ {
		if pairs[i].code == pairs[i-1].code {
			distinct = false
			rep.addf("distinct", -1, "symbols %d and %d share code %s",
				pairs[i-1].sym, pairs[i].sym, codeBits(pairs[i].code, e.NV))
		}
	}
	if e.Injective() != distinct {
		rep.addf("oracle-disagree", -1, "Encoding.Injective() = %v, oracle says %v",
			e.Injective(), distinct)
	}
}

// checkConstraint re-derives one constraint's supercube, intruder set
// and verdict and compares them against the production implementations.
func checkConstraint(rep *Report, e *face.Encoding, i int, c face.Constraint, o Options, mgr *bdd.Manager) {
	if c.N() != e.N() {
		rep.addf("shape", i, "constraint over %d symbols, encoding has %d", c.N(), e.N())
		return
	}
	members := c.Members()
	if len(members) == 0 {
		if !e.Satisfied(c) {
			rep.addf("verdict", i, "empty constraint reported violated")
		}
		return
	}
	sc := slowSupercube(e, members)

	// Independent intruder set: non-members inside the supercube.
	var want []int
	for s := 0; s < e.N(); s++ {
		if !c.Has(s) && sc.contains(e, s) {
			want = append(want, s)
		}
	}
	got := e.Intruders(c)
	if !equalInts(got, want) {
		rep.addf("intruders", i, "production %v, oracle %v", got, want)
	}
	if e.Satisfied(c) != (len(want) == 0) {
		rep.addf("verdict", i, "Satisfied() = %v, oracle intruders %v", e.Satisfied(c), want)
	}

	// BDD cross-check: evaluate every symbol's code against the cube's
	// characteristic function — an entirely different representation.
	f := sc.bddRef(mgr)
	asn := make([]bool, e.NV)
	for s := 0; s < e.N(); s++ {
		for col := 0; col < e.NV; col++ {
			asn[col] = e.Bit(s, col) == 1
		}
		in := mgr.Eval(f, asn)
		if c.Has(s) {
			if !in {
				rep.addf("supercube", i, "member %d outside its own supercube", s)
			}
			continue
		}
		if in != sc.contains(e, s) {
			rep.addf("oracle-disagree", i, "BDD and column oracle disagree on symbol %d", s)
		}
	}

	if !o.SkipBrute && e.NV <= bruteMaxNV {
		bruteCheckSupercube(rep, e, i, members, sc)
	}
}

// bruteCheckSupercube enumerates every cube of the code space (all
// (fixed-column, value) pairs — 3^nv cubes) and checks that the minimal
// spanning cube of the member codes is unique and equals the per-column
// recomputation: the ground-truth definition of "the face spanned by the
// members", assumed nowhere else in the repository.
func bruteCheckSupercube(rep *Report, e *face.Encoding, i int, members []int, sc slowCube) {
	nv := e.NV
	mask := nvMask(nv)
	codes := make([]uint64, len(members))
	for j, m := range members {
		codes[j] = e.Codes[m] & mask
	}
	bestFree := nv + 1
	var bestFixed, bestVals uint64
	bestCount := 0
	for fixed := uint64(0); fixed <= mask; fixed++ {
		// vals iterates over the submasks of fixed (plus 0).
		vals := fixed
		for {
			spanning := true
			for _, code := range codes {
				if code&fixed != vals {
					spanning = false
					break
				}
			}
			if spanning {
				free := nv - bits.OnesCount64(fixed)
				switch {
				case free < bestFree:
					bestFree, bestFixed, bestVals, bestCount = free, fixed, vals, 1
				case free == bestFree:
					bestCount++
				}
			}
			if vals == 0 {
				break
			}
			vals = (vals - 1) & fixed
		}
	}
	if bestCount != 1 {
		rep.addf("brute", i, "minimal spanning cube not unique: %d cubes of dimension %d",
			bestCount, bestFree)
		return
	}
	for col := 0; col < nv; col++ {
		bit := uint64(1) << uint(col)
		if (bestFixed&bit != 0) != sc.fixed[col] {
			rep.addf("brute", i, "column %d: brute-force says fixed=%v, column oracle %v",
				col, bestFixed&bit != 0, sc.fixed[col])
			continue
		}
		if bestFixed&bit != 0 && int(bestVals>>uint(col)&1) != sc.val[col] {
			rep.addf("brute", i, "column %d: brute-force value %d, column oracle %d",
				col, bestVals>>uint(col)&1, sc.val[col])
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// codeBits renders a code as a bit string, column 0 first (the
// CodeString convention).
func codeBits(code uint64, nv int) string {
	var sb strings.Builder
	for col := 0; col < nv; col++ {
		sb.WriteByte(byte('0' + (code >> uint(col) & 1)))
	}
	return sb.String()
}
