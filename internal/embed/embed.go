// Package embed decides exact face-hypercube embeddability: the shortest
// code length at which a constraint set is satisfiable in full. It is the
// exact counterpart of core.EncodeAll's heuristic search and bounds the
// Table III sweep from below on small problems.
//
// The decision procedure is a depth-first search over code assignments
// with two exact prunes — a placed non-member inside the supercube of a
// constraint's placed members can never be excluded again (supercubes
// only grow), and a supercube that can no longer fit the remaining
// members kills the branch — plus two symmetry breaks: the first symbol
// is pinned to code zero (column complementation) and new code columns
// must be activated in order (column permutation).
package embed

import (
	"fmt"
	"math/bits"

	"picola/internal/face"
)

// Options tune the search.
type Options struct {
	// MaxNodes bounds the DFS; 0 means the default (2,000,000). When the
	// budget trips the result is reported as unknown.
	MaxNodes int
}

// Result of a feasibility query.
type Result int

// Feasibility outcomes.
const (
	Infeasible Result = iota
	Satisfiable
	Unknown // node budget exhausted
)

func (r Result) String() string {
	switch r {
	case Infeasible:
		return "infeasible"
	case Satisfiable:
		return "satisfiable"
	default:
		return "unknown"
	}
}

// Feasible decides whether every constraint of p can be satisfied
// simultaneously with nv-bit codes. On Feasible the witness encoding is
// returned.
func Feasible(p *face.Problem, nv int, opts ...Options) (Result, *face.Encoding, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 2_000_000
	}
	if err := p.Validate(); err != nil {
		return Infeasible, nil, err
	}
	n := p.N()
	if n == 0 {
		return Infeasible, nil, fmt.Errorf("embed: empty problem")
	}
	if nv > 30 {
		return Infeasible, nil, fmt.Errorf("embed: %d columns exceeds the search limit", nv)
	}
	if 1<<uint(nv) < n {
		return Infeasible, nil, nil
	}
	s := &search{
		p:     p,
		n:     n,
		nv:    nv,
		enc:   face.NewEncoding(n, nv),
		used:  make(map[uint64]bool, n),
		limit: o.MaxNodes,
	}
	// Order symbols by decreasing constraint involvement so conflicts
	// surface early.
	s.order = make([]int, n)
	involvement := make([]int, n)
	for i, c := range p.Constraints {
		for _, m := range c.Members() {
			involvement[m] += p.Weight(i)
		}
	}
	for i := range s.order {
		s.order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && involvement[s.order[j]] > involvement[s.order[j-1]]; j-- {
			s.order[j], s.order[j-1] = s.order[j-1], s.order[j]
		}
	}
	ok := s.dfs(0, 0)
	switch {
	case ok:
		return Satisfiable, s.enc, nil
	case s.nodes >= s.limit:
		return Unknown, nil, nil
	default:
		return Infeasible, nil, nil
	}
}

type search struct {
	p      *face.Problem
	n, nv  int
	enc    *face.Encoding
	used   map[uint64]bool
	order  []int
	placed []int // symbols assigned so far, in order
	nodes  int
	limit  int
}

// dfs assigns the idx-th symbol of the order. maxBit counts the activated
// columns. Fresh columns are mutually interchangeable until first use, so
// a canonical candidate may use any activated columns plus a contiguous
// all-ones block of new columns starting at maxBit.
func (s *search) dfs(idx, maxBit int) bool {
	s.nodes++
	if s.nodes >= s.limit {
		return false
	}
	if idx == s.n {
		return true
	}
	sym := s.order[idx]
	limit := uint64(1) << uint(s.nv)
	if idx == 0 {
		limit = 1 // symbol pinned to code 0 (complement symmetry)
	}
	for code := uint64(0); code < limit; code++ {
		if s.used[code] {
			continue
		}
		if high := code >> uint(maxBit); high&(high+1) != 0 {
			continue // new columns must form a contiguous block
		}
		s.enc.Codes[sym] = code
		s.used[code] = true
		s.placed = append(s.placed, sym)
		if s.consistent(sym) {
			nb := maxBit
			if hb := bits.Len64(code); hb > nb {
				nb = hb
			}
			if s.dfs(idx+1, nb) {
				return true
			}
		}
		s.placed = s.placed[:len(s.placed)-1]
		delete(s.used, code)
	}
	if idx == 0 {
		// Symbol 0's only candidate was taken by... cannot happen; pinned
		// code 0 is always free at depth 0.
		return false
	}
	return false
}

// consistent checks every constraint touching the just-placed symbol (and
// every constraint at all — a non-member placement can intrude anywhere).
func (s *search) consistent(justPlaced int) bool {
	mask := uint64(1)<<uint(s.nv) - 1
	for ci, c := range s.p.Constraints {
		_ = ci
		// Supercube of placed members.
		agree := mask
		vals := uint64(0)
		nPlacedMembers := 0
		for _, sym := range s.placed {
			if !c.Has(sym) {
				continue
			}
			code := s.enc.Codes[sym]
			if nPlacedMembers == 0 {
				vals = code
			} else {
				agree &^= vals ^ code
			}
			nPlacedMembers++
		}
		if nPlacedMembers == 0 {
			continue
		}
		vals &= agree
		// Prune 1: a placed non-member inside the supercube stays inside.
		for _, sym := range s.placed {
			if c.Has(sym) {
				continue
			}
			if (s.enc.Codes[sym]^vals)&agree == 0 {
				return false
			}
		}
		// Prune 2 (exact, once all members are placed): every unplaced
		// symbol must receive a code outside the now-final supercube —
		// the free codes inside it can only stay unused. If the outside
		// free codes cannot host all unplaced symbols, the branch dies.
		if nPlacedMembers == c.Count() {
			dim := s.nv - bits.OnesCount64(agree&mask)
			freeInside := (1 << uint(dim)) - c.Count()
			freeTotal := (1 << uint(s.nv)) - len(s.placed)
			unplaced := s.n - len(s.placed)
			if unplaced > freeTotal-freeInside {
				return false
			}
		}
	}
	return true
}

// MinLength returns the exact minimum code length at which the problem is
// fully satisfiable, along with a witness. When any per-length decision
// exhausts its node budget the result is Unknown and the returned length
// is the first undecided one.
func MinLength(p *face.Problem, opts ...Options) (int, *face.Encoding, Result, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	maxNV := min(p.N(), 30)
	for nv := p.MinLength(); nv <= maxNV; nv++ {
		res, e, err := Feasible(p, nv, o)
		if err != nil {
			return 0, nil, Infeasible, err
		}
		switch res {
		case Satisfiable:
			return nv, e, Satisfiable, nil
		case Unknown:
			return nv, nil, Unknown, nil
		}
	}
	// One-hot at nv = n always works, so reaching here means the cap was
	// below the answer.
	return maxNV + 1, nil, Unknown, nil
}
