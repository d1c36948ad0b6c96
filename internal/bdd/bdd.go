// Package bdd implements reduced ordered binary decision diagrams with
// hash-consing and memoized ITE — the canonical-form substrate used as an
// independent oracle for two-level results: two functions are equal
// exactly when their BDD references coincide, so cover equivalence,
// complement correctness and encoded-machine equality can be checked
// against an entirely different representation than the unate-recursive
// cover algebra.
package bdd

import (
	"fmt"

	"picola/internal/cover"
	"picola/internal/cube"
)

// Ref is a node reference. The constants False and True are the terminal
// nodes; all other references are produced by a Manager.
type Ref int32

// Terminal nodes.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level  int32 // variable index; terminals use the manager's nvars
	lo, hi Ref
}

type triple struct {
	level  int32
	lo, hi Ref
}

type iteKey struct{ f, g, h Ref }

// Manager owns a BDD forest over a fixed variable order x0 < x1 < …
type Manager struct {
	nvars  int
	nodes  []node
	unique map[triple]Ref
	ite    map[iteKey]Ref
}

// New creates a manager over nvars variables.
func New(nvars int) *Manager {
	m := &Manager{
		nvars:  nvars,
		unique: make(map[triple]Ref),
		ite:    make(map[iteKey]Ref),
	}
	term := int32(nvars)
	m.nodes = []node{{level: term}, {level: term}} // False, True
	return m
}

func (m *Manager) mk(level int32, lo, hi Ref) Ref {
	if lo == hi {
		return lo
	}
	k := triple{level, lo, hi}
	if r, ok := m.unique[k]; ok {
		return r
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, node{level, lo, hi})
	m.unique[k] = r
	return r
}

// Var returns the function x_i.
func (m *Manager) Var(i int) Ref {
	if i < 0 || i >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range", i))
	}
	return m.mk(int32(i), False, True)
}

// NVar returns the function ¬x_i.
func (m *Manager) NVar(i int) Ref {
	if i < 0 || i >= m.nvars {
		panic(fmt.Sprintf("bdd: variable %d out of range", i))
	}
	return m.mk(int32(i), True, False)
}

func (m *Manager) level(r Ref) int32 { return m.nodes[r].level }

// Ite computes if-then-else(f, g, h) — the universal connective.
func (m *Manager) Ite(f, g, h Ref) Ref {
	switch {
	case f == True:
		return g
	case f == False:
		return h
	case g == h:
		return g
	case g == True && h == False:
		return f
	}
	k := iteKey{f, g, h}
	if r, ok := m.ite[k]; ok {
		return r
	}
	top := m.level(f)
	if l := m.level(g); l < top {
		top = l
	}
	if l := m.level(h); l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	r := m.mk(top, m.Ite(f0, g0, h0), m.Ite(f1, g1, h1))
	m.ite[k] = r
	return r
}

func (m *Manager) cofactors(f Ref, level int32) (lo, hi Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.lo, n.hi
}

// And returns f ∧ g.
func (m *Manager) And(f, g Ref) Ref { return m.Ite(f, g, False) }

// Or returns f ∨ g.
func (m *Manager) Or(f, g Ref) Ref { return m.Ite(f, True, g) }

// Eval evaluates f under a complete assignment.
func (m *Manager) Eval(f Ref, assignment []bool) bool {
	for f != True && f != False {
		n := m.nodes[f]
		if assignment[n.level] {
			f = n.hi
		} else {
			f = n.lo
		}
	}
	return f == True
}

// FromCube converts one cube over a binary domain into a BDD.
func (m *Manager) FromCube(d *cube.Domain, c cube.Cube) Ref {
	f := True
	for v := 0; v < d.NumVars(); v++ {
		switch d.BinLit(c, v) {
		case cube.LitZero:
			f = m.And(f, m.NVar(v))
		case cube.LitOne:
			f = m.And(f, m.Var(v))
		case cube.LitEmpty:
			return False
		}
	}
	return f
}

// FromCover converts a cover over a binary domain (the OR of its cubes).
func (m *Manager) FromCover(f *cover.Cover) Ref {
	out := False
	for _, c := range f.Cubes {
		out = m.Or(out, m.FromCube(f.D, c))
	}
	return out
}

// FromOutputCover converts one output of a multi-output cover (binary
// inputs followed by one output variable): the input regions of the cubes
// asserting output o.
//
//lint:ignore deadexport per-output oracle of TestEncodedMachineAgainstBDDOracle (integration_test.go)
func (m *Manager) FromOutputCover(f *cover.Cover, inputs, o int) Ref {
	d := f.D
	out := False
	for _, c := range f.Cubes {
		if !d.Has(c, inputs, o) {
			continue
		}
		g := True
		for v := 0; v < inputs; v++ {
			switch d.BinLit(c, v) {
			case cube.LitZero:
				g = m.And(g, m.NVar(v))
			case cube.LitOne:
				g = m.And(g, m.Var(v))
			case cube.LitEmpty:
				g = False
			}
		}
		out = m.Or(out, g)
	}
	return out
}
