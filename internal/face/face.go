// Package face defines the shared vocabulary of the face-constrained
// encoding problem: symbol subsets (group constraints), problems (a symbol
// universe plus constraints), and encodings (code matrices).
//
// A group constraint on symbols S = {S1..Sn} is a subset S' ⊆ S whose
// codes must span a Boolean cube that contains the code of no symbol
// outside S'. The encoders in internal/core and internal/baseline consume
// face.Problem values and produce face.Encoding values; the evaluator in
// internal/eval scores them.
package face

import (
	"fmt"
	"math/bits"
	"strings"
)

// Constraint is a subset of the n symbols of a problem, as a bitset.
type Constraint struct {
	words []uint64
	n     int
}

// NewConstraint returns an empty constraint over n symbols.
func NewConstraint(n int) Constraint {
	return Constraint{words: make([]uint64, (n+63)/64), n: n}
}

// FromMembers builds a constraint over n symbols containing the given
// symbol indices.
func FromMembers(n int, members ...int) Constraint {
	c := NewConstraint(n)
	for _, m := range members {
		c.Add(m)
	}
	return c
}

// N returns the size of the symbol universe.
func (c Constraint) N() int { return c.n }

// Add inserts symbol i.
func (c Constraint) Add(i int) {
	if i < 0 || i >= c.n {
		panic(fmt.Sprintf("face: symbol %d out of range [0,%d)", i, c.n))
	}
	c.words[i/64] |= 1 << (i % 64)
}

// Remove deletes symbol i.
func (c Constraint) Remove(i int) { c.words[i/64] &^= 1 << (i % 64) }

// Has reports whether symbol i is a member.
func (c Constraint) Has(i int) bool { return c.words[i/64]&(1<<(i%64)) != 0 }

// Count returns the number of members.
func (c Constraint) Count() int {
	n := 0
	for _, w := range c.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Members returns the member indices in ascending order.
func (c Constraint) Members() []int {
	out := make([]int, 0, c.Count())
	for i := 0; i < c.n; i++ {
		if c.Has(i) {
			out = append(out, i)
		}
	}
	return out
}

// Clone returns an independent copy.
func (c Constraint) Clone() Constraint {
	return Constraint{words: append([]uint64(nil), c.words...), n: c.n}
}

// Equal reports whether two constraints have identical membership.
func (c Constraint) Equal(o Constraint) bool {
	if c.n != o.n {
		return false
	}
	for i := range c.words {
		if c.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// ContainsAll reports whether every member of o is a member of c.
func (c Constraint) ContainsAll(o Constraint) bool {
	for i := range c.words {
		if o.words[i]&^c.words[i] != 0 {
			return false
		}
	}
	return true
}

// IntersectCount returns |c ∩ o|.
func (c Constraint) IntersectCount(o Constraint) int {
	n := 0
	for i := range c.words {
		n += bits.OnesCount64(c.words[i] & o.words[i])
	}
	return n
}

// Intersection returns c ∩ o.
func (c Constraint) Intersection(o Constraint) Constraint {
	out := NewConstraint(c.n)
	for i := range c.words {
		out.words[i] = c.words[i] & o.words[i]
	}
	return out
}

// Union returns c ∪ o.
func (c Constraint) Union(o Constraint) Constraint {
	out := NewConstraint(c.n)
	for i := range c.words {
		out.words[i] = c.words[i] | o.words[i]
	}
	return out
}

// Complement returns the symbols not in c.
func (c Constraint) Complement() Constraint {
	out := NewConstraint(c.n)
	for i := 0; i < c.n; i++ {
		if !c.Has(i) {
			out.Add(i)
		}
	}
	return out
}

// String renders the membership as a 0/1 string, symbol 0 first.
func (c Constraint) String() string {
	var sb strings.Builder
	for i := 0; i < c.n; i++ {
		if c.Has(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Key returns a canonical comparable key for deduplication.
func (c Constraint) Key() string { return c.String() }

// Problem is an instance of the face-constrained encoding problem.
// Weights[i] is the multiplicity of Constraints[i]: how many symbolic
// implicants produced it. Encoders use it to prioritize constraints whose
// satisfaction saves more product terms.
type Problem struct {
	Name        string
	Names       []string // symbol names; len(Names) == N
	Constraints []Constraint
	Weights     []int
}

// Weight returns the multiplicity of constraint i (1 when Weights is not
// populated).
func (p *Problem) Weight(i int) int {
	if i < len(p.Weights) && p.Weights[i] > 0 {
		return p.Weights[i]
	}
	return 1
}

// N returns the number of symbols.
func (p *Problem) N() int { return len(p.Names) }

// MinLength returns ceil(log2 N), the minimum code length that
// distinguishes every symbol; 1 when there are fewer than two symbols.
func (p *Problem) MinLength() int {
	n := p.N()
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// AddConstraint appends a constraint, dropping trivial constraints (fewer
// than two members) and the full set. A duplicate of an existing
// constraint increments that constraint's weight instead.
func (p *Problem) AddConstraint(c Constraint) {
	if c.Count() < 2 || c.Count() >= p.N() {
		return
	}
	for i, e := range p.Constraints {
		if e.Equal(c) {
			for len(p.Weights) < len(p.Constraints) {
				p.Weights = append(p.Weights, 1)
			}
			p.Weights[i]++
			return
		}
	}
	p.Constraints = append(p.Constraints, c)
	for len(p.Weights) < len(p.Constraints) {
		p.Weights = append(p.Weights, 1)
	}
}

// Validate checks internal consistency.
func (p *Problem) Validate() error {
	for i, c := range p.Constraints {
		if c.N() != p.N() {
			return fmt.Errorf("face: constraint %d over %d symbols, problem has %d", i, c.N(), p.N())
		}
	}
	return nil
}

// String renders the problem as a constraint matrix, one row per
// constraint.
func (p *Problem) String() string {
	rows := make([]string, 0, len(p.Constraints)+1)
	rows = append(rows, fmt.Sprintf("problem %s: %d symbols, %d constraints",
		p.Name, p.N(), len(p.Constraints)))
	for _, c := range p.Constraints {
		rows = append(rows, c.String())
	}
	return strings.Join(rows, "\n")
}

// Encoding is an assignment of nv-bit binary codes to n symbols. Codes are
// stored little-endian in a uint64 (bit/column 0 is the least significant
// bit), which caps nv at 64 — far beyond the minimum-length problems this
// repository targets.
type Encoding struct {
	NV    int
	Codes []uint64 // Codes[sym]
}

// NewEncoding returns an all-zero encoding of n symbols with nv columns.
func NewEncoding(n, nv int) *Encoding {
	if nv > 64 {
		panic("face: encodings longer than 64 bits are unsupported")
	}
	return &Encoding{NV: nv, Codes: make([]uint64, n)}
}

// N returns the number of symbols.
func (e *Encoding) N() int { return len(e.Codes) }

// Bit returns column col of symbol sym's code (0 or 1).
func (e *Encoding) Bit(sym, col int) int {
	return int(e.Codes[sym]>>uint(col)) & 1
}

// SetBit sets column col of symbol sym's code to b.
func (e *Encoding) SetBit(sym, col, b int) {
	if b != 0 {
		e.Codes[sym] |= 1 << uint(col)
	} else {
		e.Codes[sym] &^= 1 << uint(col)
	}
}

// CodeString returns symbol sym's code as a bit string, column 0 first.
func (e *Encoding) CodeString(sym int) string {
	var sb strings.Builder
	for c := 0; c < e.NV; c++ {
		sb.WriteByte(byte('0' + e.Bit(sym, c)))
	}
	return sb.String()
}

// Injective reports whether all codes are distinct.
func (e *Encoding) Injective() bool {
	seen := make(map[uint64]bool, len(e.Codes))
	mask := uint64(1)<<uint(e.NV) - 1
	if e.NV == 64 {
		mask = ^uint64(0)
	}
	for _, c := range e.Codes {
		c &= mask
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// Satisfied reports whether the encoding satisfies constraint c: the
// minimal cube spanned by the member codes contains no non-member code.
// The spanned cube is characterized by the columns where all members
// agree; a non-member is excluded iff it differs in one of those columns.
func (e *Encoding) Satisfied(c Constraint) bool {
	return len(e.Intruders(c)) == 0
}

// Intruders returns the non-members of c whose codes lie inside the
// supercube of the member codes, ascending.
func (e *Encoding) Intruders(c Constraint) []int {
	members := c.Members()
	if len(members) == 0 {
		return nil
	}
	// agree: columns where all members share a value; val: that value.
	var agreeMask, val uint64
	first := e.Codes[members[0]]
	agreeMask = (uint64(1)<<uint(e.NV) - 1)
	if e.NV == 64 {
		agreeMask = ^uint64(0)
	}
	val = first
	for _, m := range members[1:] {
		agreeMask &^= val ^ e.Codes[m] // columns that ever differ stop agreeing
	}
	var out []int
	for s := 0; s < len(e.Codes); s++ {
		if c.Has(s) {
			continue
		}
		if (e.Codes[s]^val)&agreeMask == 0 {
			out = append(out, s)
		}
	}
	return out
}

// Clone returns an independent copy of the encoding.
func (e *Encoding) Clone() *Encoding {
	return &Encoding{NV: e.NV, Codes: append([]uint64(nil), e.Codes...)}
}

// String renders the encoding one symbol per line using the given names
// (nil for S0..Sn-1 defaults).
func (e *Encoding) String() string {
	var sb strings.Builder
	for s := range e.Codes {
		fmt.Fprintf(&sb, "S%d %s\n", s, e.CodeString(s))
	}
	return sb.String()
}
