// Package face defines the shared vocabulary of the face-constrained
// encoding problem: symbol subsets (group constraints), problems (a symbol
// universe plus constraints), encodings (code matrices), and the one face
// geometry every encoder and the evaluator use — a constraint's
// supercube (Face) and the intruders inside it.
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

// IntersectCount returns |c ∩ o|.
func (c Constraint) IntersectCount(o Constraint) int {
	n := 0
	for i := range c.words {
		n += bits.OnesCount64(c.words[i] & o.words[i])
	}
	return n
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

// CodeLength resolves a requested code length: 0 means MinLength, and a
// length too short to distinguish the symbols or longer than an
// Encoding's 64 bits is an error.
func (p *Problem) CodeLength(nv int) (int, error) {
	switch {
	case nv == 0:
		return p.MinLength(), nil
	case nv < p.MinLength():
		return 0, fmt.Errorf("face: %d columns cannot distinguish %d symbols", nv, p.N())
	case nv > 64:
		return 0, fmt.Errorf("face: code length %d exceeds 64", nv)
	}
	return nv, nil
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

// Mask returns the word with the low NV bits set: the code columns.
func (e *Encoding) Mask() uint64 {
	// At NV = 64 the shift yields 0, so the mask is all ones.
	return uint64(1)<<uint(e.NV) - 1
}

// Injective reports whether all codes are distinct.
func (e *Encoding) Injective() bool {
	seen := make(map[uint64]bool, len(e.Codes))
	mask := e.Mask()
	for _, c := range e.Codes {
		c &= mask
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}

// SpareCodes lists, in ascending order, the codes of the 2^NV code space
// that no symbol holds.
func (e *Encoding) SpareCodes() []uint64 {
	used := make(map[uint64]bool, len(e.Codes))
	mask := e.Mask()
	for _, c := range e.Codes {
		used[c&mask] = true
	}
	var spares []uint64
	// At NV = 64 the bound is 0 and the list empty.
	for code := uint64(0); code < uint64(1)<<uint(e.NV); code++ {
		if !used[code] {
			spares = append(spares, code)
		}
	}
	return spares
}

// Face is a cube of the code space: the codes that hold Vals on every
// column of Agree and anything on the free columns. Vals has no bit
// outside Agree.
type Face struct {
	Agree uint64 // bit set: column fixed
	Vals  uint64 // the fixed columns' values
}

// Contains reports whether code lies in the face.
func (f Face) Contains(code uint64) bool { return (code^f.Vals)&f.Agree == 0 }

// Supercube returns super(c), the smallest face holding the codes of c's
// members: its fixed columns are those where every member code agrees. A
// constraint with no member gets the zero Face, which holds every code.
//
//picola:hot
func (e *Encoding) Supercube(c Constraint) Face {
	var f Face
	seen := false
	for wi, w := range c.words {
		for ; w != 0; w &= w - 1 {
			code := e.Codes[wi*64+bits.TrailingZeros64(w)]
			if !seen {
				f = Face{Agree: e.Mask(), Vals: code}
				seen = true
			}
			f.Agree &^= f.Vals ^ code // columns that ever differ stop agreeing
		}
	}
	f.Vals &= f.Agree
	return f
}

// IntruderCount returns how many non-members of c have codes inside f.
//
//picola:hot
func (e *Encoding) IntruderCount(c Constraint, f Face) int {
	k := 0
	for s, code := range e.Codes {
		if !c.Has(s) && f.Contains(code) {
			k++
		}
	}
	return k
}

// Satisfied reports whether the encoding satisfies constraint c: the
// supercube of the member codes contains no non-member code. A constraint
// with no member is satisfied.
//
//picola:hot
func (e *Encoding) Satisfied(c Constraint) bool {
	return c.Count() == 0 || e.IntruderCount(c, e.Supercube(c)) == 0
}

// Intruders returns the non-members of c whose codes lie inside the
// supercube of the member codes, ascending; nil for a constraint with no
// member.
func (e *Encoding) Intruders(c Constraint) []int {
	if c.Count() == 0 {
		return nil
	}
	f := e.Supercube(c)
	var out []int
	for s, code := range e.Codes {
		if !c.Has(s) && f.Contains(code) {
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
