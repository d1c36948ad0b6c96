// Package cube implements multi-valued cube algebra in positional
// (espresso-internal) notation.
//
// A Domain describes an ordered list of variables; each variable has a fixed
// number of values (a binary variable has two). A Cube assigns every
// variable a non-empty subset of its values, encoded as a bit-field packed
// into []uint64 words: bit set means "this value is allowed". A binary
// variable's field therefore reads as
//
//	01 -> literal 0, 10 -> literal 1, 11 -> don't care, 00 -> empty
//
// and a symbolic (multi-valued) variable of k values is a k-bit subset.
// A cube denotes the set of minterms whose every variable takes one of the
// allowed values; a cube with any empty field denotes the empty set.
//
// This is the exact representation used inside Berkeley espresso, which
// makes intersection a bitwise AND, the supercube a bitwise OR, and
// containment a bitwise subset test. Multi-output functions are modeled by
// appending one multi-valued variable whose values are the outputs.
package cube

import (
	"fmt"
	"math/bits"
	"strings"
)

// Lit is the classical three-valued literal of a binary variable.
type Lit uint8

// Literal values of a binary variable inside a cube.
const (
	LitEmpty Lit = iota // no value allowed: the cube is empty
	LitZero             // the variable must be 0
	LitOne              // the variable must be 1
	LitDC               // don't care: 0 or 1
)

// String returns the PLA character for the literal.
func (l Lit) String() string {
	switch l {
	case LitZero:
		return "0"
	case LitOne:
		return "1"
	case LitDC:
		return "-"
	default:
		return "~"
	}
}

// wordSpan locates one variable's bit-field inside the word array.
type wordSpan struct {
	word int
	mask uint64
}

// Domain describes the variables over which cubes are formed. A Domain is
// immutable after creation and safe for concurrent use.
type Domain struct {
	sizes  []int
	offs   []int // starting bit of each variable
	nbits  int
	nwords int
	spans  [][]wordSpan // per-variable word/mask pairs covering its field
	bitVar []int        // owning variable per absolute bit

	// Single-word kernel state. When every field of a cube fits in word 0
	// (nwords == 1), the per-variable span loops above collapse to direct
	// uint64 operations against these precomputed masks. The selection is
	// made once here, at construction; the generic span path remains the
	// reference implementation (see Generic) and is cross-checked against
	// the kernels in the package tests. Every wider domain runs the span
	// loops for its per-variable operations (PartEmpty, PartFull,
	// PartCount, SetAll, ClearAll, FullParts): on espresso's two- and
	// three-word covers they take under 3 % of the time, too little for a
	// fixed-width tier to pay for itself.
	w1    bool
	vmask []uint64 // per-variable field mask within word 0

	// Word-parallel field tests, precomputed for every width. low[i]
	// holds the low bit of each binary field lying inside word i, so for
	// a cube word x, (x|x>>1)&low[i] == low[i] says every such field is
	// non-empty and low[i]&^(x&(x>>1)) marks the ones that are not full:
	// one test per word instead of one per field. Every other field —
	// multi-valued, 1-valued, or binary but straddling a word boundary
	// (a binary field at bit 63) — is listed in odd and takes one mask
	// test. Every multi-word domain (multi) runs its whole-cube emptiness
	// tests this way; at any width the tautology kernel of internal/cover
	// reaches them through AddNonFull.
	low   []uint64
	odd   []int
	fullw []uint64 // universe words
	multi bool
}

// New creates a domain with the given number of values per variable.
// Every size must be at least 1 (a 1-valued variable is degenerate but
// legal; it carries no information).
func New(sizes ...int) *Domain {
	d := &Domain{sizes: append([]int(nil), sizes...)}
	d.offs = make([]int, len(sizes))
	for i, s := range sizes {
		if s < 1 {
			panic(fmt.Sprintf("cube: variable %d has size %d", i, s))
		}
		d.offs[i] = d.nbits
		d.nbits += s
	}
	d.nwords = (d.nbits + 63) / 64
	if d.nwords == 0 {
		d.nwords = 1
	}
	d.spans = make([][]wordSpan, len(sizes))
	for v := range sizes {
		d.spans[v] = spansFor(d.offs[v], d.sizes[v])
	}
	d.bitVar = make([]int, d.nbits)
	for v := range sizes {
		for val := 0; val < d.sizes[v]; val++ {
			d.bitVar[d.offs[v]+val] = v
		}
	}
	d.low = make([]uint64, d.nwords)
	d.fullw = make([]uint64, d.nwords)
	for v := range sizes {
		if d.sizes[v] == 2 && len(d.spans[v]) == 1 {
			d.low[d.offs[v]/64] |= 1 << (d.offs[v] % 64)
		} else {
			d.odd = append(d.odd, v)
		}
		for _, s := range d.spans[v] {
			d.fullw[s.word] |= s.mask
		}
	}
	if d.nbits <= 64 {
		d.w1 = true
		d.vmask = make([]uint64, len(sizes))
		for v := range sizes {
			d.vmask[v] = d.spans[v][0].mask
		}
	}
	d.multi = d.nwords > 1
	return d
}

// SingleWord reports whether the domain's cubes fit in one uint64 word and
// the single-word kernels are selected.
func (d *Domain) SingleWord() bool { return d.w1 }

// VarMasks returns the per-variable field masks within word 0, or nil when
// the domain is not single-word. The slice is shared and must not be
// modified.
func (d *Domain) VarMasks() []uint64 { return d.vmask }

// FullWords returns the universe cube's words — the union of every
// variable's field masks, word by word — at every width. The slice is
// shared and must not be modified.
func (d *Domain) FullWords() []uint64 { return d.fullw }

// Generic returns a copy of the domain with the single-word kernels and
// the word-parallel whole-cube tests disabled, so every operation takes
// the span-loop reference path. It exists for tests and benchmarks: the
// generic path is the oracle the kernels are checked against.
//
//lint:ignore deadexport kernel oracle of the cube kernel tests, TestTautologyKernelMatchesGeneric (cover) and the bench_test.go kernel benchmarks
func (d *Domain) Generic() *Domain {
	g := *d
	g.w1 = false
	g.vmask = nil
	g.multi = false
	return &g
}

// Binary creates a domain of n binary variables.
func Binary(n int) *Domain {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 2
	}
	return New(sizes...)
}

// WithOutputs creates a domain of n binary input variables followed by one
// multi-valued output variable of m values. This is the standard espresso
// layout for an n-input, m-output function.
func WithOutputs(n, m int) *Domain {
	sizes := make([]int, n+1)
	for i := 0; i < n; i++ {
		sizes[i] = 2
	}
	sizes[n] = m
	return New(sizes...)
}

func spansFor(off, size int) []wordSpan {
	var out []wordSpan
	bit := off
	end := off + size
	for bit < end {
		w := bit / 64
		lo := bit % 64
		hi := 64
		if end-w*64 < 64 {
			hi = end - w*64
		}
		var m uint64
		if hi-lo == 64 {
			m = ^uint64(0)
		} else {
			m = ((uint64(1) << (hi - lo)) - 1) << lo
		}
		out = append(out, wordSpan{w, m})
		bit = w*64 + hi
	}
	return out
}

// NumVars returns the number of variables.
func (d *Domain) NumVars() int { return len(d.sizes) }

// VarOfBit returns the variable owning the absolute bit index.
func (d *Domain) VarOfBit(bit int) int { return d.bitVar[bit] }

// BitOf returns the absolute bit index of value val of variable v.
func (d *Domain) BitOf(v, val int) int { return d.offs[v] + val }

// Size returns the number of values of variable v.
func (d *Domain) Size(v int) int { return d.sizes[v] }

// Sizes returns a copy of the per-variable value counts.
func (d *Domain) Sizes() []int { return append([]int(nil), d.sizes...) }

// Bits returns the total number of bits of a cube in this domain.
func (d *Domain) Bits() int { return d.nbits }

// Words returns the number of uint64 words backing a cube.
func (d *Domain) Words() int { return d.nwords }

// Cube is a positional-notation cube. Its length equals Domain.Words() for
// the domain it belongs to. The zero-length Cube is not valid; obtain cubes
// from Domain methods or Clone.
type Cube []uint64

// NewCube returns a cube with every field empty (the empty set).
func (d *Domain) NewCube() Cube { return make(Cube, d.nwords) }

// Universe returns the cube allowing every value of every variable.
func (d *Domain) Universe() Cube {
	c := d.NewCube()
	for v := range d.sizes {
		d.SetAll(c, v)
	}
	return c
}

// Clone returns a copy of c.
func (c Cube) Clone() Cube { return append(Cube(nil), c...) }

// Has reports whether value val of variable v is allowed in c.
func (d *Domain) Has(c Cube, v, val int) bool {
	bit := d.offs[v] + val
	return c[bit/64]&(1<<(bit%64)) != 0
}

// Set allows value val of variable v in c.
func (d *Domain) Set(c Cube, v, val int) {
	bit := d.offs[v] + val
	c[bit/64] |= 1 << (bit % 64)
}

// ClearVal disallows value val of variable v in c.
func (d *Domain) ClearVal(c Cube, v, val int) {
	bit := d.offs[v] + val
	c[bit/64] &^= 1 << (bit % 64)
}

// SetAll allows every value of variable v in c (a full field).
func (d *Domain) SetAll(c Cube, v int) {
	if d.w1 {
		c[0] |= d.vmask[v]
		return
	}
	for _, s := range d.spans[v] {
		c[s.word] |= s.mask
	}
}

// ClearAll disallows every value of variable v in c (an empty field).
func (d *Domain) ClearAll(c Cube, v int) {
	if d.w1 {
		c[0] &^= d.vmask[v]
		return
	}
	for _, s := range d.spans[v] {
		c[s.word] &^= s.mask
	}
}

// Restrict sets variable v of c to exactly the single value val.
func (d *Domain) Restrict(c Cube, v, val int) {
	d.ClearAll(c, v)
	d.Set(c, v, val)
}

// PartEmpty reports whether variable v's field in c is empty.
func (d *Domain) PartEmpty(c Cube, v int) bool {
	if d.w1 {
		return c[0]&d.vmask[v] == 0
	}
	for _, s := range d.spans[v] {
		if c[s.word]&s.mask != 0 {
			return false
		}
	}
	return true
}

// PartFull reports whether variable v's field in c allows every value.
func (d *Domain) PartFull(c Cube, v int) bool {
	if d.w1 {
		m := d.vmask[v]
		return c[0]&m == m
	}
	for _, s := range d.spans[v] {
		if c[s.word]&s.mask != s.mask {
			return false
		}
	}
	return true
}

// PartCount returns the number of allowed values of variable v in c.
func (d *Domain) PartCount(c Cube, v int) int {
	if d.w1 {
		return bits.OnesCount64(c[0] & d.vmask[v])
	}
	n := 0
	for _, s := range d.spans[v] {
		n += bits.OnesCount64(c[s.word] & s.mask)
	}
	return n
}

// SharedValues returns the number of values of variable v that both a and
// b allow; zero means the two fields are disjoint.
func (d *Domain) SharedValues(a, b Cube, v int) int {
	if d.w1 {
		return bits.OnesCount64(a[0] & b[0] & d.vmask[v])
	}
	n := 0
	for _, s := range d.spans[v] {
		n += bits.OnesCount64(a[s.word] & b[s.word] & s.mask)
	}
	return n
}

// BinLit returns the literal of binary variable v in c. It panics if the
// variable is not binary.
func (d *Domain) BinLit(c Cube, v int) Lit {
	if d.sizes[v] != 2 {
		panic(fmt.Sprintf("cube: BinLit on %d-valued variable %d", d.sizes[v], v))
	}
	has0 := d.Has(c, v, 0)
	has1 := d.Has(c, v, 1)
	switch {
	case has0 && has1:
		return LitDC
	case has0:
		return LitZero
	case has1:
		return LitOne
	default:
		return LitEmpty
	}
}

// SetBinLit sets binary variable v of c to the literal l.
func (d *Domain) SetBinLit(c Cube, v int, l Lit) {
	d.ClearAll(c, v)
	switch l {
	case LitZero:
		d.Set(c, v, 0)
	case LitOne:
		d.Set(c, v, 1)
	case LitDC:
		d.Set(c, v, 0)
		d.Set(c, v, 1)
	}
}

// IsEmpty reports whether c denotes the empty set, i.e. whether any
// variable's field is empty.
//
//picola:hot
func (d *Domain) IsEmpty(c Cube) bool {
	if d.w1 {
		w := c[0]
		for _, m := range d.vmask {
			if w&m == 0 {
				return true
			}
		}
		return false
	}
	if d.multi {
		return !d.meets(c, c)
	}
	for v := range d.sizes {
		if d.PartEmpty(c, v) {
			return true
		}
	}
	return false
}

// Intersect stores a AND b into dst and reports whether the result is a
// non-empty cube. dst may alias a or b.
//
//picola:hot
func (d *Domain) Intersect(dst, a, b Cube) bool {
	if d.w1 {
		w := a[0] & b[0]
		dst[0] = w
		for _, m := range d.vmask {
			if w&m == 0 {
				return false
			}
		}
		return true
	}
	for i := range dst {
		dst[i] = a[i] & b[i]
	}
	return !d.IsEmpty(dst)
}

// Intersects reports whether a and b have a non-empty intersection without
// materializing it.
//
//picola:hot
func (d *Domain) Intersects(a, b Cube) bool {
	if d.w1 {
		w := a[0] & b[0]
		for _, m := range d.vmask {
			if w&m == 0 {
				return false
			}
		}
		return true
	}
	if d.multi {
		return d.meets(a, b)
	}
	for v := range d.sizes {
		empty := true
		for _, s := range d.spans[v] {
			if a[s.word]&b[s.word]&s.mask != 0 {
				empty = false
				break
			}
		}
		if empty {
			return false
		}
	}
	return true
}

// Supercube stores into dst the smallest cube containing both a and b
// (bitwise OR). dst may alias a or b.
//
//picola:hot
func (d *Domain) Supercube(dst, a, b Cube) {
	for i := range dst {
		dst[i] = a[i] | b[i]
	}
}

// Contains reports whether a contains b as sets, i.e. b's allowed values are
// a subset of a's in every variable. Both cubes must be non-empty for the
// set interpretation to be meaningful.
//
//picola:hot
func (d *Domain) Contains(a, b Cube) bool {
	for i := range a {
		if b[i]&^a[i] != 0 {
			return false
		}
	}
	return true
}

// Cofactor stores into dst the cofactor of c with respect to p (the Shannon
// cofactor generalized to cubes): for every variable the field becomes
// c ∪ ¬p. It reports false, leaving dst unspecified, when c and p do not
// intersect (the cofactor is empty). dst may alias c but not p.
//
//picola:hot
func (d *Domain) Cofactor(dst, c, p Cube) bool {
	if d.w1 {
		w := c[0] & p[0]
		for _, m := range d.vmask {
			if w&m == 0 {
				return false
			}
		}
		full := d.fullw[0]
		dst[0] = dst[0]&^full | (c[0]|^p[0])&full
		return true
	}
	if d.multi {
		return d.cofactorMulti(dst, c, p)
	}
	if !d.Intersects(c, p) {
		return false
	}
	for v := range d.sizes {
		for _, s := range d.spans[v] {
			dst[s.word] = dst[s.word]&^s.mask | (c[s.word]|(^p[s.word]))&s.mask
		}
	}
	return true
}

// FullParts returns the number of variables whose field is full. For a cube
// over binary variables this is the cube's dimension (number of don't-care
// positions).
func (d *Domain) FullParts(c Cube) int {
	if d.w1 {
		w := c[0]
		n := 0
		for _, m := range d.vmask {
			if w&m == m {
				n++
			}
		}
		return n
	}
	n := 0
	for v := range d.sizes {
		if d.PartFull(c, v) {
			n++
		}
	}
	return n
}

// Literals returns the number of variables whose field is not full — the
// literal count of the cube as a product term.
func (d *Domain) Literals(c Cube) int {
	return d.NumVars() - d.FullParts(c)
}

// SetBits returns the total number of set bits in c. Espresso uses this as
// a secondary cost: among covers with equal cardinality, more set bits means
// larger cubes and usually fewer connections.
func SetBits(c Cube) int {
	n := 0
	for _, w := range c {
		n += bits.OnesCount64(w)
	}
	return n
}

// ValueCube returns the cube that is the universe except that variable v is
// restricted to the single value val.
func (d *Domain) ValueCube(v, val int) Cube {
	c := d.Universe()
	d.Restrict(c, v, val)
	return c
}

// String renders c in the domain: binary variables as one character from
// {0,1,-,~}, multi-valued variables as their bit-string wrapped in
// brackets, fields separated for readability only where a multi-valued
// variable occurs.
func (d *Domain) String(c Cube) string {
	var sb strings.Builder
	for v := range d.sizes {
		if d.sizes[v] == 2 {
			sb.WriteString(d.BinLit(c, v).String())
			continue
		}
		sb.WriteByte('[')
		for val := 0; val < d.sizes[v]; val++ {
			if d.Has(c, v, val) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sb.WriteByte(']')
	}
	return sb.String()
}

// Parse parses the String format back into a cube. Binary variables accept
// 0, 1, - or ~; a multi-valued variable of k values expects [k bits].
func (d *Domain) Parse(s string) (Cube, error) {
	c := d.NewCube()
	i := 0
	for v := range d.sizes {
		if d.sizes[v] == 2 {
			if i >= len(s) {
				return nil, fmt.Errorf("cube: input too short at variable %d", v)
			}
			switch s[i] {
			case '0':
				d.Set(c, v, 0)
			case '1':
				d.Set(c, v, 1)
			case '-', '2':
				d.Set(c, v, 0)
				d.Set(c, v, 1)
			case '~':
			default:
				return nil, fmt.Errorf("cube: bad literal %q at variable %d", s[i], v)
			}
			i++
			continue
		}
		if i >= len(s) || s[i] != '[' {
			return nil, fmt.Errorf("cube: expected '[' at variable %d", v)
		}
		i++
		for val := 0; val < d.sizes[v]; val++ {
			if i >= len(s) {
				return nil, fmt.Errorf("cube: input too short at variable %d", v)
			}
			switch s[i] {
			case '1':
				d.Set(c, v, val)
			case '0':
			default:
				return nil, fmt.Errorf("cube: bad bit %q at variable %d", s[i], v)
			}
			i++
		}
		if i >= len(s) || s[i] != ']' {
			return nil, fmt.Errorf("cube: expected ']' at variable %d", v)
		}
		i++
	}
	if i != len(s) {
		return nil, fmt.Errorf("cube: trailing input %q", s[i:])
	}
	return c, nil
}

// MustParse is Parse that panics on error; intended for tests and fixtures.
func (d *Domain) MustParse(s string) Cube {
	c, err := d.Parse(s)
	if err != nil {
		panic(err)
	}
	return c
}
