package face

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstraintBasics(t *testing.T) {
	c := FromMembers(10, 1, 3, 7)
	if c.Count() != 3 || !c.Has(3) || c.Has(2) {
		t.Fatal("membership wrong")
	}
	c.Remove(3)
	if c.Has(3) || c.Count() != 2 {
		t.Fatal("Remove failed")
	}
	m := c.Members()
	if len(m) != 2 || m[0] != 1 || m[1] != 7 {
		t.Fatalf("Members = %v", m)
	}
	if c.String() != "0100000100" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestConstraintSetOps(t *testing.T) {
	a := FromMembers(8, 0, 1, 2)
	b := FromMembers(8, 2, 3)
	if a.IntersectCount(b) != 1 {
		t.Fatal("IntersectCount")
	}
	if got := b.Complement().Count(); got != 6 {
		t.Fatalf("Complement count = %d", got)
	}
	if !a.Equal(a.Clone()) || a.Equal(b) {
		t.Fatal("Equal")
	}
}

func TestConstraintLargeUniverse(t *testing.T) {
	c := FromMembers(130, 0, 63, 64, 129)
	if c.Count() != 4 || !c.Has(64) || !c.Has(129) {
		t.Fatal("multi-word constraint broken")
	}
	if got := c.Complement().Count(); got != 126 {
		t.Fatalf("Complement = %d", got)
	}
}

func TestProblemMinLength(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {15, 4}, {16, 4}, {17, 5}, {121, 7},
	}
	for _, tc := range cases {
		p := &Problem{Names: make([]string, tc.n)}
		if got := p.MinLength(); got != tc.want {
			t.Errorf("MinLength(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestAddConstraintFilters(t *testing.T) {
	p := &Problem{Names: make([]string, 5)}
	p.AddConstraint(FromMembers(5, 1))             // too small
	p.AddConstraint(FromMembers(5, 0, 1, 2, 3, 4)) // full set
	p.AddConstraint(FromMembers(5, 1, 2))
	p.AddConstraint(FromMembers(5, 1, 2)) // duplicate
	p.AddConstraint(FromMembers(5, 3, 4))
	if len(p.Constraints) != 2 {
		t.Fatalf("constraints = %d", len(p.Constraints))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingBits(t *testing.T) {
	e := NewEncoding(4, 3)
	e.Codes[2] = 0b101
	if e.Bit(2, 0) != 1 || e.Bit(2, 1) != 0 || e.Bit(2, 2) != 1 {
		t.Fatal("Bit")
	}
	e.SetBit(0, 1, 1)
	if e.Codes[0] != 0b010 {
		t.Fatalf("Codes[0] = %b", e.Codes[0])
	}
	e.SetBit(0, 1, 0)
	if e.Codes[0] != 0 {
		t.Fatal("SetBit clear failed")
	}
	if e.CodeString(2) != "101" {
		t.Fatalf("CodeString = %q", e.CodeString(2))
	}
}

func TestInjective(t *testing.T) {
	e := NewEncoding(3, 2)
	e.Codes[0], e.Codes[1], e.Codes[2] = 0, 1, 2
	if !e.Injective() {
		t.Fatal("distinct codes must be injective")
	}
	e.Codes[2] = 1
	if e.Injective() {
		t.Fatal("duplicate codes must not be injective")
	}
	// Bits beyond NV must be ignored.
	e.Codes[2] = 1 | 1<<10
	if e.Injective() {
		t.Fatal("high bits beyond NV must be masked")
	}
}

// bruteIntruders recomputes intruders by explicit supercube span.
func bruteIntruders(e *Encoding, c Constraint) []int {
	members := c.Members()
	if len(members) == 0 {
		return nil
	}
	var out []int
	for s := 0; s < e.N(); s++ {
		if c.Has(s) {
			continue
		}
		inside := true
		for col := 0; col < e.NV; col++ {
			b0 := e.Bit(members[0], col)
			allSame := true
			for _, m := range members {
				if e.Bit(m, col) != b0 {
					allSame = false
					break
				}
			}
			if allSame && e.Bit(s, col) != b0 {
				inside = false
				break
			}
		}
		if inside {
			out = append(out, s)
		}
	}
	return out
}

// bruteSupercube recomputes super(c) column by column: a column is fixed
// when every member's bit there equals the first member's.
func bruteSupercube(e *Encoding, c Constraint) Face {
	var f Face
	members := c.Members()
	if len(members) == 0 {
		return f
	}
	for col := 0; col < e.NV; col++ {
		b0 := e.Bit(members[0], col)
		allSame := true
		for _, m := range members {
			if e.Bit(m, col) != b0 {
				allSame = false
				break
			}
		}
		if allSame {
			f.Agree |= 1 << uint(col)
			f.Vals |= uint64(b0) << uint(col)
		}
	}
	return f
}

// TestIntrudersAgainstBruteForce checks Supercube, IntruderCount,
// Intruders and Satisfied against the column-by-column references, over
// member bitsets of one to three words and code lengths 1 to 64. Above
// nv 8 the codes vary on a few columns only, so faces still hold
// intruders, and some trials set stray bits above NV, which every answer
// must ignore.
func TestIntrudersAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	words := map[int]bool{}
	wideIntruded := 0 // trials above nv 8 whose face holds an intruder
	for trial := 0; trial < 600; trial++ {
		n := 2 + r.Intn(129)
		nv := 1 + r.Intn(64)
		switch {
		case trial < 200:
			n, nv = 2+r.Intn(14), 1+r.Intn(5)
		case trial%20 == 0:
			nv = 64 // the mask with every bit set
		}
		e := NewEncoding(n, nv)
		mask := e.Mask()
		vary := mask
		if nv > 8 {
			vary = r.Uint64() & r.Uint64() & r.Uint64() & mask
		}
		base := r.Uint64()
		stray := r.Intn(4) == 0
		for s := 0; s < n; s++ {
			e.Codes[s] = (base ^ r.Uint64()&vary) & mask
			if stray {
				e.Codes[s] |= r.Uint64() &^ mask
			}
		}
		c := NewConstraint(n)
		density := 2 + r.Intn(8)
		for s := 0; s < n; s++ {
			if r.Intn(density) == 0 {
				c.Add(s)
			}
		}
		if c.Count() == 0 {
			continue
		}
		words[(n+63)/64] = true
		f := e.Supercube(c)
		if want := bruteSupercube(e, c); f != want {
			t.Fatalf("trial %d (n=%d nv=%d): Supercube = %+v, want %+v", trial, n, nv, f, want)
		}
		got := e.Intruders(c)
		want := bruteIntruders(e, c)
		if len(got) != len(want) {
			t.Fatalf("intruders %v want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("intruders %v want %v", got, want)
			}
		}
		if k := e.IntruderCount(c, f); k != len(want) {
			t.Fatalf("trial %d: IntruderCount = %d, want %d", trial, k, len(want))
		}
		if e.Satisfied(c) != (len(want) == 0) {
			t.Fatal("Satisfied disagrees with Intruders")
		}
		if nv > 8 && len(want) > 0 {
			wideIntruded++
		}
	}
	t.Logf("%d trials above nv 8 had intruders", wideIntruded)
	if wideIntruded == 0 {
		t.Fatal("no trial above nv 8 had an intruder")
	}
	if len(words) != 3 {
		t.Fatalf("member bitsets of %d distinct word counts, want 1 to 3", len(words))
	}
}

// TestEmptyConstraintFace pins a constraint with no member: its supercube
// is the zero Face, which contains every code, and it is satisfied with no
// intruders.
func TestEmptyConstraintFace(t *testing.T) {
	e := NewEncoding(5, 3)
	for s := range e.Codes {
		e.Codes[s] = uint64(s)
	}
	c := NewConstraint(5)
	f := e.Supercube(c)
	if f != (Face{}) {
		t.Fatalf("Supercube of an empty constraint = %+v, want the zero Face", f)
	}
	for _, code := range []uint64{0, 5, 7, ^uint64(0)} {
		if !f.Contains(code) {
			t.Fatalf("zero Face must contain %b", code)
		}
	}
	if !e.Satisfied(c) {
		t.Fatal("an empty constraint must be satisfied")
	}
	if in := e.Intruders(c); in != nil {
		t.Fatalf("Intruders of an empty constraint = %v, want nil", in)
	}
}

// TestFaceContains pins membership of a raw code word, the test the
// exact-polish carry and the encoders' inside checks rely on.
func TestFaceContains(t *testing.T) {
	f := Face{Agree: 0b0101, Vals: 0b0001} // col0 fixed 1, col2 fixed 0
	cases := []struct {
		w    uint64
		want bool
	}{
		{0b0001, true},
		{0b1011, true},  // free columns may differ
		{0b0000, false}, // col0 wrong
		{0b0101, false}, // col2 wrong
	}
	for _, c := range cases {
		if got := f.Contains(c.w); got != c.want {
			t.Errorf("Contains(%04b) = %v, want %v", c.w, got, c.want)
		}
	}
	if !(Face{}).Contains(0xFFFF) {
		t.Error("the zero Face must contain every word")
	}
}

// TestAllocsFace is the geometry's allocation gate: Supercube,
// IntruderCount and Satisfied allocate nothing, on one-word and on
// three-word member bitsets.
func TestAllocsFace(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the plain build")
	}
	for _, n := range []int{12, 130} {
		e := NewEncoding(n, 8)
		for s := range e.Codes {
			e.Codes[s] = uint64(s * 7 % 256)
		}
		c := FromMembers(n, 0, 3, n/2, n-1)
		var k int
		var sat bool
		allocs := testing.AllocsPerRun(100, func() {
			k = e.IntruderCount(c, e.Supercube(c))
			sat = e.Satisfied(c)
		})
		if allocs != 0 {
			t.Fatalf("n=%d: Supercube, IntruderCount and Satisfied allocated %.1f objects, want 0", n, allocs)
		}
		if sat != (k == 0) {
			t.Fatalf("n=%d: Satisfied = %v with %d intruders", n, sat, k)
		}
	}
}

func TestCodeLength(t *testing.T) {
	p := &Problem{Names: make([]string, 15)} // MinLength 4
	for _, tc := range []struct{ nv, want int }{{0, 4}, {4, 4}, {9, 9}, {64, 64}} {
		if got, err := p.CodeLength(tc.nv); err != nil || got != tc.want {
			t.Errorf("CodeLength(%d) = %d, %v; want %d", tc.nv, got, err, tc.want)
		}
	}
	for _, nv := range []int{-1, 3, 65} {
		if got, err := p.CodeLength(nv); err == nil {
			t.Errorf("CodeLength(%d) = %d, want an error", nv, got)
		}
	}
}

func TestPaperFigure1Encoding(t *testing.T) {
	// Paper Figure 1, Examples 3 and 4: 15 symbols s1..s15 in B^4 with the
	// constraints L1={s2,s6,s8,s14}, L2={s1,s2}, L3={s9,s14},
	// L4={s6,s7,s8,s9,s14}. The encoding below realizes the paper's
	// "encoding (c)" scenario exactly: L1–L3 satisfied, L4 violated with
	// intruder set I4={s1,s2}, super(I4)=00-0 and super(L4)=0---, so that
	// Theorem I implements L4 with the two cubes {01--, 0--1}.
	e := NewEncoding(15, 4)
	codeOf := map[int]string{
		1: "0000", 2: "0010", 6: "0110", 8: "0111", 14: "0011",
		9: "0001", 7: "0101",
		// 0100 is the unused code; the remaining symbols fill 1---.
		3: "1000", 4: "1001", 5: "1010", 10: "1011",
		11: "1100", 12: "1101", 13: "1110", 15: "1111",
	}
	for s, code := range codeOf {
		for col := 0; col < 4; col++ {
			if code[col] == '1' {
				e.SetBit(s-1, col, 1)
			}
		}
	}
	if !e.Injective() {
		t.Fatal("figure 1c encoding must be injective")
	}
	mk := func(syms ...int) Constraint {
		c := NewConstraint(15)
		for _, s := range syms {
			c.Add(s - 1)
		}
		return c
	}
	l1 := mk(2, 6, 8, 14)
	l2 := mk(1, 2)
	l3 := mk(9, 14)
	l4 := mk(6, 7, 8, 9, 14)
	if !e.Satisfied(l1) {
		t.Fatal("L1 must be satisfied by encoding (c)")
	}
	if !e.Satisfied(l2) {
		t.Fatal("L2 must be satisfied by encoding (c)")
	}
	if !e.Satisfied(l3) {
		t.Fatal("L3 must be satisfied by encoding (c)")
	}
	if e.Satisfied(l4) {
		t.Fatal("L4 must be violated by encoding (c)")
	}
	in := e.Intruders(l4)
	// The paper: the intruders of L4 under encoding (c) are s1 and s2.
	if len(in) != 2 || in[0] != 0 || in[1] != 1 {
		t.Fatalf("L4 intruders = %v, want s1,s2", in)
	}
}

func TestQuickEncodingSatisfactionMonotone(t *testing.T) {
	// Removing a non-member cannot create intruders for the others... more
	// precisely: if a constraint is satisfied, any sub-constraint spanning a
	// sub-cube of agreeing columns keeps the same agreeing columns or more,
	// so the intruder set cannot gain members outside the removed one.
	// We check a weaker, exact property: a constraint with all symbols'
	// codes equal on some column never lists as intruder a symbol that
	// differs there.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		nv := 2 + r.Intn(4)
		e := NewEncoding(n, nv)
		for s := 0; s < n; s++ {
			e.Codes[s] = uint64(r.Intn(1 << uint(nv)))
		}
		c := NewConstraint(n)
		c.Add(0)
		c.Add(1)
		for _, in := range e.Intruders(c) {
			if c.Has(in) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
