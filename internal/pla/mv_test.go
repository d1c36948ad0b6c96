package pla

import (
	"strings"
	"testing"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/espresso"
	"picola/internal/kiss"
	"picola/internal/symbolic"
)

const sampleMV = `
# a symbolic cover: 2 binary inputs, a 3-valued state, a 4-valued output
.mv 4 2 3 4
.on
01|100|0010
1-|010|1000
.dc
--|001|1111
.e
`

func TestParseMV(t *testing.T) {
	p, err := ParseMV(strings.NewReader(sampleMV))
	if err != nil {
		t.Fatal(err)
	}
	if p.D.NumVars() != 4 || p.D.Size(2) != 3 || p.D.Size(3) != 4 {
		t.Fatalf("domain = %v", p.D.Sizes())
	}
	if p.On.Len() != 2 || p.DC.Len() != 1 || p.Off.Len() != 0 {
		t.Fatalf("sections = %d/%d/%d", p.On.Len(), p.DC.Len(), p.Off.Len())
	}
	c := p.On.Cubes[0]
	if p.D.BinLit(c, 0) != cube.LitZero || p.D.BinLit(c, 1) != cube.LitOne {
		t.Fatal("binary block wrong")
	}
	if !p.D.Has(c, 2, 0) || p.D.Has(c, 2, 1) {
		t.Fatal("MV block wrong")
	}
}

func TestParseMVErrors(t *testing.T) {
	cases := []string{
		"01|100 \n",              // cube before header
		".mv 2 1\n0|11\n",        // missing size list
		".mv 3 1 2 2\n",          // declared 2 MV sizes for 2 MV vars: ok shape but sizes... actually valid; replaced below
		".mv 2 1 3\n0|11\n",      // MV block too short
		".mv 2 1 3\n0|111|111\n", // too many fields
		".mv 2 1 3\nx|111\n",     // bad binary char
		".mv 2 1 3\n0|1x1\n",     // bad bit
		".mv 2 3 3\n",            // nb > nv
		".mv 1 0 x\n",            // bad size
	}
	for _, s := range cases[3:] {
		if _, err := ParseMV(strings.NewReader(s)); err == nil {
			t.Errorf("expected error for %q", s)
		}
	}
	if _, err := ParseMV(strings.NewReader(cases[0])); err == nil {
		t.Error("cube before header must fail")
	}
	if _, err := ParseMV(strings.NewReader(cases[1])); err == nil {
		t.Error("missing sizes must fail")
	}
}

func TestMVRoundTrip(t *testing.T) {
	p, err := ParseMV(strings.NewReader(sampleMV))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseMV(strings.NewReader(p.String()))
	if err != nil {
		t.Fatalf("%v in:\n%s", err, p.String())
	}
	if !cover.Equivalent(p.On, q.On) || !cover.Equivalent(p.DC, q.DC) {
		t.Fatal("MV round trip not equivalent")
	}
}

func TestMVNoBinaryVars(t *testing.T) {
	p := NewMV(cube.New(4, 3))
	c := p.D.Universe()
	p.On.Add(c)
	q, err := ParseMV(strings.NewReader(p.String()))
	if err != nil {
		t.Fatalf("%v in:\n%s", err, p.String())
	}
	if !cover.Equivalent(p.On, q.On) {
		t.Fatal("round trip without binary variables failed")
	}
}

func TestMVFromSymbolicCover(t *testing.T) {
	m, err := kiss.ParseString(".i 1\n.o 1\n0 a b 0\n1 a c 0\n0 b a 1\n1 b a 0\n0 c c 1\n1 c a 0\n")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := symbolic.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	mv := NewMV(sc.D)
	mv.On = sc.On
	mv.DC = sc.DC
	mv.Off = sc.Off
	back, err := ParseMV(strings.NewReader(mv.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !cover.Equivalent(mv.On, back.On) || !cover.Equivalent(mv.Off, back.Off) {
		t.Fatal("symbolic cover did not survive the MV file")
	}
	// And the re-read cover minimizes identically.
	a, err := espresso.Minimize(&espresso.Function{D: sc.D, On: sc.On, DC: sc.DC, Off: sc.Off})
	if err != nil {
		t.Fatal(err)
	}
	b, err := espresso.Minimize(&espresso.Function{D: back.D, On: back.On, DC: back.DC, Off: back.Off})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("minimization differs after round trip: %d vs %d", a.Len(), b.Len())
	}
}
