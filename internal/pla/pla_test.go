package pla

import (
	"strings"
	"testing"

	"picola/internal/cover"
	"picola/internal/espresso"
)

const sampleFD = `
# a sample
.i 3
.o 2
.ilb a b c
.ob f g
.type fd
.p 4
000 10
001 11
01- -0
1-- 01
.e
`

func TestParseFD(t *testing.T) {
	p, err := Parse(strings.NewReader(sampleFD))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumInputs != 3 || p.NumOutputs != 2 {
		t.Fatalf("dims = %d/%d", p.NumInputs, p.NumOutputs)
	}
	if p.Type != TypeFD {
		t.Fatalf("type = %q", p.Type)
	}
	if len(p.InLabels) != 3 || p.InLabels[0] != "a" || len(p.OutLabels) != 2 {
		t.Fatalf("labels = %v %v", p.InLabels, p.OutLabels)
	}
	if p.On.Len() != 3 { // the "01- -0" row is DC-only
		t.Fatalf("ON rows = %d", p.On.Len())
	}
	if p.DC.Len() != 1 {
		t.Fatalf("DC rows = %d", p.DC.Len())
	}
	if p.Off.Len() != 0 {
		t.Fatalf("OFF rows = %d", p.Off.Len())
	}
	// Row "01- -0": DC for output f only.
	dc := p.DC.Cubes[0]
	if !p.D.Has(dc, 3, 0) || p.D.Has(dc, 3, 1) {
		t.Fatal("DC output part wrong")
	}
}

func TestParseFR(t *testing.T) {
	p, err := Parse(strings.NewReader(".i 2\n.o 2\n.type fr\n01 10\n10 01\n11 00\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.On.Len() != 2 || p.Off.Len() != 3 {
		t.Fatalf("ON=%d OFF=%d", p.On.Len(), p.Off.Len())
	}
}

func TestParseTypeF(t *testing.T) {
	p, err := Parse(strings.NewReader(".i 2\n.o 1\n.type f\n01 1\n1- 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	on, dc, off := p.Function()
	if on.Len() != 2 || dc != nil || off != nil {
		t.Fatal("type f must expose only the ON-set")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"01 1\n",                      // term before .i/.o
		".i 2\n.o 1\n01 2\n",          // bad output char
		".i 2\n.o 1\nx1 1\n",          // bad input char
		".i 2\n.o 1\n011 1\n",         // width mismatch
		".i x\n.o 1\n",                // bad .i
		".i 2\n.o 1\n.type z\n01 1\n", // bad type
	}
	for _, s := range cases {
		if _, err := Parse(strings.NewReader(s)); err == nil {
			t.Errorf("expected error for %q", s)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	p, err := Parse(strings.NewReader(sampleFD))
	if err != nil {
		t.Fatal(err)
	}
	text := p.String()
	q, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("%v in:\n%s", err, text)
	}
	if !cover.Equivalent(p.On, q.On) || !cover.Equivalent(p.DC, q.DC) {
		t.Fatalf("round trip not equivalent:\n%s\nvs\n%s", text, q.String())
	}
}

func TestWriteParseRoundTripFR(t *testing.T) {
	p, err := Parse(strings.NewReader(".i 2\n.o 2\n.type fr\n01 10\n10 01\n11 00\n0- 01\n"))
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(strings.NewReader(p.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !cover.Equivalent(p.On, q.On) || !cover.Equivalent(p.Off, q.Off) {
		t.Fatal("fr round trip not equivalent")
	}
}

func TestMinimizeParsedPLA(t *testing.T) {
	// End-to-end: parse, minimize, verify.
	p, err := Parse(strings.NewReader(".i 3\n.o 1\n000 1\n001 1\n010 1\n011 1\n100 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	on, dc, off := p.Function()
	f := &espresso.Function{D: p.D, On: on, DC: dc, Off: off}
	min, err := espresso.Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := espresso.Verify(min, f); err != nil {
		t.Fatal(err)
	}
	if min.Len() != 2 { // 0-- + -00 (or equivalent)
		t.Fatalf("want 2 cubes, got:\n%s", min)
	}
}

func TestEmptyPLA(t *testing.T) {
	p, err := Parse(strings.NewReader(".i 4\n.o 2\n.e\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.On.Len() != 0 || p.NumInputs != 4 {
		t.Fatal("empty PLA mis-parsed")
	}
}

func TestWhitespaceTolerance(t *testing.T) {
	p, err := Parse(strings.NewReader(".i 3\n.o 1\n 0 0 0   1 \n"))
	if err != nil {
		t.Fatal(err)
	}
	if p.On.Len() != 1 {
		t.Fatal("split row not joined")
	}
	if !strings.Contains(p.String(), "000 1") {
		t.Fatalf("unexpected render:\n%s", p.String())
	}
}
