package kiss

import "testing"

const sample = `
# toy machine
.i 2
.o 1
.p 6
.s 3
.r st0
00 st0 st0 0
01 st0 st1 0
1- st0 st2 1
-- st1 st0 1
0- st2 st1 0
1- st2 * -
.e
`

func TestParse(t *testing.T) {
	m, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumInputs != 2 || m.NumOutputs != 1 {
		t.Fatalf("dims = %d/%d", m.NumInputs, m.NumOutputs)
	}
	if m.NumStates() != 3 {
		t.Fatalf("states = %v", m.States)
	}
	if m.Reset != "st0" || m.ResetState() != "st0" {
		t.Fatalf("reset = %q", m.Reset)
	}
	if len(m.Transitions) != 6 {
		t.Fatalf("transitions = %d", len(m.Transitions))
	}
	if m.Transitions[5].To != "*" {
		t.Fatal("unspecified next state lost")
	}
	if m.StateIndex("st1") != 1 || m.StateIndex("nope") != -1 {
		t.Fatal("StateIndex wrong")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"00 a b 0\n",                   // missing .i/.o
		".i 2\n.o 1\n00 a b\n",         // 3 fields
		".i 2\n.o 1\n0x a b 0\n",       // bad input char
		".i 2\n.o 1\n00 a b 2\n",       // bad output char
		".i 2\n.o 1\n000 a b 0\n",      // input width
		".i 2\n.o 1\n.s 1\n00 a b 0\n", // under-declared states
		".i 2\n.o 1\n.p 0\n00 a b 0\n", // under-declared products
		".i 2\n.o 1\n.r\n00 a b 0\n",   // malformed .r
		".i two\n.o 1\n",               // bad .i
	}
	for _, s := range cases {
		if _, err := ParseString(s); err == nil {
			t.Errorf("expected error for %q", s)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	m, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ParseString(m.String())
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumStates() != m.NumStates() || len(m2.Transitions) != len(m.Transitions) {
		t.Fatal("round trip changed the machine")
	}
	for i := range m.Transitions {
		if m.Transitions[i] != m2.Transitions[i] {
			t.Fatalf("transition %d changed: %v vs %v", i, m.Transitions[i], m2.Transitions[i])
		}
	}
}

func TestResetDefaultsToFirstFrom(t *testing.T) {
	m, err := ParseString(".i 1\n.o 1\n0 a b 1\n1 b a 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.ResetState() != "a" {
		t.Fatalf("reset = %q", m.ResetState())
	}
}

func TestHelpers(t *testing.T) {
	m, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	from := m.TransitionsFrom("st0")
	if len(from) != 3 {
		t.Fatalf("TransitionsFrom = %d", len(from))
	}
	fan := m.NextStateFanIn()
	if fan["st0"] != 2 || fan["st1"] != 2 || fan["st2"] != 1 {
		t.Fatalf("fan-in = %v", fan)
	}
}

func TestOverDeclaredTolerated(t *testing.T) {
	// Some benchmarks declare more states than appear; tolerate.
	m, err := ParseString(".i 1\n.o 1\n.s 9\n.p 9\n0 a a 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 1 {
		t.Fatal("states wrong")
	}
}
