package stassign

import (
	"context"
	"slices"
	"testing"

	"picola/internal/baseline/nova"
	"picola/internal/benchgen"
	"picola/internal/cover"
	"picola/internal/espresso"
	"picola/internal/face"
	"picola/internal/kiss"
	"picola/internal/optenc"
	"picola/internal/symbolic"
)

const toyFSM = `
.i 2
.o 2
.r a
00 a a 00
01 a b 01
1- a c 10
-- b a 11
0- c b 00
1- c c 01
`

func parseToy(t *testing.T) *kiss.FSM {
	t.Helper()
	m, err := kiss.ParseString(toyFSM)
	if err != nil {
		t.Fatal(err)
	}
	m.Name = "toy"
	return m
}

func TestAssignPicolaToy(t *testing.T) {
	m := parseToy(t)
	rep, err := Assign(m, Options{Encoder: Picola})
	if err != nil {
		t.Fatal(err)
	}
	if rep.States != 3 || rep.Encoding.NV != 2 {
		t.Fatalf("states=%d nv=%d", rep.States, rep.Encoding.NV)
	}
	if !rep.Encoding.Injective() {
		t.Fatal("codes must be distinct")
	}
	if rep.Products <= 0 {
		t.Fatal("no products reported")
	}
	if rep.Area != rep.Products*(2*(2+2)+(2+2)) {
		t.Fatalf("area = %d for %d products", rep.Area, rep.Products)
	}
}

func TestOptimalEncoderIsLowerBound(t *testing.T) {
	m := parseToy(t)
	opt, err := Assign(m, Options{Encoder: Optimal})
	if err != nil {
		t.Fatal(err)
	}
	pic, err := Assign(m, Options{Encoder: Picola})
	if err != nil {
		t.Fatal(err)
	}
	if opt.SatisfiedConstraints < pic.SatisfiedConstraints {
		// Optimal minimizes cubes, not satisfaction, so only a weak check
		// applies; both are valid runs.
		t.Logf("optimal satisfied %d, picola %d", opt.SatisfiedConstraints, pic.SatisfiedConstraints)
	}
	if opt.Products <= 0 || !opt.Encoding.Injective() {
		t.Fatal("optimal encoder produced an invalid result")
	}
}

func TestAllEncodersProduceValidImplementations(t *testing.T) {
	m := parseToy(t)
	for _, enc := range []Encoder{Picola, NovaIH, NovaIOH, Enc, Natural, Optimal} {
		rep, err := Assign(m, Options{Encoder: enc, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if rep.Products <= 0 || !rep.Encoding.Injective() {
			t.Fatalf("%v: invalid result %+v", enc, rep)
		}
	}
}

// TestEncodedFunctionalEquivalence verifies the encoded, minimized cover
// implements exactly the machine's behaviour: for every transition and
// every minterm of its input cube, the cover asserts precisely the coded
// next state and the specified outputs.
func TestEncodedFunctionalEquivalence(t *testing.T) {
	m := parseToy(t)
	rep, err := Assign(m, Options{Encoder: Picola})
	if err != nil {
		t.Fatal(err)
	}
	min, d, err := MinimizeEncoded(m, rep.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	e := rep.Encoding
	ni, nv, no := m.NumInputs, e.NV, m.NumOutputs
	ov := ni + nv
	// Enumerate all (input, state) minterms.
	for in := 0; in < 1<<uint(ni); in++ {
		for _, st := range m.States {
			si := m.StateIndex(st)
			// Find the transition covering this input (if any).
			var tr *kiss.Transition
			for i := range m.Transitions {
				tt := &m.Transitions[i]
				if tt.From != st {
					continue
				}
				match := true
				for v := 0; v < ni; v++ {
					bit := byte('0' + (in>>uint(v))&1)
					if tt.Input[v] != '-' && tt.Input[v] != bit {
						match = false
						break
					}
				}
				if match {
					tr = tt
					break
				}
			}
			// Build the minterm and collect asserted outputs.
			point := d.NewCube()
			for v := 0; v < ni; v++ {
				d.Set(point, v, (in>>uint(v))&1)
			}
			for b := 0; b < nv; b++ {
				d.Set(point, ni+b, e.Bit(si, b))
			}
			for j := 0; j < nv+no; j++ {
				d.Set(point, ov, j)
			}
			asserted := make([]bool, nv+no)
			for _, c := range min.Cubes {
				if !d.Intersects(c, point) {
					continue
				}
				for j := 0; j < nv+no; j++ {
					if d.Has(c, ov, j) {
						asserted[j] = true
					}
				}
			}
			if tr == nil {
				continue // uncovered region: all outputs OFF or DC-exploited
			}
			if tr.To != "*" {
				to := m.StateIndex(tr.To)
				for b := 0; b < nv; b++ {
					want := e.Bit(to, b) == 1
					if asserted[b] != want {
						t.Fatalf("state %s input %02b: next-state bit %d = %v, want %v",
							st, in, b, asserted[b], want)
					}
				}
			}
			for j := 0; j < no; j++ {
				switch tr.Output[j] {
				case '1':
					if !asserted[nv+j] {
						t.Fatalf("state %s input %02b: output %d not asserted", st, in, j)
					}
				case '0':
					if asserted[nv+j] {
						t.Fatalf("state %s input %02b: output %d wrongly asserted", st, in, j)
					}
				}
			}
		}
	}
}

func TestBuildEncodedPartition(t *testing.T) {
	m := parseToy(t)
	e := face.NewEncoding(3, 2)
	e.Codes[0], e.Codes[1], e.Codes[2] = 0, 1, 2
	d, on, dc, off, err := BuildEncoded(m, e)
	if err != nil {
		t.Fatal(err)
	}
	if !cover.Union(cover.Union(on, dc), off).Tautology() {
		t.Fatal("ON ∪ DC ∪ OFF must cover the space")
	}
	f := &espresso.Function{D: d, On: on, DC: dc, Off: off}
	min, err := espresso.Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := espresso.Verify(min, f); err != nil {
		t.Fatal(err)
	}
}

func TestOutputPairs(t *testing.T) {
	m := parseToy(t)
	pairs := OutputPairs(m)
	if len(pairs) == 0 {
		t.Fatal("toy machine has co-targeted states")
	}
	for i := 1; i < len(pairs); i++ {
		a, b := pairs[i-1], pairs[i]
		if a.A > b.A || (a.A == b.A && a.B > b.B) {
			t.Fatal("pairs not deterministically ordered")
		}
	}
}

func TestAssignBenchmarkSmall(t *testing.T) {
	spec, _ := benchgen.ByName("opus")
	m := benchgen.Generate(spec)
	rep, err := Assign(m, Options{Encoder: Picola})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Products <= 0 || rep.Constraints == 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestEncoderString(t *testing.T) {
	if Picola.String() != "picola" || NovaIOH.String() != "nova-ioh" {
		t.Fatal("encoder names wrong")
	}
	if Encoder(99).String() == "" {
		t.Fatal("unknown encoder must still render")
	}
	for e := Picola; e <= Optimal; e++ {
		if got, err := ParseEncoder(e.String()); err != nil || got != e {
			t.Fatalf("ParseEncoder(%q) = %v, %v", e, got, err)
		}
	}
	if _, err := ParseEncoder("nova"); err == nil {
		t.Fatal("ParseEncoder accepted an unknown name")
	}
}

// TestEncodeProblemWithoutMachine pins the -check shrink's contract:
// every encoder encodes a constraint-level instance with no machine
// around it, and NovaIOH, having no output pairs there, gives exactly
// the input-hybrid encoding — while with the machine it anneals on the
// machine's output pairs.
func TestEncodeProblemWithoutMachine(t *testing.T) {
	spec, _ := benchgen.ByName("bbara")
	m := benchgen.Generate(spec)
	prob, _, err := symbolic.ExtractConstraints(m)
	if err != nil {
		t.Fatal(err)
	}
	withPairs, _, err := EncodeProblem(context.Background(), m, prob, Options{Encoder: NovaIOH, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := nova.Encode(prob, nova.Options{Variant: nova.IOHybrid, Seed: 3, OutputPairs: OutputPairs(m)})
	if err != nil {
		t.Fatal(err)
	}
	for s := range want.Codes {
		if withPairs.Codes[s] != want.Codes[s] {
			t.Fatalf("NovaIOH with the machine ignores its output pairs:\n%s\nvs\n%s", withPairs, want)
		}
	}
	for e := Picola; e <= Optimal; e++ {
		if e == Optimal && prob.N() > optenc.MaxSymbols {
			continue
		}
		enc, _, err := EncodeProblem(context.Background(), nil, prob, Options{Encoder: e, Seed: 3})
		if err != nil || !enc.Injective() {
			t.Fatalf("%v without a machine: %v", e, err)
		}
	}
	ioh, _, err := EncodeProblem(context.Background(), nil, prob, Options{Encoder: NovaIOH, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ih, err := nova.Encode(prob, nova.Options{Variant: nova.IHybrid, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for s := range ih.Codes {
		if ioh.Codes[s] != ih.Codes[s] {
			t.Fatalf("NovaIOH without output pairs differs from IHybrid:\n%s\nvs\n%s", ioh, ih)
		}
	}
}

// TestAssignCoverIsMinimizeEncoded: Report.Cover, the cover cmd/stassign
// writes and cmd/simulate -verify co-simulates, is the cover a fresh
// MinimizeEncoded of the report's encoding returns, over the same
// domain shape and cube for cube in the same order.
func TestAssignCoverIsMinimizeEncoded(t *testing.T) {
	for _, name := range []string{"bbara", "keyb"} {
		spec, ok := benchgen.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %s", name)
		}
		m := benchgen.Generate(spec)
		rep, err := Assign(m, Options{Encoder: Picola})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		min, d, err := MinimizeEncoded(m, rep.Encoding)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(rep.Cover.D.Sizes(), d.Sizes()) {
			t.Fatalf("%s: report domain %v, fresh minimization's %v", name, rep.Cover.D.Sizes(), d.Sizes())
		}
		if rep.Cover.Len() != min.Len() || rep.Products != min.Len() {
			t.Fatalf("%s: report cover %d cubes (Products %d), fresh minimization %d",
				name, rep.Cover.Len(), rep.Products, min.Len())
		}
		for i, c := range min.Cubes {
			if !slices.Equal(rep.Cover.Cubes[i], c) {
				t.Fatalf("%s: cube %d: report %s, fresh minimization %s",
					name, i, d.String(rep.Cover.Cubes[i]), d.String(c))
			}
		}
	}
}
