package power

import (
	"math"
	"testing"

	"picola/internal/benchgen"
	"picola/internal/face"
	"picola/internal/kiss"
	"picola/internal/stassign"
)

// pingpong alternates between two states every cycle.
const pingpong = `
.i 1
.o 1
- a b 0
- b a 1
`

func TestBuildPingPong(t *testing.T) {
	m, err := kiss.ParseString(pingpong)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	// Steady state is uniform; every cycle is a transition.
	if math.Abs(mod.Steady[0]-0.5) > 1e-6 || math.Abs(mod.Steady[1]-0.5) > 1e-6 {
		t.Fatalf("steady = %v", mod.Steady)
	}
	if mod.Trans[0][1] != 1 || mod.Trans[1][0] != 1 {
		t.Fatalf("trans = %v", mod.Trans)
	}
	// With 1-bit codes the activity is exactly 1 flip per cycle.
	e := face.NewEncoding(2, 1)
	e.Codes[0], e.Codes[1] = 0, 1
	if a := mod.Activity(e); math.Abs(a-1) > 1e-9 {
		t.Fatalf("activity = %v", a)
	}
}

func TestSteadyStateRespectsBias(t *testing.T) {
	// State a loops on input 0 (half the time) and leaves on 1; state b
	// always returns to a: steady state favors a 2:1.
	m, err := kiss.ParseString(".i 1\n.o 1\n0 a a 0\n1 a b 0\n- b a 0\n")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mod.Steady[0]-2.0/3) > 1e-6 {
		t.Fatalf("steady = %v", mod.Steady)
	}
}

func TestUncoveredInputsSelfLoop(t *testing.T) {
	// Only input 0 is specified; input 1 must behave as a self-loop.
	m, err := kiss.ParseString(".i 1\n.o 1\n0 a b 0\n0 b a 0\n")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mod.Trans[0][0]-0.5) > 1e-9 || math.Abs(mod.Trans[0][1]-0.5) > 1e-9 {
		t.Fatalf("trans[0] = %v", mod.Trans[0])
	}
}

func TestEncodeReducesActivity(t *testing.T) {
	for _, name := range []string{"bbara", "dk14", "ex5"} {
		spec, _ := benchgen.ByName(name)
		m := benchgen.Generate(spec)
		mod, err := Build(m)
		if err != nil {
			t.Fatal(err)
		}
		natural := face.NewEncoding(m.NumStates(), minLength(m.NumStates()))
		for i := range natural.Codes {
			natural.Codes[i] = uint64(i)
		}
		low := Encode(mod, Options{Seed: 1})
		if !low.Injective() {
			t.Fatalf("%s: codes must stay distinct", name)
		}
		if mod.Activity(low) > mod.Activity(natural)+1e-9 {
			t.Fatalf("%s: annealer did not improve on natural codes: %v vs %v",
				name, mod.Activity(low), mod.Activity(natural))
		}
	}
}

// TestPowerAreaTradeoff documents the expected tension: the low-power
// codes cost at most a bounded factor in product terms while cutting the
// switching activity versus the area-driven PICOLA codes.
func TestPowerAreaTradeoff(t *testing.T) {
	spec, _ := benchgen.ByName("bbara")
	m := benchgen.Generate(spec)
	mod, err := Build(m)
	if err != nil {
		t.Fatal(err)
	}
	low := Encode(mod, Options{Seed: 1})
	rep, err := stassign.Assign(m, stassign.Options{Encoder: stassign.Picola})
	if err != nil {
		t.Fatal(err)
	}
	if mod.Activity(low) > mod.Activity(rep.Encoding) {
		t.Fatalf("low-power codes must not switch more than PICOLA's: %v vs %v",
			mod.Activity(low), mod.Activity(rep.Encoding))
	}
	minLow, _, err := stassign.MinimizeEncoded(m, low)
	if err != nil {
		t.Fatal(err)
	}
	if minLow.Len() > rep.Products*2 {
		t.Fatalf("low-power area blew up: %d vs %d products", minLow.Len(), rep.Products)
	}
}
