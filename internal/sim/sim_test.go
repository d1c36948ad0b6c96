package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"picola/internal/benchgen"
	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/face"
	"picola/internal/kiss"
	"picola/internal/stassign"
)

// Encoded simulates the encoded two-level implementation: a multi-output
// cover over inputs ++ state bits -> next-state bits ++ outputs.
type Encoded struct {
	D     *cube.Domain
	Cover *cover.Cover
	E     *face.Encoding
	NI    int
	Code  uint64 // current state code
}

// NewEncoded starts the encoded simulation at the code of the machine's
// reset state.
func NewEncoded(m *kiss.FSM, e *face.Encoding, d *cube.Domain, cov *cover.Cover) *Encoded {
	return &Encoded{
		D: d, Cover: cov, E: e, NI: m.NumInputs,
		Code: e.Codes[m.StateIndex(m.ResetState())],
	}
}

// Step applies one input vector and returns the asserted output bits
// (nv next-state bits followed by the primary outputs) while advancing
// the state register.
func (s *Encoded) Step(input string) []bool {
	d := s.D
	nv := s.E.NV
	ov := s.NI + nv
	point := d.NewCube()
	for v := 0; v < s.NI; v++ {
		if input[v] == '1' {
			d.Set(point, v, 1)
		} else {
			d.Set(point, v, 0)
		}
	}
	for b := 0; b < nv; b++ {
		d.Set(point, s.NI+b, int(s.Code>>uint(b))&1)
	}
	for j := 0; j < d.Size(ov); j++ {
		d.Set(point, ov, j)
	}
	out := make([]bool, d.Size(ov))
	for _, c := range s.Cover.Cubes {
		if !d.Intersects(c, point) {
			continue
		}
		for j := 0; j < d.Size(ov); j++ {
			if d.Has(c, ov, j) {
				out[j] = true
			}
		}
	}
	var next uint64
	for b := 0; b < nv; b++ {
		if out[b] {
			next |= 1 << uint(b)
		}
	}
	s.Code = next
	return out
}

// VerifyEquivalence drives both simulations with random input sequences
// from reset and checks that, wherever the machine specifies behavior,
// the implementation agrees: specified output bits match, and when the
// next state is a named state the implementation's next code is that
// state's code. On unspecified steps (no matching row, '*' target, or
// '-' output bits only) both models resynchronize at reset. It returns
// nil when all cycles agree.
func VerifyEquivalence(m *kiss.FSM, e *face.Encoding, d *cube.Domain, cov *cover.Cover, sequences, steps int, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	nv := e.NV
	for seq := 0; seq < sequences; seq++ {
		ms := NewMachine(m)
		es := NewEncoded(m, e, d, cov)
		for st := 0; st < steps; st++ {
			in := make([]byte, m.NumInputs)
			for i := range in {
				in[i] = byte('0' + r.Intn(2))
			}
			input := string(in)
			wantOut, next, matched := ms.Step(input)
			got := es.Step(input)
			if matched {
				for j := 0; j < m.NumOutputs; j++ {
					switch wantOut[j] {
					case '1':
						if !got[nv+j] {
							return fmt.Errorf("sim: seq %d step %d input %s: output %d low, want high",
								seq, st, input, j)
						}
					case '0':
						if got[nv+j] {
							return fmt.Errorf("sim: seq %d step %d input %s: output %d high, want low",
								seq, st, input, j)
						}
					}
				}
			}
			if matched && next != "*" {
				wantCode := e.Codes[m.StateIndex(next)]
				if es.Code != wantCode {
					return fmt.Errorf("sim: seq %d step %d input %s: next code %0*b, want %0*b (state %s)",
						seq, st, input, nv, es.Code, nv, wantCode, next)
				}
			} else {
				// Unspecified step: resynchronize both models.
				ms.State = m.ResetState()
				es.Code = e.Codes[m.StateIndex(m.ResetState())]
			}
		}
	}
	return nil
}

const toy = `
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

func TestMachineStep(t *testing.T) {
	m, err := kiss.ParseString(toy)
	if err != nil {
		t.Fatal(err)
	}
	s := NewMachine(m)
	out, next, ok := s.Step("01")
	if !ok || out != "01" || next != "b" || s.State != "b" {
		t.Fatalf("step1: %q %q %v state=%s", out, next, ok, s.State)
	}
	out, next, ok = s.Step("11")
	if !ok || out != "11" || next != "a" {
		t.Fatalf("step2: %q %q %v", out, next, ok)
	}
	out, next, ok = s.Step("10")
	if !ok || out != "10" || next != "c" {
		t.Fatalf("step3: %q %q %v", out, next, ok)
	}
}

func TestMachineUncoveredInput(t *testing.T) {
	m, err := kiss.ParseString(".i 1\n.o 1\n0 a a 1\n")
	if err != nil {
		t.Fatal(err)
	}
	s := NewMachine(m)
	out, next, ok := s.Step("1")
	if ok || next != "*" || out != "-" {
		t.Fatalf("uncovered input must not match: %q %q %v", out, next, ok)
	}
	if s.State != "a" {
		t.Fatal("state must not advance on an unmatched input")
	}
}

func TestVerifyEquivalenceToy(t *testing.T) {
	m, err := kiss.ParseString(toy)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := stassign.Assign(m, stassign.Options{Encoder: stassign.Picola})
	if err != nil {
		t.Fatal(err)
	}
	min, d, err := stassign.MinimizeEncoded(m, rep.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquivalence(m, rep.Encoding, d, min, 20, 50, 1); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyEquivalenceBenchmarks(t *testing.T) {
	for _, name := range []string{"bbara", "dk14", "opus"} {
		spec, _ := benchgen.ByName(name)
		m := benchgen.Generate(spec)
		for _, enc := range []stassign.Encoder{stassign.Picola, stassign.NovaIH} {
			rep, err := stassign.Assign(m, stassign.Options{Encoder: enc, Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			min, d, err := stassign.MinimizeEncoded(m, rep.Encoding)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyEquivalence(m, rep.Encoding, d, min, 10, 60, 7); err != nil {
				t.Fatalf("%s/%v: %v", name, enc, err)
			}
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	m, err := kiss.ParseString(toy)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := stassign.Assign(m, stassign.Options{Encoder: stassign.Picola})
	if err != nil {
		t.Fatal(err)
	}
	min, d, err := stassign.MinimizeEncoded(m, rep.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the cover: drop a cube. Some behavior must now disagree.
	if min.Len() < 2 {
		t.Skip("cover too small to corrupt")
	}
	corrupt := min.Without(0)
	if err := VerifyEquivalence(m, rep.Encoding, d, corrupt, 30, 60, 2); err == nil {
		t.Fatal("corrupted implementation must fail verification")
	}
}
