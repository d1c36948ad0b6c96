package blif

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"picola/internal/benchgen"
	"picola/internal/kiss"
	"picola/internal/sim"
	"picola/internal/stassign"
)

const sampleBLIF = `
# a tiny model
.model toy
.inputs a b
.outputs y
.latch ns st 1
.names a b st y
11- 1
--1 1
.names a b ns
10 1
.end
`

// Parse reads a BLIF model (the subset Write produces: single .model,
// ON-set .names rows).
func Parse(r io.Reader) (*Model, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	m := &Model{}
	var cur *Names
	line := 0
	flush := func() {
		if cur != nil {
			m.Names = append(m.Names, *cur)
			cur = nil
		}
	}
	// BLIF continuation lines end with '\'.
	var pending string
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if strings.HasSuffix(text, "\\") {
			pending += strings.TrimSuffix(text, "\\") + " "
			continue
		}
		text = pending + text
		pending = ""
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				m.Name = fields[1]
			}
		case ".inputs":
			m.Inputs = append(m.Inputs, fields[1:]...)
		case ".outputs":
			m.Outputs = append(m.Outputs, fields[1:]...)
		case ".latch":
			flush()
			if len(fields) < 3 {
				return nil, fmt.Errorf("blif:%d: malformed .latch", line)
			}
			l := Latch{Input: fields[1], Output: fields[2]}
			if len(fields) >= 4 && fields[len(fields)-1] == "1" {
				l.Init = 1
			}
			m.Latches = append(m.Latches, l)
		case ".names":
			flush()
			if len(fields) < 2 {
				return nil, fmt.Errorf("blif:%d: malformed .names", line)
			}
			cur = &Names{Inputs: fields[1 : len(fields)-1], Output: fields[len(fields)-1]}
		case ".end":
			flush()
			goto done
		default:
			if strings.HasPrefix(fields[0], ".") {
				continue // ignore unknown directives
			}
			if cur == nil {
				return nil, fmt.Errorf("blif:%d: cover row outside .names", line)
			}
			if len(fields) != 2 || fields[1] != "1" {
				return nil, fmt.Errorf("blif:%d: only ON-set rows are supported", line)
			}
			if len(fields[0]) != len(cur.Inputs) {
				return nil, fmt.Errorf("blif:%d: row width %d, want %d", line, len(fields[0]), len(cur.Inputs))
			}
			cur.Rows = append(cur.Rows, fields[0])
		}
	}
done:
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m.Name == "" && len(m.Inputs) == 0 && len(m.Names) == 0 {
		return nil, fmt.Errorf("blif: empty model")
	}
	return m, nil
}

func TestParse(t *testing.T) {
	m, err := Parse(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "toy" || len(m.Inputs) != 2 || len(m.Outputs) != 1 {
		t.Fatalf("header = %+v", m)
	}
	if len(m.Latches) != 1 || m.Latches[0].Init != 1 {
		t.Fatalf("latches = %+v", m.Latches)
	}
	if len(m.Names) != 2 || len(m.Names[0].Rows) != 2 {
		t.Fatalf("names = %+v", m.Names)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		".model x\n11 1\n",                // row outside .names
		".model x\n.names a b y\n11 0\n",  // OFF row unsupported
		".model x\n.names a b y\n111 1\n", // width mismatch
		".model x\n.latch q\n",            // malformed latch
	}
	for _, s := range cases {
		if _, err := Parse(strings.NewReader(s)); err == nil {
			t.Errorf("expected error for %q", s)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	m, err := Parse(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Parse(strings.NewReader(m.String()))
	if err != nil {
		t.Fatalf("%v in:\n%s", err, m.String())
	}
	if m2.String() != m.String() {
		t.Fatalf("round trip changed the model:\n%s\nvs\n%s", m.String(), m2.String())
	}
}

func TestEval(t *testing.T) {
	m, err := Parse(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	// y = (a∧b) ∨ st; ns = a∧¬b.
	v := m.Eval(map[string]bool{"a": true, "b": true, "st": false})
	if !v["y"] || v["ns"] {
		t.Fatalf("eval 11/st=0: %+v", v)
	}
	v = m.Eval(map[string]bool{"a": false, "b": false, "st": true})
	if !v["y"] {
		t.Fatal("st must force y")
	}
	v = m.Eval(map[string]bool{"a": true, "b": false, "st": false})
	if v["y"] || !v["ns"] {
		t.Fatalf("eval 10/st=0: %+v", v)
	}
}

func TestStepSequential(t *testing.T) {
	m, err := Parse(strings.NewReader(sampleBLIF))
	if err != nil {
		t.Fatal(err)
	}
	st := m.ResetState()
	if !st["st"] {
		t.Fatal("latch must initialize to 1")
	}
	// Cycle 1: st=1 -> y high regardless; input 10 loads ns=1.
	v := m.StepSequential(map[string]bool{"a": true, "b": false}, st)
	if !v["y"] || !st["st"] {
		t.Fatalf("cycle1: %+v st=%+v", v, st)
	}
	// Cycle 2: input 01 -> ns=0, y = st(1) = true; latch drops to 0 after.
	v = m.StepSequential(map[string]bool{"a": false, "b": true}, st)
	if !v["y"] || st["st"] {
		t.Fatalf("cycle2: %+v st=%+v", v, st)
	}
}

// TestEncodedNetlistMatchesMachine is the full verification chain: KISS →
// assignment → minimized cover → BLIF → parse → sequential netlist
// simulation against the symbolic machine.
func TestEncodedNetlistMatchesMachine(t *testing.T) {
	spec, _ := benchgen.ByName("dk14")
	m := benchgen.Generate(spec)
	rep, err := stassign.Assign(m, stassign.Options{Encoder: stassign.Picola})
	if err != nil {
		t.Fatal(err)
	}
	min, d, err := stassign.MinimizeEncoded(m, rep.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	mod := FromEncoded(m, rep.Encoding, d, min)
	reparsed, err := Parse(strings.NewReader(mod.String()))
	if err != nil {
		t.Fatalf("%v in:\n%s", err, mod.String())
	}
	r := rand.New(rand.NewSource(11))
	for seq := 0; seq < 10; seq++ {
		ms := sim.NewMachine(m)
		st := reparsed.ResetState()
		for step := 0; step < 40; step++ {
			in := make([]byte, m.NumInputs)
			inputs := map[string]bool{}
			for i := range in {
				bit := r.Intn(2)
				in[i] = byte('0' + bit)
				inputs[mod.Inputs[i]] = bit == 1
			}
			wantOut, next, matched := ms.Step(string(in))
			values := reparsed.StepSequential(inputs, st)
			if matched {
				for j := 0; j < m.NumOutputs; j++ {
					got := values[mod.Outputs[j]]
					switch wantOut[j] {
					case '1':
						if !got {
							t.Fatalf("seq %d step %d: output %d low, want high", seq, step, j)
						}
					case '0':
						if got {
							t.Fatalf("seq %d step %d: output %d high, want low", seq, step, j)
						}
					}
				}
			}
			if !matched || next == "*" {
				// Unspecified: resynchronize.
				ms.State = m.ResetState()
				for k, v := range reparsed.ResetState() {
					st[k] = v
				}
				continue
			}
			// Check the latch state equals the next state's code.
			wantCode := rep.Encoding.Codes[m.StateIndex(next)]
			for b := 0; b < rep.Encoding.NV; b++ {
				want := wantCode>>uint(b)&1 == 1
				if st[mod.Latches[b].Output] != want {
					t.Fatalf("seq %d step %d: state bit %d = %v, want %v",
						seq, step, b, st[mod.Latches[b].Output], want)
				}
			}
		}
	}
}

func TestFromEncodedShape(t *testing.T) {
	m, err := kiss.ParseString(".i 1\n.o 1\n0 a b 1\n1 a a 0\n0 b a 0\n1 b b 1\n")
	if err != nil {
		t.Fatal(err)
	}
	m.Name = "t-t"
	rep, err := stassign.Assign(m, stassign.Options{Encoder: stassign.Picola})
	if err != nil {
		t.Fatal(err)
	}
	min, d, err := stassign.MinimizeEncoded(m, rep.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	mod := FromEncoded(m, rep.Encoding, d, min)
	if mod.Name != "t_t" {
		t.Fatalf("name not sanitized: %q", mod.Name)
	}
	if len(mod.Latches) != rep.Encoding.NV || len(mod.Names) != rep.Encoding.NV+1 {
		t.Fatalf("shape: %d latches, %d names", len(mod.Latches), len(mod.Names))
	}
	if !strings.Contains(mod.String(), ".latch ns0 st0") {
		t.Fatalf("missing latch:\n%s", mod.String())
	}
}
