// Package blif writes the Berkeley Logic Interchange Format subset the
// synthesis flow needs: .model/.inputs/.outputs/.latch/.names sections
// with ON-set cover rows; its tests read the text back. The state-assignment result exports as
// a flat BLIF netlist (one .names block per next-state bit and primary
// output, one .latch per state bit), the traditional hand-off point to
// multi-level synthesis tools like SIS.
package blif

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/face"
	"picola/internal/kiss"
)

// Names is one single-output logic node: an ON-set cover over the named
// input signals (rows use 0/1/- and assert output 1).
type Names struct {
	Inputs []string
	Output string
	Rows   []string // each row len(Inputs) characters
}

// Latch is a D-latch: Output holds Input's previous value; Init is the
// reset value (0 or 1).
type Latch struct {
	Input  string
	Output string
	Init   int
}

// Model is a BLIF model.
type Model struct {
	Name    string
	Inputs  []string
	Outputs []string
	Latches []Latch
	Names   []Names
}

// Write emits the model.
func (m *Model) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", m.Name)
	fmt.Fprintf(bw, ".inputs %s\n", strings.Join(m.Inputs, " "))
	fmt.Fprintf(bw, ".outputs %s\n", strings.Join(m.Outputs, " "))
	for _, l := range m.Latches {
		fmt.Fprintf(bw, ".latch %s %s %d\n", l.Input, l.Output, l.Init)
	}
	for _, n := range m.Names {
		fmt.Fprintf(bw, ".names %s %s\n", strings.Join(n.Inputs, " "), n.Output)
		for _, r := range n.Rows {
			fmt.Fprintf(bw, "%s 1\n", r)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// String renders the model as BLIF text.
func (m *Model) String() string {
	var sb strings.Builder
	_ = m.Write(&sb)
	return sb.String()
}

// FromEncoded builds the flat netlist of an encoded machine: inputs and
// state bits feed one .names block per next-state bit and per primary
// output, with a .latch per state bit initialized to the reset code.
func FromEncoded(m *kiss.FSM, e *face.Encoding, d *cube.Domain, min *cover.Cover) *Model {
	ni, nv, no := m.NumInputs, e.NV, m.NumOutputs
	ov := ni + nv
	mod := &Model{Name: sanitize(m.Name)}
	if mod.Name == "" {
		mod.Name = "fsm"
	}
	for i := 0; i < ni; i++ {
		mod.Inputs = append(mod.Inputs, fmt.Sprintf("in%d", i))
	}
	for j := 0; j < no; j++ {
		mod.Outputs = append(mod.Outputs, fmt.Sprintf("out%d", j))
	}
	resetCode := e.Codes[m.StateIndex(m.ResetState())]
	for b := 0; b < nv; b++ {
		mod.Latches = append(mod.Latches, Latch{
			Input:  fmt.Sprintf("ns%d", b),
			Output: fmt.Sprintf("st%d", b),
			Init:   int(resetCode>>uint(b)) & 1,
		})
	}
	sigInputs := make([]string, 0, ni+nv)
	sigInputs = append(sigInputs, mod.Inputs...)
	for b := 0; b < nv; b++ {
		sigInputs = append(sigInputs, fmt.Sprintf("st%d", b))
	}
	rowFor := func(c cube.Cube) string {
		var sb strings.Builder
		for v := 0; v < ni+nv; v++ {
			sb.WriteString(d.BinLit(c, v).String())
		}
		return sb.String()
	}
	for o := 0; o < nv+no; o++ {
		n := Names{Inputs: sigInputs}
		if o < nv {
			n.Output = fmt.Sprintf("ns%d", o)
		} else {
			n.Output = fmt.Sprintf("out%d", o-nv)
		}
		for _, c := range min.Cubes {
			if d.Has(c, ov, o) {
				n.Rows = append(n.Rows, rowFor(c))
			}
		}
		sort.Strings(n.Rows)
		mod.Names = append(mod.Names, n)
	}
	return mod
}

func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// Eval computes all .names outputs from the given input/latch signal
// values (a purely combinational evaluation; latch outputs must be in
// signals). Unknown input signals default to false.
func (m *Model) Eval(signals map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m.Names))
	memo := make(map[string]bool)
	var eval func(name string) bool
	var walking = map[string]bool{}
	eval = func(name string) bool {
		if v, ok := signals[name]; ok {
			return v
		}
		if v, ok := memo[name]; ok {
			return v
		}
		if walking[name] {
			return false // combinational loop guard
		}
		walking[name] = true
		defer delete(walking, name)
		for _, n := range m.Names {
			if n.Output != name {
				continue
			}
			v := false
			for _, row := range n.Rows {
				match := true
				for i, in := range n.Inputs {
					bit := eval(in)
					switch row[i] {
					case '1':
						if !bit {
							match = false
						}
					case '0':
						if bit {
							match = false
						}
					}
					if !match {
						break
					}
				}
				if match {
					v = true
					break
				}
			}
			memo[name] = v
			return v
		}
		memo[name] = false
		return false
	}
	for _, n := range m.Names {
		out[n.Output] = eval(n.Output)
	}
	return out
}

// StepSequential evaluates one clock cycle: given primary input values,
// it computes all outputs with the current latch state, then updates the
// latch outputs from their inputs. state maps latch output names to
// values and is updated in place.
func (m *Model) StepSequential(inputs map[string]bool, state map[string]bool) map[string]bool {
	signals := make(map[string]bool, len(inputs)+len(state))
	for k, v := range inputs {
		signals[k] = v
	}
	for k, v := range state {
		signals[k] = v
	}
	values := m.Eval(signals)
	for _, l := range m.Latches {
		state[l.Output] = values[l.Input]
	}
	return values
}

// ResetState returns the latch initialization map.
func (m *Model) ResetState() map[string]bool {
	st := make(map[string]bool, len(m.Latches))
	for _, l := range m.Latches {
		st[l.Output] = l.Init == 1
	}
	return st
}
