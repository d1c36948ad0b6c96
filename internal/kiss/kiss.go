// Package kiss reads and writes finite state machines in the KISS2 format
// used by the IWLS'93 / MCNC sequential benchmarks: .i/.o/.s/.p directives
// followed by transitions of the form
//
//	<input cube> <present state> <next state> <output cube>
//
// Inputs use 0/1/-, states are symbolic tokens, outputs use 0/1/- .
package kiss

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Transition is one row of the state transition table.
type Transition struct {
	Input  string // input cube over {0,1,-}
	From   string // present state
	To     string // next state ("*" means any/unspecified in some benchmarks)
	Output string // output cube over {0,1,-}
}

// FSM is a finite state machine specification.
type FSM struct {
	Name        string
	NumInputs   int
	NumOutputs  int
	Reset       string // reset state; empty means the first transition's From
	States      []string
	Transitions []Transition

	index map[string]int
}

// NumStates returns the number of distinct states.
func (m *FSM) NumStates() int { return len(m.States) }

// StateIndex returns the index of a state name, or -1.
func (m *FSM) StateIndex(s string) int {
	if m.index == nil {
		m.buildIndex()
	}
	if i, ok := m.index[s]; ok {
		return i
	}
	return -1
}

func (m *FSM) buildIndex() {
	m.index = make(map[string]int, len(m.States))
	for i, s := range m.States {
		m.index[s] = i
	}
}

// addState registers a state name if new. "*" (unspecified next state) is
// not a state.
func (m *FSM) addState(s string) {
	if s == "*" {
		return
	}
	if m.index == nil {
		m.index = make(map[string]int)
	}
	if _, ok := m.index[s]; !ok {
		m.index[s] = len(m.States)
		m.States = append(m.States, s)
	}
}

// ResetState returns the reset state: .r when given, otherwise the present
// state of the first transition, otherwise "".
func (m *FSM) ResetState() string {
	if m.Reset != "" {
		return m.Reset
	}
	if len(m.Transitions) > 0 {
		return m.Transitions[0].From
	}
	return ""
}

// Validate checks structural consistency: field widths, legal characters,
// known states.
func (m *FSM) Validate() error {
	if m.NumInputs < 0 || m.NumOutputs < 0 {
		return fmt.Errorf("kiss: negative field width")
	}
	for i, t := range m.Transitions {
		if len(t.Input) != m.NumInputs {
			return fmt.Errorf("kiss: transition %d: input width %d, want %d", i, len(t.Input), m.NumInputs)
		}
		if len(t.Output) != m.NumOutputs {
			return fmt.Errorf("kiss: transition %d: output width %d, want %d", i, len(t.Output), m.NumOutputs)
		}
		for _, c := range t.Input {
			if c != '0' && c != '1' && c != '-' {
				return fmt.Errorf("kiss: transition %d: bad input char %q", i, c)
			}
		}
		for _, c := range t.Output {
			if c != '0' && c != '1' && c != '-' {
				return fmt.Errorf("kiss: transition %d: bad output char %q", i, c)
			}
		}
		if m.StateIndex(t.From) < 0 {
			return fmt.Errorf("kiss: transition %d: unknown state %q", i, t.From)
		}
		if t.To != "*" && m.StateIndex(t.To) < 0 {
			return fmt.Errorf("kiss: transition %d: unknown state %q", i, t.To)
		}
	}
	if m.Reset != "" && m.StateIndex(m.Reset) < 0 {
		return fmt.Errorf("kiss: unknown reset state %q", m.Reset)
	}
	return nil
}

// Parse reads a KISS2 FSM from r.
func Parse(r io.Reader) (*FSM, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	m := &FSM{NumInputs: -1, NumOutputs: -1}
	var declStates, declProducts int = -1, -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if strings.HasPrefix(text, ".") {
			switch fields[0] {
			case ".i", ".o", ".s", ".p":
				if len(fields) != 2 {
					return nil, fmt.Errorf("kiss:%d: malformed %s", line, fields[0])
				}
				v, err := strconv.Atoi(fields[1])
				if err != nil || v < 0 {
					return nil, fmt.Errorf("kiss:%d: bad %s value %q", line, fields[0], fields[1])
				}
				switch fields[0] {
				case ".i":
					m.NumInputs = v
				case ".o":
					m.NumOutputs = v
				case ".s":
					declStates = v
				case ".p":
					declProducts = v
				}
			case ".r":
				if len(fields) != 2 {
					return nil, fmt.Errorf("kiss:%d: malformed .r", line)
				}
				m.Reset = fields[1]
			case ".e", ".end":
				goto done
			default:
				// Ignore unknown directives (e.g. .ilb, .ob).
			}
			continue
		}
		if len(fields) != 4 {
			return nil, fmt.Errorf("kiss:%d: transition needs 4 fields, got %d", line, len(fields))
		}
		t := Transition{Input: fields[0], From: fields[1], To: fields[2], Output: fields[3]}
		m.addState(t.From)
		m.addState(t.To)
		m.Transitions = append(m.Transitions, t)
	}
done:
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if m.NumInputs < 0 || m.NumOutputs < 0 {
		return nil, fmt.Errorf("kiss: missing .i/.o")
	}
	if m.Reset != "" {
		m.addState(m.Reset)
	}
	if declStates >= 0 && declStates != len(m.States) {
		// Benchmarks occasionally over-declare; warn by tolerating larger
		// declarations and rejecting smaller ones.
		if declStates < len(m.States) {
			return nil, fmt.Errorf("kiss: .s %d but %d states used", declStates, len(m.States))
		}
	}
	if declProducts >= 0 && declProducts != len(m.Transitions) {
		if declProducts < len(m.Transitions) {
			return nil, fmt.Errorf("kiss: .p %d but %d transitions", declProducts, len(m.Transitions))
		}
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseString parses a KISS2 FSM from a string.
func ParseString(s string) (*FSM, error) { return Parse(strings.NewReader(s)) }

// Write emits the FSM in KISS2 format with the transitions in their stored
// order.
func (m *FSM) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".i %d\n.o %d\n", m.NumInputs, m.NumOutputs)
	fmt.Fprintf(bw, ".p %d\n.s %d\n", len(m.Transitions), len(m.States))
	if m.Reset != "" {
		fmt.Fprintf(bw, ".r %s\n", m.Reset)
	}
	for _, t := range m.Transitions {
		fmt.Fprintf(bw, "%s %s %s %s\n", t.Input, t.From, t.To, t.Output)
	}
	fmt.Fprintln(bw, ".e")
	return bw.Flush()
}

// String renders the FSM as KISS2 text.
func (m *FSM) String() string {
	var sb strings.Builder
	_ = m.Write(&sb)
	return sb.String()
}

// TransitionsFrom returns the transitions with the given present state, in
// stored order.
func (m *FSM) TransitionsFrom(state string) []Transition {
	var out []Transition
	for _, t := range m.Transitions {
		if t.From == state {
			out = append(out, t)
		}
	}
	return out
}

// NextStateFanIn returns, for each state, how many transitions lead to it,
// keyed by state name. Unspecified ("*") targets are skipped.
func (m *FSM) NextStateFanIn() map[string]int {
	fan := make(map[string]int)
	for _, t := range m.Transitions {
		if t.To != "*" {
			fan[t.To]++
		}
	}
	return fan
}
