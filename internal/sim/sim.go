// Package sim simulates KISS2 machines cycle by cycle from the reset
// state. Its tests co-simulate the encoded two-level implementation
// alongside, an end-to-end functional check of the state-assignment flow
// beyond the cover-level espresso.Verify.
package sim

import "picola/internal/kiss"

// Machine simulates the symbolic KISS2 machine.
type Machine struct {
	M     *kiss.FSM
	State string
}

// NewMachine starts a simulation in the reset state.
func NewMachine(m *kiss.FSM) *Machine {
	return &Machine{M: m, State: m.ResetState()}
}

// Step applies one input vector (a 0/1 string of NumInputs characters).
// It returns the output cube ('0', '1' or '-' per bit; all '-' when no
// transition matches), the next state name ("*" when unspecified or no
// row matches) and whether a transition row matched at all. The machine
// state advances only when the next state is specified.
func (s *Machine) Step(input string) (output, next string, matched bool) {
	for _, t := range s.M.TransitionsFrom(s.State) {
		ok := true
		for i := 0; i < len(input); i++ {
			if t.Input[i] != '-' && t.Input[i] != input[i] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		next = t.To
		if next != "*" {
			s.State = next
		}
		return t.Output, next, true
	}
	dashes := make([]byte, s.M.NumOutputs)
	for i := range dashes {
		dashes[i] = '-'
	}
	return string(dashes), "*", false
}
