package kiss

import (
	"bufio"
	"fmt"
	"io"
)

// WriteDOT renders the machine as a Graphviz digraph: one edge per
// transition labeled input/output, the reset state double-circled.
func (m *FSM) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	name := m.Name
	if name == "" {
		name = "fsm"
	}
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=LR;\n", name)
	reset := m.ResetState()
	for _, st := range m.States {
		shape := "circle"
		if st == reset {
			shape = "doublecircle"
		}
		fmt.Fprintf(bw, "  %q [shape=%s];\n", st, shape)
	}
	for _, t := range m.Transitions {
		to := t.To
		if to == "*" {
			continue
		}
		fmt.Fprintf(bw, "  %q -> %q [label=\"%s/%s\"];\n", t.From, to, t.Input, t.Output)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
