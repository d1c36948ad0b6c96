package blif

import (
	"strings"
	"testing"
)

func FuzzParse(f *testing.F) {
	f.Add(sampleBLIF)
	f.Add(".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := Parse(strings.NewReader(s))
		if err != nil {
			return
		}
		m2, err := Parse(strings.NewReader(m.String()))
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, m.String())
		}
		if len(m2.Names) != len(m.Names) || len(m2.Latches) != len(m.Latches) {
			t.Fatal("round trip changed the model")
		}
	})
}
