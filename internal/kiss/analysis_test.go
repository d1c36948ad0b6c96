package kiss

import (
	"strings"
	"testing"
)

func TestWriteDOT(t *testing.T) {
	m, err := ParseString(sample)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := m.WriteDOT(&sb); err != nil {
		t.Fatal(err)
	}
	dot := sb.String()
	for _, want := range []string{"digraph", "doublecircle", `"st0" -> "st1"`, "rankdir=LR"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("missing %q in:\n%s", want, dot)
		}
	}
	if strings.Contains(dot, `"*"`) {
		t.Fatal("unspecified targets must be skipped")
	}
}
