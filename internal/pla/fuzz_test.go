package pla

import (
	"strings"
	"testing"
)

func FuzzParse(f *testing.F) {
	f.Add(".i 2\n.o 1\n01 1\n1- 1\n.e\n")
	f.Add(".i 3\n.o 2\n.type fr\n000 10\n111 01\n")
	f.Add(".i 1\n.o 1\n.type fd\n- -\n")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(strings.NewReader(s))
		if err != nil {
			return
		}
		q, err := Parse(strings.NewReader(p.String()))
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, p.String())
		}
		if q.On.Len() != p.On.Len() {
			t.Fatalf("round trip changed the ON-set: %d vs %d", p.On.Len(), q.On.Len())
		}
	})
}

func FuzzParseMV(f *testing.F) {
	f.Add(".mv 3 1 3 2\n.on\n0|110|10\n.e\n")
	f.Add(".mv 1 0 4\n1111\n")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseMV(strings.NewReader(s))
		if err != nil {
			return
		}
		q, err := ParseMV(strings.NewReader(p.String()))
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, p.String())
		}
		if q.On.Len() != p.On.Len() || q.DC.Len() != p.DC.Len() || q.Off.Len() != p.Off.Len() {
			t.Fatal("round trip changed the cover")
		}
	})
}
