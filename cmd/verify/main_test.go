package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"picola"
	"picola/internal/face"
	"picola/internal/optenc"
)

// TestEncodeErrors: an encode error the run's context did not cause is
// an oracle FAIL with a shrunk repro, as optimal's symbol limit gives;
// one the context caused is the run's error, with no FAIL and no repro.
func TestEncodeErrors(t *testing.T) {
	n := optenc.MaxSymbols + 1
	p := &face.Problem{Names: make([]string, n)}
	for s := range p.Names {
		p.Names[s] = string(rune('a' + s))
	}
	p.AddConstraint(face.FromMembers(n, 0, 1))
	p.AddConstraint(face.FromMembers(n, 2, 3, 4))
	opts := picola.Options{Seed: 1, Workers: 1, Cache: picola.NewCache()}

	var out, errOut bytes.Buffer
	a := &auditor{ctx: context.Background(), opts: opts, out: &out, errOut: &errOut}
	failed, err := a.check("big", p, "optimal")
	if err != nil || !failed {
		t.Fatalf("optimal past its limit: failed %v, err %v; want an oracle failure", failed, err)
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(errOut.String(), "shrunk repro (optimal)") ||
		!strings.Contains(errOut.String(), "exhaustive limit") {
		t.Fatalf("no FAIL verdict or shrunk repro:\n%s\n%s", out.String(), errOut.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out.Reset()
	errOut.Reset()
	a = &auditor{ctx: ctx, opts: opts, out: &out, errOut: &errOut}
	for _, algo := range algorithms {
		failed, err := a.check("cancelled", p, algo)
		if !errors.Is(err, context.Canceled) || failed {
			t.Fatalf("%s under a cancelled context: failed %v, err %v; want the context's error", algo, failed, err)
		}
	}
	if out.Len() != 0 || errOut.Len() != 0 {
		t.Fatalf("a cancelled audit printed a verdict:\n%s\n%s", out.String(), errOut.String())
	}
}
