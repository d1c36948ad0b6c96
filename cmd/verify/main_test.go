package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
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

// TestTraceReachesEncoder: -trace records the audited encodes' spans.
// Before the audit handed the session's tracer to the encoder, the trace
// file was left empty.
func TestTraceReachesEncoder(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	if code := run(fs, []string{"-algo", "picola", "-trace", trace,
		filepath.Join("..", "..", "testdata", "figure1.cons")}); code != 0 {
		t.Fatalf("verify exited %d, want 0", code)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("-trace left an empty file")
	}
	restarts := 0
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var rec struct {
			Kind  string `json:"kind"`
			Stage string `json:"stage"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if rec.Kind == "span" && rec.Stage == "restart" {
			restarts++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if restarts == 0 {
		t.Fatalf("no restart span in the trace:\n%s", data)
	}
}
