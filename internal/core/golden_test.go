package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"picola/internal/benchgen"
	"picola/internal/consfile"
	"picola/internal/core"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/obs"
	"picola/internal/symbolic"
)

// -update rewrites testdata/encodings.txt from the current encoder. The
// committed file pins what Σ cubes and Table III cannot see: the codes
// the encoder ends on, and the requests it sends the cache and the
// minimizers on the way. A polish trajectory change that keeps every
// cube sum, or a change in the entries a store would receive, fails it.
var update = flag.Bool("update", false, "rewrite the encoder golden")

const encodingsGolden = "encodings.txt"

// goldenCounters are the registry counters whose per-encode deltas the
// golden pins: the cache's answers, the exact counts run, the estimates
// and the exact polish's carried constraints.
var goldenCounters = []string{
	"eval.cache.hits",
	"eval.cache.misses",
	"eval.warm.hits",
	"espresso.exact_minimize",
	"core.estimates",
	"core.polish.carried",
}

// goldenProblems returns the 33 Table I constraint sets and the first 30
// instances of the perfbench corpus (`batch -gen -seed 1 -max-symbols
// 22`), each round-tripped through its constraint-file text as a
// `picola` run reads it.
func goldenProblems(t *testing.T) (names []string, probs []*face.Problem) {
	t.Helper()
	add := func(name string, p *face.Problem) {
		q, err := consfile.ParseString(consfile.String(p))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names = append(names, name)
		probs = append(probs, q)
	}
	for _, spec := range benchgen.Table1Specs() {
		p, _, err := symbolic.ExtractConstraints(benchgen.Generate(spec))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		add(spec.Name, p)
	}
	dir := t.TempDir()
	files, err := benchgen.WriteCorpus(dir, benchgen.CorpusSpec{Seed: 1, Count: 30, MaxSymbols: 22})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		r, err := os.Open(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		p, err := consfile.Parse(r)
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		add(strings.TrimSuffix(f, ".cons"), p)
	}
	return names, probs
}

// TestEncodingsGolden encodes every golden problem with one worker on a
// fresh cache and compares, per instance, the SHA-256 of the final codes,
// the registry deltas of goldenCounters, and the entry count and SHA-256
// of the cache's Export with the committed golden.
func TestEncodingsGolden(t *testing.T) {
	names, probs := goldenProblems(t)
	counters := make([]*obs.Counter, len(goldenCounters))
	for i, name := range goldenCounters {
		counters[i] = obs.Default.Counter(name)
	}
	var sb strings.Builder
	sb.WriteString("# instance sha256(codes) " + strings.Join(goldenCounters, " ") + " entries sha256(export)\n")
	before := make([]int64, len(counters))
	for i, p := range probs {
		for j, c := range counters {
			before[j] = c.Value()
		}
		cache := eval.NewCache()
		res, err := core.Encode(p, core.Options{Workers: 1, Cache: cache})
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		fmt.Fprintf(&sb, "%s %s", names[i], codesHash(res.Encoding))
		for j, c := range counters {
			fmt.Fprintf(&sb, " %d", c.Value()-before[j])
		}
		ents := cache.Export()
		fmt.Fprintf(&sb, " %d %s\n", len(ents), exportHash(ents))
	}
	path := filepath.Join("testdata", encodingsGolden)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run: go test ./internal/core -run TestEncodingsGolden -update): %v", err)
	}
	got, wantLines := strings.Split(sb.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("golden has %d lines, the encoder produced %d", len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("got  %q\nwant %q", got[i], wantLines[i])
		}
	}
}

// codesHash is the SHA-256 of the code length and the codes, each as
// eight little-endian bytes.
func codesHash(e *face.Encoding) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(e.NV))
	h.Write(b[:])
	for _, c := range e.Codes {
		binary.LittleEndian.PutUint64(b[:], c)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// exportHash is the SHA-256 of the exported entries in Export's order:
// each entry's policy, code length, used and ON words and count.
func exportHash(ents []eval.CacheEntry) string {
	h := sha256.New()
	for _, ent := range ents {
		fmt.Fprintf(h, "%t %d %x %x %d\n", ent.Heuristic, ent.NV, ent.Used, ent.On, ent.Cubes)
	}
	return hex.EncodeToString(h.Sum(nil))
}
