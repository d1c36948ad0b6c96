package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"picola/internal/benchgen"
	"picola/internal/consfile"
	"picola/internal/face"
	"picola/internal/symbolic"
)

// BenchmarkPolish times the light estimate polish alone, each problem
// starting from its variant-0 column-generation codes: the 33 Table I
// problems, and the 150 problems of the perfbench corpus (`batch -gen
// -seed 1 -count 150 -max-symbols 22`). One op polishes every problem of
// the set once. End-to-end runs bury a polish change of Table I's size
// in their noise; this isolates it.
func BenchmarkPolish(b *testing.B) {
	var table1 []*face.Problem
	for _, spec := range benchgen.Table1Specs() {
		p, _, err := symbolic.ExtractConstraints(benchgen.Generate(spec))
		if err == nil {
			// The constraint-file round trip gives the constraint order
			// a picola run reads.
			p, err = consfile.ParseString(consfile.String(p))
		}
		if err != nil {
			b.Fatalf("%s: %v", spec.Name, err)
		}
		table1 = append(table1, p)
	}
	dir := b.TempDir()
	files, err := benchgen.WriteCorpus(dir, benchgen.CorpusSpec{Seed: 1, Count: 150, MaxSymbols: 22})
	if err != nil {
		b.Fatal(err)
	}
	var corpus []*face.Problem
	for _, f := range files {
		text, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			b.Fatal(err)
		}
		p, err := consfile.ParseString(string(text))
		if err != nil {
			b.Fatalf("%s: %v", f, err)
		}
		corpus = append(corpus, p)
	}
	for _, set := range []struct {
		name  string
		probs []*face.Problem
	}{{"table1", table1}, {"corpus", corpus}} {
		b.Run(set.name, func(b *testing.B) {
			var encs []*encoder
			var codes [][]uint64
			for _, p := range set.probs {
				nv := p.MinLength()
				if !affordsPolish(p.N(), nv) {
					continue
				}
				e, err := encodeOnce(context.Background(), p, Options{DisablePolish: true}.withDefaults(),
					nv, guideWeight, false, 0)
				if err != nil {
					b.Fatal(err)
				}
				encs = append(encs, e)
				codes = append(codes, append([]uint64(nil), e.enc.Codes...))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, e := range encs {
					copy(e.enc.Codes, codes[k])
					e.polishConverged = false
					if err := e.polish("light", 4); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
