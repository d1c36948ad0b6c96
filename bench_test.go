// Package picola's root benchmark harness regenerates the paper's
// evaluation measurements as testing.B benchmarks:
//
//   - BenchmarkTable1 — the Table I experiment (cubes to implement the
//     group constraints at minimum code length) for representative
//     benchmarks under each encoder; the "cubes" metric is the table's
//     column. The full 33-row table prints with: go run ./cmd/tables -table 1
//   - BenchmarkTable2 — the Table II experiment (state assignment size);
//     the "products" metric is the table's size column. Full table:
//     go run ./cmd/tables -table 2
//   - BenchmarkFigure1Example — the paper's worked example (Figure 1,
//     Examples 1-4).
//   - BenchmarkAblation — the design choices DESIGN.md calls out
//     (guide-constraints, dynamic classification, the refinement passes,
//     the variant portfolio), measured on one medium instance.
//   - BenchmarkEspresso — the two-level minimizer substrate on symbolic
//     FSM covers.
package picola

import (
	"context"
	"io"
	"math/rand"
	"testing"

	"picola/internal/baseline/enc"
	"picola/internal/baseline/nova"
	"picola/internal/benchgen"
	"picola/internal/core"
	"picola/internal/cover"
	"picola/internal/cube"
	"picola/internal/espresso"
	"picola/internal/eval"
	"picola/internal/exact"
	"picola/internal/face"
	"picola/internal/obs"
	"picola/internal/power"
	"picola/internal/stassign"
	"picola/internal/symbolic"
)

// problemFor builds the Table I input-encoding instance of a benchmark.
func problemFor(b *testing.B, name string) *face.Problem {
	b.Helper()
	spec, ok := benchgen.ByName(name)
	if !ok {
		b.Fatalf("unknown benchmark %q", name)
	}
	m := benchgen.Generate(spec)
	p, _, err := symbolic.ExtractConstraints(m)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func reportCubes(b *testing.B, p *face.Problem, e *face.Encoding) {
	b.Helper()
	c, err := eval.Evaluate(p, e)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(c.Total), "cubes")
	b.ReportMetric(float64(c.SatisfiedCount), "satisfied")
}

// table1FSMs samples the suite across sizes; the cmd/tables harness runs
// all 33 rows.
var table1FSMs = []string{"bbara", "keyb", "dk16", "planet", "scf"}

func BenchmarkTable1(b *testing.B) {
	for _, name := range table1FSMs {
		p := problemFor(b, name)
		b.Run(name+"/picola", func(b *testing.B) {
			var last *face.Encoding
			for i := 0; i < b.N; i++ {
				r, err := core.Encode(p)
				if err != nil {
					b.Fatal(err)
				}
				last = r.Encoding
			}
			b.StopTimer()
			reportCubes(b, p, last)
		})
		b.Run(name+"/nova", func(b *testing.B) {
			var last *face.Encoding
			for i := 0; i < b.N; i++ {
				e, err := nova.Encode(p, nova.Options{Variant: nova.IHybrid, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				last = e
			}
			b.StopTimer()
			reportCubes(b, p, last)
		})
		b.Run(name+"/enc", func(b *testing.B) {
			var last *enc.Result
			for i := 0; i < b.N; i++ {
				r, err := enc.Encode(p, enc.Options{Seed: 1, Budget: 40000})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.StopTimer()
			reportCubes(b, p, last.Encoding)
			if !last.Completed {
				b.ReportMetric(1, "budget-exhausted")
			}
		})
	}
}

// table2FSMs samples Table II; cmd/tables -table 2 runs all 19 rows.
var table2FSMs = []string{"s386", "dk16", "tbk", "scf"}

func BenchmarkTable2(b *testing.B) {
	encoders := []struct {
		name string
		enc  stassign.Encoder
	}{
		{"nova-ih", stassign.NovaIH},
		{"nova-ioh", stassign.NovaIOH},
		{"new", stassign.Picola},
	}
	for _, name := range table2FSMs {
		spec, _ := benchgen.ByName(name)
		m := benchgen.Generate(spec)
		for _, e := range encoders {
			b.Run(name+"/"+e.name, func(b *testing.B) {
				var rep *stassign.Report
				for i := 0; i < b.N; i++ {
					var err error
					rep, err = stassign.Assign(m, stassign.Options{Encoder: e.enc, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(rep.Products), "products")
				b.ReportMetric(float64(rep.Area), "area")
			})
		}
	}
}

// figure1Problem is the paper's 15-symbol, 4-constraint worked example.
func figure1Problem() *face.Problem {
	p := &face.Problem{Name: "figure1", Names: make([]string, 15)}
	mk := func(syms ...int) face.Constraint {
		c := face.NewConstraint(15)
		for _, s := range syms {
			c.Add(s - 1)
		}
		return c
	}
	p.Constraints = []face.Constraint{
		mk(2, 6, 8, 14), mk(1, 2), mk(9, 14), mk(6, 7, 8, 9, 14),
	}
	return p
}

func BenchmarkFigure1Example(b *testing.B) {
	p := figure1Problem()
	var last *face.Encoding
	for i := 0; i < b.N; i++ {
		r, err := core.Encode(p)
		if err != nil {
			b.Fatal(err)
		}
		last = r.Encoding
	}
	b.StopTimer()
	reportCubes(b, p, last)
}

// BenchmarkTable3 is the extension experiment (cmd/tables -table 3): the
// code-length sweep showing the trade-off motivating the partial problem.
// The reported metrics are for the full-satisfaction end of the sweep.
func BenchmarkTable3(b *testing.B) {
	for _, name := range []string{"bbara", "dk14"} {
		p := problemFor(b, name)
		b.Run(name+"/encode-all", func(b *testing.B) {
			var r *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				r, err = core.EncodeAll(p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.Encoding.NV), "bits")
			b.ReportMetric(float64(p.MinLength()), "min-bits")
		})
	}
}

// BenchmarkTable4 is the power extension experiment (cmd/tables -table 4):
// switching activity and product terms of area-driven vs low-power codes.
func BenchmarkTable4(b *testing.B) {
	for _, name := range []string{"bbara", "opus"} {
		spec, _ := benchgen.ByName(name)
		m := benchgen.Generate(spec)
		mod, err := power.Build(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/picola", func(b *testing.B) {
			var rep *stassign.Report
			for i := 0; i < b.N; i++ {
				rep, err = stassign.Assign(m, stassign.Options{Encoder: stassign.Picola})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mod.Activity(rep.Encoding), "activity")
			b.ReportMetric(float64(rep.Products), "products")
		})
		b.Run(name+"/low-power", func(b *testing.B) {
			var low *face.Encoding
			for i := 0; i < b.N; i++ {
				low = power.Encode(mod, power.Options{Seed: 1})
			}
			min, _, err := stassign.MinimizeEncoded(m, low)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(mod.Activity(low), "activity")
			b.ReportMetric(float64(min.Len()), "products")
		})
	}
}

// BenchmarkAblation quantifies the contribution of each design choice on
// one medium instance (dk16: 27 states, the densest constraint set of the
// medium tier).
func BenchmarkAblation(b *testing.B) {
	p := problemFor(b, "dk16")
	variants := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{}},
		{"no-guides", core.Options{DisableGuides: true}},
		{"no-classify", core.Options{DisableClassify: true}},
		{"no-polish", core.Options{DisablePolish: true, ExactPolishBudget: -1}},
		{"no-exact-polish", core.Options{ExactPolishBudget: -1}},
		{"single-variant", core.Options{Restarts: 1}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var last *face.Encoding
			for i := 0; i < b.N; i++ {
				r, err := core.Encode(p, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				last = r.Encoding
			}
			b.StopTimer()
			reportCubes(b, p, last)
		})
	}
}

// BenchmarkObsOverhead compares an untraced encode (nil Tracer: the
// instrumentation collapses to nil checks and atomic adds) against the
// same encode streaming JSONL to io.Discard. The untraced/<name> numbers
// should be indistinguishable from the pre-instrumentation baseline, and
// are the acceptance check that observability is free when off.
func BenchmarkObsOverhead(b *testing.B) {
	p := problemFor(b, "keyb")
	b.Run("untraced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Encode(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced-discard", func(b *testing.B) {
		tr := obs.NewJSONL(io.Discard)
		for i := 0; i < b.N; i++ {
			if _, err := core.Encode(p, core.Options{Trace: tr}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ledger", func(b *testing.B) {
		// The -ledger path: spans fold into the in-memory per-stage
		// aggregate instead of (or, via Tee, in addition to) a JSONL sink.
		l := obs.NewRunLedger("bench", obs.NewMetrics())
		for i := 0; i < b.N; i++ {
			if _, err := core.Encode(p, core.Options{Trace: l}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchCubePairs builds a deterministic batch of random cube pairs over d
// (each variable constrained to a random value with probability 1/2).
func benchCubePairs(d *cube.Domain, n int, seed int64) [][2]cube.Cube {
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]cube.Cube, n)
	for i := range out {
		for j := 0; j < 2; j++ {
			c := d.Universe()
			for v := 0; v < d.NumVars(); v++ {
				if rng.Intn(2) == 0 {
					d.Restrict(c, v, rng.Intn(d.Size(v)))
				}
			}
			out[i][j] = c
		}
	}
	return out
}

// Benchmark sinks: keep results observable so the compiler cannot
// eliminate the measured call.
var (
	benchSinkInt  int
	benchSinkBool bool
)

// BenchmarkCubeKernels measures the whole-cube operations on binary
// domains of one, two and three words (8, 40 and 80 variables), and
// Tautology on a genuine 16-cube tautology at one word (all 16
// assignments of the first 4 variables, the rest free), so the
// recursion runs instead of quick-rejecting.
func BenchmarkCubeKernels(b *testing.B) {
	for _, tier := range []struct {
		name string
		nv   int
	}{{"1word", 8}, {"2word", 40}, {"3word", 80}} {
		d := cube.Binary(tier.nv)
		if d.Words() != int(tier.name[0]-'0') {
			b.Fatalf("Binary(%d) spans %d words", tier.nv, d.Words())
		}
		pairs := benchCubePairs(d, 256, 13)
		dst := d.NewCube()
		b.Run(tier.name+"/intersect", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				benchSinkBool = d.Intersect(dst, p[0], p[1])
			}
		})
		b.Run(tier.name+"/cofactor", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				benchSinkBool = d.Cofactor(dst, p[0], p[1])
			}
		})
	}
	d := cube.Binary(8)
	f := cover.New(d)
	for x := 0; x < 16; x++ {
		c := d.Universe()
		for v := 0; v < 4; v++ {
			d.Restrict(c, v, x>>uint(v)&1)
		}
		f.Add(c)
	}
	b.Run("1word/tautology", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSinkBool = f.Tautology()
		}
	})
}

// BenchmarkMinimizeSmall measures whole minimizer runs on a small random
// fr-form function — the constraint-scoring shape — through espresso and
// exact.Minimize, and exact.Counter on the same function given as its ON
// and used bitsets (one word) and on an nv = 7 constraint function (two
// words).
func BenchmarkMinimizeSmall(b *testing.B) {
	const inputs = 5
	d := cube.Binary(inputs)
	rng := rand.New(rand.NewSource(7))
	on, off := cover.New(d), cover.New(d)
	onw, usedw := make([]uint64, 1), make([]uint64, 1) // the same function as bitsets
	for x := 0; x < 1<<inputs; x++ {
		c := d.NewCube()
		for v := 0; v < inputs; v++ {
			d.Set(c, v, x>>uint(v)&1)
		}
		switch rng.Intn(3) {
		case 0:
			on.Add(c)
			onw[0] |= 1 << uint(x)
			usedw[0] |= 1 << uint(x)
		case 1:
			off.Add(c)
			usedw[0] |= 1 << uint(x)
		}
	}
	// The wide function: 70 symbols coded 0–69, the members coded 0, 5,
	// 9, 33, 64 and 69.
	const wideInputs = 7
	onw7 := []uint64{1<<0 | 1<<5 | 1<<9 | 1<<33, 1<<(64%64) | 1<<(69%64)}
	usedw7 := []uint64{^uint64(0), 1<<(70%64) - 1}
	for _, path := range []struct {
		name     string
		nv       int
		on, used []uint64
	}{{"exact-words", inputs, onw, usedw}, {"exact-wide", wideInputs, onw7, usedw7}} {
		b.Run(path.name, func(b *testing.B) {
			var ct exact.Counter
			for i := 0; i < b.N; i++ {
				n, err := ct.Count(context.Background(), path.nv, path.on, path.used)
				if err != nil {
					b.Fatal(err)
				}
				benchSinkInt = n
			}
		})
	}
	b.Run("espresso", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := &espresso.Function{D: d, On: on, Off: off}
			mc, err := espresso.Minimize(f)
			if err != nil {
				b.Fatal(err)
			}
			benchSinkInt = mc.Len()
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := &espresso.Function{D: d, On: on, Off: off}
			mc, _, err := exact.Minimize(f, inputs)
			if err != nil {
				b.Fatal(err)
			}
			benchSinkInt = mc.Len()
		}
	})
}

// BenchmarkEspresso measures the two-level minimizer substrate on the
// multi-valued symbolic covers the pipeline feeds it, at every cube
// width: bbara and keyb fit one word, s832 takes two, planet three and
// scf six.
func BenchmarkEspresso(b *testing.B) {
	for _, name := range []string{"bbara", "keyb", "s832", "planet", "scf"} {
		spec, _ := benchgen.ByName(name)
		m := benchgen.Generate(spec)
		sc, err := symbolic.Build(m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			var min int
			for i := 0; i < b.N; i++ {
				f := &espresso.Function{D: sc.D, On: sc.On, DC: sc.DC, Off: sc.Off}
				mc, err := espresso.Minimize(f)
				if err != nil {
					b.Fatal(err)
				}
				min = mc.Len()
			}
			b.ReportMetric(float64(min), "terms")
		})
	}
}
