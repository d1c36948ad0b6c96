// Command verify audits constraint-file corpora against the semantic
// verification oracle (internal/verify): every instance is encoded by
// the selected encoders and the result checked from first principles —
// encoding validity (independent supercube/BDD/brute-force membership),
// differential minimization (espresso vs the exact cover, ON/OFF
// containment), evaluator cross-summation, and metamorphic invariance
// under symbol/column/constraint transformations.
//
//	verify testdata/figure1.cons            audit one file with all encoders
//	verify -algo picola -random 20 -seed 1  audit 20 random benchgen instances
//	verify -random 8 a.cons b.cons          files plus random instances
//
// Any oracle failure prints the disagreements plus a shrunk consfile
// repro and exits 1; exit 0 means every check passed.
//
// Observability: -trace, -metrics, -ledger, -http, -cpuprofile and
// -memprofile as in cmd/picola — a long random audit with -http exposes
// live /metrics and /debug/pprof while it runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"picola"
	"picola/internal/benchgen"
	"picola/internal/cli"
	"picola/internal/consfile"
	"picola/internal/face"
	"picola/internal/optenc"
	"picola/internal/verify"
)

// algorithms lists the auditable encoders in their fixed output order
// (the -algo default runs the three heuristics; "optimal" is opt-in,
// being factorial and capped at optenc.MaxSymbols symbols).
var algorithms = []string{"picola", "nova", "enc", "optimal"}

func main() { os.Exit(run(flag.CommandLine, os.Args[1:])) }

// run registers verify's flags on fs, runs the audit that args ask for
// and returns the exit status.
func run(fs *flag.FlagSet, args []string) int {
	algo := fs.String("algo", "picola,nova,enc", "comma-separated encoders to audit: picola, nova, enc, optimal")
	random := fs.Int("random", 0, "additionally audit this many random benchgen instances")
	maxSyms := fs.Int("maxsymbols", 10, "symbol-count bound for -random instances")
	seed := fs.Int64("seed", 1, "seed for random instances and randomized encoders")
	meta := fs.Bool("meta", true, "also check the metamorphic invariants")
	return cli.Main("verify", fs, args, func(env *cli.Env) error {
		selected, err := selectAlgorithms(*algo)
		if err != nil {
			return err
		}
		type instance struct {
			label string
			p     *face.Problem
		}
		var instances []instance
		for _, path := range fs.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			p, err := consfile.ParseString(string(data))
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			instances = append(instances, instance{label: path, p: p})
		}
		for i := 0; i < *random; i++ {
			s := *seed + int64(i)
			instances = append(instances, instance{
				label: fmt.Sprintf("random(seed=%d)", s),
				p:     benchgen.RandomProblem(s, *maxSyms),
			})
		}
		if len(instances) == 0 {
			return fmt.Errorf("nothing to audit: pass constraint files and/or -random N")
		}

		a := &auditor{ctx: env.Ctx, meta: *meta, out: os.Stdout, errOut: os.Stderr,
			opts: picola.Options{Seed: *seed, Workers: env.Workers, Cache: picola.NewCache(), Trace: env.Tracer}}
		checks, failures := 0, 0
		for _, inst := range instances {
			for _, name := range selected {
				if name == "optimal" && inst.p.N() > optenc.MaxSymbols {
					fmt.Printf("%-28s %-8s skipped (%d symbols exceed the exhaustive limit %d)\n",
						inst.label, name, inst.p.N(), optenc.MaxSymbols)
					continue
				}
				checks++
				failed, err := a.check(inst.label, inst.p, name)
				if err != nil {
					return err
				}
				if failed {
					failures++
				}
			}
		}
		fmt.Printf("audited %d instance/encoder pairs: %d failed\n", checks, failures)
		if failures > 0 {
			return cli.Exit(1, nil)
		}
		return nil
	})
}

// auditor runs the oracle stack on instance/encoder pairs, encoding
// through picola.Encode with opts (Algorithm set per pair), which carry
// the session's tracer.
type auditor struct {
	ctx         context.Context
	opts        picola.Options
	meta        bool
	out, errOut io.Writer
}

// audit runs the full oracle stack on one instance with one encoder. An
// encode error is an oracle failure, unless the run's context ended the
// encode: then the context's error is returned instead of a report.
func (a *auditor) audit(p *face.Problem, algo string) (*verify.Report, error) {
	o := a.opts
	o.Algorithm = algo
	res, err := picola.Encode(a.ctx, p, o)
	if err != nil {
		if cerr := a.ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return &verify.Report{Failures: []verify.Failure{{
			Check: "encode", Constraint: -1, Detail: err.Error()}}}, nil
	}
	rep := verify.Audit(p, res.Encoding, o.Cache, verify.Options{RequireMinLength: true})
	if a.meta {
		rep.Merge(verify.CheckMetamorphic(p, res.Encoding, o.Seed))
	}
	return rep, nil
}

// check audits one pair and prints its verdict; a failure also prints
// the disagreements and a shrunk consfile repro. It reports whether the
// pair failed, or the context's error when the run was cut short. A
// shrink cut short keeps the smallest instance that still failed.
func (a *auditor) check(label string, p *face.Problem, algo string) (bool, error) {
	rep, err := a.audit(p, algo)
	if err != nil {
		return false, err
	}
	if rep.Ok() {
		fmt.Fprintf(a.out, "%-28s %-8s ok\n", label, algo)
		return false, nil
	}
	fmt.Fprintf(a.out, "%-28s %-8s FAIL\n", label, algo)
	fmt.Fprintln(a.errOut, "verify:", rep.Err())
	// The shrink's re-runs are not traced, as cmd/picola's are not.
	quiet := *a
	quiet.opts.Trace = nil
	shrunk := verify.Shrink(p, func(q *face.Problem) bool {
		rep, err := quiet.audit(q, algo)
		return err == nil && !rep.Ok()
	}, 0)
	fmt.Fprintf(a.errOut, "verify: shrunk repro (%s):\n%s", algo, verify.Repro(shrunk))
	return true, nil
}

// selectAlgorithms resolves the -algo list, keeping the fixed order of
// algorithms.
func selectAlgorithms(list string) ([]string, error) {
	names := strings.Split(list, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
		if names[i] != "" && !slices.Contains(algorithms, names[i]) {
			return nil, fmt.Errorf("unknown encoder %q (valid: %s)", names[i], strings.Join(algorithms, ", "))
		}
	}
	var out []string
	for _, name := range algorithms {
		if slices.Contains(names, name) {
			out = append(out, name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-algo selected no encoders")
	}
	return out, nil
}
