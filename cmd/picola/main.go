// Command picola encodes a set of symbols under face constraints using
// minimum code length.
//
// The input (stdin or a file argument) is a constraint-matrix file (see
// internal/consfile):
//
//	# comment
//	.symbols s1 s2 s3 s4 s5     (optional; defaults to S0..Sn-1)
//	11000                        one row per group constraint; a trailing
//	00110 2                      integer is the constraint's weight
//
// Flags select the algorithm (picola, nova, enc, optimal, all), an
// optional code-length override, and whether to print the per-constraint
// cube evaluation. "optimal" is the exhaustive reference (≤ 8 symbols);
// "all" grows the length until every constraint is satisfied. The whole
// run goes through the public picola package: the CLI is a thin shell
// over picola.Encode.
//
// -timeout D bounds the run's wall clock; a run past the deadline exits
// with an error wrapping context.DeadlineExceeded and prints no partial
// encoding (the cancellation contract of DESIGN.md §14).
//
// -j N bounds the encoders' internal parallel fan-out (the PICOLA
// portfolio, ENC's candidate scoring, the evaluator); the default is
// GOMAXPROCS and -j 1 reproduces the sequential execution — the output
// is identical either way.
//
// Observability: -trace FILE streams structured JSONL span/event records
// for every pipeline stage (restart, column, classify, guide, polish),
// -metrics FILE writes the metrics-registry snapshot at exit, -ledger
// FILE writes the per-run ledger record (per-stage profile, percentile
// histograms, cache hit rates), -http ADDR serves the live introspection
// endpoints (/metrics, /runs, /progress, /healthz, /debug/pprof) for the
// duration of the run, -cpuprofile and -memprofile write pprof profiles,
// and -v prints a per-stage wall-clock summary to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"picola"
	"picola/internal/cli"
	"picola/internal/consfile"
	"picola/internal/face"
	"picola/internal/verify"
)

func main() {
	algo := flag.String("algo", "picola", "encoder: "+strings.Join(picola.Algorithms(), ", "))
	nv := flag.Int("nv", 0, "code length override (0 = minimum)")
	seed := flag.Int64("seed", 1, "seed for the randomized encoders")
	evaluate := flag.Bool("eval", true, "print the per-constraint cube evaluation")
	check := flag.Bool("check", false, "run the semantic verification oracle on the encoding; exit 1 with a shrunk repro on failure")
	flag.Bool("v", false, "print a per-stage wall-clock summary to stderr")
	os.Exit(cli.Main("picola", flag.CommandLine, os.Args[1:], func(env *cli.Env) error {
		// Validate -algo before touching the input so a typo fails fast
		// with the valid set instead of falling through mid-run.
		if !validAlgo(*algo) {
			fmt.Fprintf(os.Stderr, "picola: unknown -algo %q (valid: %s)\n",
				*algo, strings.Join(picola.Algorithms(), ", "))
			flag.Usage()
			return cli.Exit(2, nil)
		}
		in := os.Stdin
		if flag.NArg() > 0 {
			f, err := os.Open(flag.Arg(0))
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		p, err := consfile.Parse(in)
		if err != nil {
			return err
		}
		memo := picola.NewCache()
		opts := picola.Options{
			Algorithm: *algo,
			NV:        *nv,
			Seed:      *seed,
			Workers:   env.Workers,
			Cache:     memo,
			Trace:     env.Tracer,
			Evaluate:  *evaluate,
		}
		res, err := picola.Encode(env.Ctx, p, opts)
		if err != nil {
			return err
		}
		for _, w := range res.Warnings {
			fmt.Fprintln(os.Stderr, "picola:", w)
		}
		e := res.Encoding
		if *check {
			// The minimum-length invariant only holds when the length was
			// not overridden and the encoder targets it ("all" grows the
			// length).
			vopts := verify.Options{RequireMinLength: *nv == 0 && *algo != "all"}
			rep := verify.Audit(p, e, memo, vopts)
			if !rep.Ok() {
				fmt.Fprintln(os.Stderr, "picola: -check failed:", rep.Err())
				reopts := opts
				reopts.Trace = nil
				reopts.Evaluate = false
				shrunk := verify.Shrink(p, func(q *face.Problem) bool {
					qr, err := picola.Encode(env.Ctx, q, reopts)
					if err != nil {
						return false
					}
					return !verify.Audit(q, qr.Encoding, memo, vopts).Ok()
				}, 0)
				fmt.Fprintf(os.Stderr, "picola: shrunk repro:\n%s", verify.Repro(shrunk))
				return cli.Exit(1, nil)
			}
			fmt.Fprintln(os.Stderr, "picola: -check passed")
		}
		for s := 0; s < p.N(); s++ {
			fmt.Printf("%-12s %s\n", p.Names[s], e.CodeString(s))
		}
		if *evaluate {
			c := res.Cost
			fmt.Printf("\nconstraints: %d  satisfied: %d  cubes: %d (weighted %d)\n",
				len(p.Constraints), c.SatisfiedCount, c.Total, c.WeightedTotal)
			for i, k := range c.Cubes {
				status := "satisfied"
				if !e.Satisfied(p.Constraints[i]) {
					status = "violated"
				}
				fmt.Printf("  %s  cubes=%d  %s\n", p.Constraints[i], k, status)
			}
		}
		return nil
	}))
}

func validAlgo(name string) bool {
	for _, a := range picola.Algorithms() {
		if a == name {
			return true
		}
	}
	return false
}
