// Command stassign runs the PICOLA-based state-assignment tool on a KISS2
// machine: it extracts face constraints, encodes the states at minimum
// code length, and minimizes the encoded two-level implementation.
//
//	stassign machine.kiss              assign with PICOLA
//	stassign -encoder nova-ih -bench keyb
//	stassign -pla out.pla machine.kiss also write the minimized PLA
//	stassign -compare machine.kiss     compare all encoders
//
// -j N bounds the encoder's internal parallel fan-out (the PICOLA
// portfolio, ENC's candidate scoring); the default is GOMAXPROCS and
// -j 1 reproduces the sequential execution — the codes are identical
// either way.
//
// Observability: -trace FILE streams the PICOLA encoder's structured
// JSONL events, -metrics FILE writes the metrics snapshot at exit,
// -ledger FILE writes the per-run ledger record, -http ADDR serves the
// live introspection endpoints for the duration of the run,
// -cpuprofile/-memprofile write pprof profiles, and -v prints a per-stage
// wall-clock summary to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"picola/internal/benchgen"
	"picola/internal/blif"
	"picola/internal/cli"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/kiss"
	"picola/internal/pla"
	"picola/internal/stassign"
	"picola/internal/statemin"
	"picola/internal/symbolic"
	"picola/internal/verify"
)

func main() {
	encName := flag.String("encoder", "picola", "picola, nova-ih, nova-ioh, enc, natural or optimal (≤8 states)")
	bench := flag.String("bench", "", "use a named synthetic benchmark instead of a file")
	plaOut := flag.String("pla", "", "write the minimized encoded PLA to this file")
	blifOut := flag.String("blif", "", "write the encoded machine as a BLIF netlist to this file")
	compare := flag.Bool("compare", false, "run every encoder and compare")
	reduce := flag.Bool("reduce", false, "merge compatible states before assignment")
	check := flag.Bool("check", false, "verify the state encoding against the semantic oracle; exit 1 with a shrunk repro on failure")
	seed := flag.Int64("seed", 1, "seed for the randomized encoders")
	flag.Bool("v", false, "print a per-stage wall-clock summary to stderr")
	os.Exit(cli.Main("stassign", flag.CommandLine, os.Args[1:], func(env *cli.Env) error {
		memo := eval.NewCache()
		m, err := loadMachine(*bench, flag.Args())
		if err != nil {
			return err
		}
		if *reduce {
			red, _, err := statemin.ReduceCompatible(m)
			if err != nil {
				return err
			}
			if red.NumStates() < m.NumStates() {
				fmt.Printf("state reduction: %d -> %d states\n", m.NumStates(), red.NumStates())
			}
			m = red
		}
		opts := stassign.Options{Seed: *seed, Workers: env.Workers, Cache: memo}
		if *compare {
			for _, e := range []stassign.Encoder{stassign.Picola, stassign.NovaIH, stassign.NovaIOH, stassign.Enc, stassign.Natural} {
				opts.Encoder = e
				rep, err := stassign.AssignContext(env.Ctx, m, opts)
				if err != nil {
					return fmt.Errorf("%s: %w", e, err)
				}
				fmt.Printf("%-9s products=%-5d area=%-6d satisfied=%d/%d time=%v\n",
					e, rep.Products, rep.Area, rep.SatisfiedConstraints,
					rep.Constraints, rep.TotalTime.Round(1e6))
				if *check {
					if err := checkAssignment(m, rep.Encoding, memo).Err(); err != nil {
						return fmt.Errorf("%s: -check failed: %w", e, err)
					}
				}
			}
			return nil
		}
		if opts.Encoder, err = stassign.ParseEncoder(*encName); err != nil {
			return err
		}
		traced := opts
		traced.Trace = env.Tracer
		rep, err := stassign.AssignContext(env.Ctx, m, traced)
		if err != nil {
			return err
		}
		if *check {
			if failure := checkAssignment(m, rep.Encoding, memo); !failure.Ok() {
				fmt.Fprintln(os.Stderr, "stassign: -check failed:", failure.Err())
				if prob, _, err := symbolic.ExtractConstraints(m); err == nil {
					// The shrunk instance has no machine around it, so
					// NovaIOH re-encodes it without output pairs.
					shrunk := verify.Shrink(prob, func(q *face.Problem) bool {
						qe, _, err := stassign.EncodeProblem(env.Ctx, nil, q, opts)
						if err != nil {
							return false
						}
						return !verify.Audit(q, qe, memo, verify.Options{RequireMinLength: true}).Ok()
					}, 0)
					fmt.Fprintf(os.Stderr, "stassign: shrunk constraint-level repro:\n%s", verify.Repro(shrunk))
				}
				return fmt.Errorf("semantic verification failed")
			}
			fmt.Fprintln(os.Stderr, "stassign: -check passed")
		}
		fmt.Printf("machine: %s  states=%d  constraints=%d (satisfied %d)\n",
			rep.Name, rep.States, rep.Constraints, rep.SatisfiedConstraints)
		fmt.Println("state codes:")
		for i, st := range m.States {
			fmt.Printf("  %-12s %s\n", st, rep.Encoding.CodeString(i))
		}
		fmt.Printf("two-level implementation: %d product terms, PLA area %d\n",
			rep.Products, rep.Area)
		fmt.Printf("time: encode %v, total %v\n",
			rep.EncodeTime.Round(1e6), rep.TotalTime.Round(1e6))
		if *blifOut != "" {
			mod := blif.FromEncoded(m, rep.Encoding, rep.Cover.D, rep.Cover)
			if err := writeFile(*blifOut, mod.Write); err != nil {
				return err
			}
		}
		if *plaOut != "" {
			out := pla.New(m.NumInputs+rep.Encoding.NV, rep.Encoding.NV+m.NumOutputs)
			out.Type = pla.TypeFD
			out.On = rep.Cover
			if err := writeFile(*plaOut, out.Write); err != nil {
				return err
			}
		}
		return nil
	}))
}

// writeFile creates path, writes it with write and reports it on stdout.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func loadMachine(bench string, args []string) (*kiss.FSM, error) {
	if bench != "" {
		spec, ok := benchgen.ByName(bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", bench)
		}
		return benchgen.Generate(spec), nil
	}
	if len(args) == 0 {
		return nil, fmt.Errorf("need a KISS2 file or -bench name")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := kiss.Parse(f)
	if err != nil {
		return nil, err
	}
	if m.Name == "" {
		m.Name = args[0]
	}
	return m, nil
}

// checkAssignment re-extracts the machine's face constraints and runs
// the semantic oracle stack on the state encoding.
func checkAssignment(m *kiss.FSM, e *face.Encoding, memo *eval.Cache) *verify.Report {
	prob, _, err := symbolic.ExtractConstraints(m)
	if err != nil {
		return &verify.Report{Failures: []verify.Failure{{
			Check: "extract", Constraint: -1, Detail: err.Error()}}}
	}
	return verify.Audit(prob, e, memo, verify.Options{RequireMinLength: true})
}
