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
	"context"
	"flag"
	"fmt"
	"os"

	"picola/internal/baseline/enc"
	"picola/internal/baseline/nova"
	"picola/internal/benchgen"
	"picola/internal/blif"
	"picola/internal/core"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/kiss"
	"picola/internal/obs"
	"picola/internal/obs/obshttp"
	"picola/internal/optenc"
	"picola/internal/par"
	"picola/internal/pla"
	"picola/internal/stassign"
	"picola/internal/statemin"
	"picola/internal/symbolic"
	"picola/internal/verify"
)

var encoderNames = map[string]stassign.Encoder{
	"picola":   stassign.Picola,
	"nova-ih":  stassign.NovaIH,
	"nova-ioh": stassign.NovaIOH,
	"enc":      stassign.Enc,
	"natural":  stassign.Natural,
	"optimal":  stassign.Optimal,
}

func main() {
	encName := flag.String("encoder", "picola", "picola, nova-ih, nova-ioh, enc, natural or optimal (≤8 states)")
	bench := flag.String("bench", "", "use a named synthetic benchmark instead of a file")
	plaOut := flag.String("pla", "", "write the minimized encoded PLA to this file")
	blifOut := flag.String("blif", "", "write the encoded machine as a BLIF netlist to this file")
	compare := flag.Bool("compare", false, "run every encoder and compare")
	reduce := flag.Bool("reduce", false, "merge compatible states before assignment")
	check := flag.Bool("check", false, "verify the state encoding against the semantic oracle; exit 1 with a shrunk repro on failure")
	seed := flag.Int64("seed", 1, "seed for the randomized encoders")
	timeout := flag.Duration("timeout", 0, "bound the run's wall clock (0 = none)")
	jFlag := par.RegisterFlag(flag.CommandLine)
	verbose := flag.Bool("v", false, "print a per-stage wall-clock summary to stderr")
	var oc obs.Config
	oc.Command = "stassign"
	oc.RegisterFlags(flag.CommandLine)
	flag.Parse()
	jWorkers := par.Workers(*jFlag)
	memo := eval.NewCache()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	session, err := oc.Start()
	if err != nil {
		fatal(err)
	}
	httpSrv, err := obshttp.StartContext(ctx, oc.HTTPAddr, obshttp.Options{})
	if err != nil {
		fatal(err)
	}
	if httpSrv != nil {
		fmt.Fprintf(os.Stderr, "stassign: introspection server on http://%s\n", httpSrv.Addr())
		defer func() { _ = httpSrv.Close() }()
	}
	defer func() {
		if *verbose {
			obs.StageSummary(os.Stderr, obs.Default)
		}
		if err := session.Close(); err != nil {
			fatal(err)
		}
	}()

	m, err := loadMachine(*bench, flag.Args())
	if err != nil {
		fatal(err)
	}
	if *reduce {
		red, _, err := statemin.ReduceCompatible(m)
		if err != nil {
			fatal(err)
		}
		if red.NumStates() < m.NumStates() {
			fmt.Printf("state reduction: %d -> %d states\n", m.NumStates(), red.NumStates())
		}
		m = red
	}
	if *compare {
		for _, name := range []string{"picola", "nova-ih", "nova-ioh", "enc", "natural"} {
			rep, err := stassign.AssignContext(ctx, m, stassign.Options{Encoder: encoderNames[name], Seed: *seed,
				Workers: jWorkers, Cache: memo})
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			fmt.Printf("%-9s products=%-5d area=%-6d satisfied=%d/%d time=%v\n",
				name, rep.Products, rep.Area, rep.SatisfiedConstraints,
				rep.Constraints, rep.TotalTime.Round(1e6))
			if *check {
				if err := checkAssignment(m, rep.Encoding, memo).Err(); err != nil {
					fatal(fmt.Errorf("%s: -check failed: %w", name, err))
				}
			}
		}
		return
	}
	encoder, ok := encoderNames[*encName]
	if !ok {
		fatal(fmt.Errorf("unknown encoder %q", *encName))
	}
	rep, err := stassign.AssignContext(ctx, m, stassign.Options{Encoder: encoder, Seed: *seed, Trace: session.Tracer,
		Workers: jWorkers, Cache: memo})
	if err != nil {
		fatal(err)
	}
	if *check {
		if failure := checkAssignment(m, rep.Encoding, memo); !failure.Ok() {
			fmt.Fprintln(os.Stderr, "stassign: -check failed:", failure.Err())
			reEncode := faceEncoder(encoder, *seed, jWorkers, memo)
			prob, _, err := symbolic.ExtractConstraints(m)
			if err == nil {
				shrunk := verify.Shrink(prob, func(q *face.Problem) bool {
					qe, err := reEncode(q)
					if err != nil {
						return false
					}
					return !verify.Audit(q, qe, memo, verify.Options{RequireMinLength: true}).Ok()
				}, 0)
				fmt.Fprintf(os.Stderr, "stassign: shrunk constraint-level repro:\n%s", verify.Repro(shrunk))
			}
			fatal(fmt.Errorf("semantic verification failed"))
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
		min, d, err := stassign.MinimizeEncodedContext(ctx, m, rep.Encoding)
		if err != nil {
			fatal(err)
		}
		mod := blif.FromEncoded(m, rep.Encoding, d, min)
		f, err := os.Create(*blifOut)
		if err != nil {
			fatal(err)
		}
		if err := mod.Write(f); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
		fmt.Println("wrote", *blifOut)
	}
	if *plaOut != "" {
		min, d, err := stassign.MinimizeEncodedContext(ctx, m, rep.Encoding)
		if err != nil {
			fatal(err)
		}
		ni := m.NumInputs + rep.Encoding.NV
		no := rep.Encoding.NV + m.NumOutputs
		out := pla.New(ni, no)
		out.Type = pla.TypeFD
		out.On = min
		_ = d
		f, err := os.Create(*plaOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := out.Write(f); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *plaOut)
	}
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

// faceEncoder maps a stassign encoder to its constraint-level core so a
// failing instance can be shrunk to a consfile repro without a machine
// around it. NovaIOH falls back to the input-hybrid objective — the
// output pairs need the FSM, which a shrunk constraint instance no
// longer has.
func faceEncoder(which stassign.Encoder, seed int64, workers int, memo *eval.Cache) func(*face.Problem) (*face.Encoding, error) {
	switch which {
	case stassign.NovaIH, stassign.NovaIOH:
		return func(q *face.Problem) (*face.Encoding, error) {
			return nova.Encode(q, nova.Options{Variant: nova.IHybrid, Seed: seed})
		}
	case stassign.Enc:
		return func(q *face.Problem) (*face.Encoding, error) {
			r, err := enc.Encode(q, enc.Options{Seed: seed, Workers: workers, Cache: memo})
			if err != nil {
				return nil, err
			}
			return r.Encoding, nil
		}
	case stassign.Natural:
		return func(q *face.Problem) (*face.Encoding, error) {
			e := face.NewEncoding(q.N(), q.MinLength())
			for s := 0; s < q.N(); s++ {
				e.Codes[s] = uint64(s)
			}
			return e, nil
		}
	case stassign.Optimal:
		return func(q *face.Problem) (*face.Encoding, error) {
			r, err := optenc.Optimal(q)
			if err != nil {
				return nil, err
			}
			return r.Encoding, nil
		}
	default:
		return func(q *face.Problem) (*face.Encoding, error) {
			r, err := core.Encode(q, core.Options{ExactPolishBudget: -1, Workers: workers, Cache: memo})
			if err != nil {
				return nil, err
			}
			return r.Encoding, nil
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stassign:", err)
	os.Exit(1)
}
