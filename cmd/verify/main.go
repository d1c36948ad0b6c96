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
	"os"
	"strings"

	"picola"
	"picola/internal/baseline/enc"
	"picola/internal/baseline/nova"
	"picola/internal/benchgen"
	"picola/internal/consfile"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/obs"
	"picola/internal/obs/obshttp"
	"picola/internal/optenc"
	"picola/internal/par"
	"picola/internal/verify"
)

// jWorkers and memo are the -j fan-out width and the process-wide
// minimization memo-cache, set in main; runCtx carries the -timeout
// deadline into every encoder run.
var (
	jWorkers = 1
	memo     *eval.Cache
	runCtx   = context.Background()
)

// encoderFunc produces an encoding for one instance.
type encoderFunc func(p *face.Problem, seed int64) (*face.Encoding, error)

// encoders lists the auditable encoders in a fixed order (the -algo
// default runs the three heuristics; "optimal" is opt-in, being
// factorial and capped at optenc.MaxSymbols symbols).
var encoders = []struct {
	name string
	run  encoderFunc
}{
	// The picola entry goes through the public package: the audit then
	// exercises the same surface callers use, not just the internal core.
	{"picola", func(p *face.Problem, seed int64) (*face.Encoding, error) {
		r, err := picola.Encode(runCtx, p, picola.Options{Workers: jWorkers, Cache: memo})
		if err != nil {
			return nil, err
		}
		return r.Encoding, nil
	}},
	{"nova", func(p *face.Problem, seed int64) (*face.Encoding, error) {
		return nova.Encode(p, nova.Options{Seed: seed})
	}},
	{"enc", func(p *face.Problem, seed int64) (*face.Encoding, error) {
		r, err := enc.Encode(p, enc.Options{Seed: seed, Workers: jWorkers, Cache: memo})
		if err != nil {
			return nil, err
		}
		return r.Encoding, nil
	}},
	{"optimal", func(p *face.Problem, seed int64) (*face.Encoding, error) {
		r, err := optenc.Optimal(p)
		if err != nil {
			return nil, err
		}
		return r.Encoding, nil
	}},
}

func main() {
	algo := flag.String("algo", "picola,nova,enc", "comma-separated encoders to audit: picola, nova, enc, optimal")
	random := flag.Int("random", 0, "additionally audit this many random benchgen instances")
	maxSyms := flag.Int("maxsymbols", 10, "symbol-count bound for -random instances")
	seed := flag.Int64("seed", 1, "seed for random instances and randomized encoders")
	meta := flag.Bool("meta", true, "also check the metamorphic invariants")
	timeout := flag.Duration("timeout", 0, "bound the run's wall clock (0 = none)")
	jFlag := par.RegisterFlag(flag.CommandLine)
	var oc obs.Config
	oc.Command = "verify"
	oc.RegisterFlags(flag.CommandLine)
	flag.Parse()
	jWorkers = par.Workers(*jFlag)
	memo = eval.NewCache()
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}

	session, err := oc.Start()
	if err != nil {
		fatal(err)
	}
	httpSrv, err := obshttp.StartContext(runCtx, oc.HTTPAddr, obshttp.Options{})
	if err != nil {
		fatal(err)
	}
	if httpSrv != nil {
		fmt.Fprintf(os.Stderr, "verify: introspection server on http://%s\n", httpSrv.Addr())
	}

	selected, err := selectEncoders(*algo)
	if err != nil {
		fatal(err)
	}

	type instance struct {
		label string
		p     *face.Problem
	}
	var instances []instance
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		p, err := consfile.ParseString(string(data))
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
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
		fatal(fmt.Errorf("nothing to audit: pass constraint files and/or -random N"))
	}

	checks, failures := 0, 0
	for _, inst := range instances {
		for _, ef := range selected {
			if ef.name == "optimal" && inst.p.N() > optenc.MaxSymbols {
				fmt.Printf("%-28s %-8s skipped (%d symbols exceed the exhaustive limit %d)\n",
					inst.label, ef.name, inst.p.N(), optenc.MaxSymbols)
				continue
			}
			checks++
			rep := audit(inst.p, ef.run, *seed, *meta)
			if rep.Ok() {
				fmt.Printf("%-28s %-8s ok\n", inst.label, ef.name)
				continue
			}
			failures++
			fmt.Printf("%-28s %-8s FAIL\n", inst.label, ef.name)
			fmt.Fprintln(os.Stderr, "verify:", rep.Err())
			shrunk := verify.Shrink(inst.p, func(q *face.Problem) bool {
				return !audit(q, ef.run, *seed, *meta).Ok()
			}, 0)
			fmt.Fprintf(os.Stderr, "verify: shrunk repro (%s):\n%s", ef.name, verify.Repro(shrunk))
		}
	}
	fmt.Printf("audited %d instance/encoder pairs: %d failed\n", checks, failures)
	_ = httpSrv.Close()
	if err := session.Close(); err != nil {
		fatal(err)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

// audit runs the full oracle stack on one instance with one encoder.
func audit(p *face.Problem, run encoderFunc, seed int64, meta bool) *verify.Report {
	e, err := run(p, seed)
	if err != nil {
		return &verify.Report{Failures: []verify.Failure{{
			Check: "encode", Constraint: -1, Detail: err.Error()}}}
	}
	rep := verify.Audit(p, e, memo, verify.Options{RequireMinLength: true})
	if meta {
		rep.Merge(verify.CheckMetamorphic(p, e, seed))
	}
	return rep
}

// selectEncoders resolves the -algo list against the encoder table,
// preserving the table's fixed order.
func selectEncoders(list string) ([]struct {
	name string
	run  encoderFunc
}, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		known := false
		for _, ef := range encoders {
			if ef.name == name {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown encoder %q (valid: picola, nova, enc, optimal)", name)
		}
		want[name] = true
	}
	var out []struct {
		name string
		run  encoderFunc
	}
	for _, ef := range encoders {
		if want[ef.name] {
			out = append(out, ef)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-algo selected no encoders")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "verify:", err)
	os.Exit(1)
}
