// Command tables regenerates the paper's evaluation tables on the
// synthetic benchmark suite.
//
//	tables -table 1    reproduce Table I  (constraint-implementation cubes:
//	                   NOVA vs ENC vs PICOLA at minimum code length)
//	tables -table 2    reproduce Table II (state assignment: two-level size
//	                   and normalized runtime for NOVA-ih, NOVA-ioh, NEW)
//
// Rows print in the paper's order; totals and win/loss summaries follow.
// Absolute values differ from the paper's (the suite is synthetic; see
// DESIGN.md §4) — the comparisons are the reproduction target.
//
// -fsm NAME runs one machine: a row of Table I or II, or any benchmark
// on the extension tables 3 and 4. A name that selects nothing is a
// usage error (exit 2).
//
// -json FILE additionally writes a machine-readable picola-bench/v1
// snapshot of the run (per-benchmark cube counts / product terms and
// encode wall time, tables 1 and 2; internal/benchsnap) so BENCH_*.json
// trajectory files can be populated. cmd/obsdiff compares two snapshots:
// per-row, per-encoder cube/product deltas (the regression gate — they
// must be all zero) plus the aggregate wall-clock speedup of NEW over OLD.
//
// -j N bounds the parallel fan-out (rows, encoders per row, and the
// encoders' internal portfolio/scoring). The default is GOMAXPROCS;
// -j 1 reproduces the sequential execution exactly, and the output is
// byte-identical at every -j (timing columns aside, which are only
// meaningful at -j 1). Observability: -trace, -metrics, -ledger, -http,
// -cpuprofile, -memprofile and -v as in cmd/picola; with -http the
// /progress endpoint reports the live rows-done/rows-total position of
// the running sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"picola/internal/baseline/enc"
	"picola/internal/baseline/nova"
	"picola/internal/benchgen"
	"picola/internal/benchsnap"
	"picola/internal/cli"
	"picola/internal/core"
	"picola/internal/ctxutil"
	"picola/internal/eval"
	"picola/internal/face"
	"picola/internal/obs"
	"picola/internal/par"
	"picola/internal/power"
	"picola/internal/report"
	"picola/internal/stassign"
	"picola/internal/symbolic"
	"picola/internal/verify"
)

func main() {
	table := flag.Int("table", 1, "table to regenerate: 1, 2 (paper), 3, 4 (extensions)")
	only := flag.String("fsm", "", "restrict to one benchmark by name")
	seed := flag.Int64("seed", 1, "seed for the randomized baselines")
	encBudget := flag.Int("encbudget", 40000, "ENC espresso-evaluation budget (table 1)")
	formatName := flag.String("format", "text", "output format: text, md or csv")
	jsonOut := flag.String("json", "", "write a machine-readable benchmark snapshot to `FILE` (tables 1 and 2)")
	check := flag.Bool("check", false, "run the semantic verification oracle on every encoding (tables 1 and 2); exit 1 with a shrunk repro on failure")
	flag.Bool("v", false, "print a per-stage wall-clock summary to stderr")
	os.Exit(cli.Main("tables", flag.CommandLine, os.Args[1:], func(env *cli.Env) error {
		var err error
		if outFormat, err = report.ParseFormat(*formatName); err != nil {
			return cli.Exit(2, err)
		}
		if *only != "" && !selects(*table, *only) {
			return cli.Exit(2, fmt.Errorf("-fsm %s selects no row of table %d", *only, *table))
		}
		runCtx, jWorkers, tracer = env.Ctx, env.Workers, env.Tracer
		memo = eval.NewCache()
		checkEnabled = *check
		var snap *benchsnap.Snapshot
		switch *table {
		case 1:
			snap, err = table1(*only, *seed, *encBudget)
		case 2:
			snap, err = table2(*only, *seed)
		case 3:
			err = table3(*only)
		case 4:
			err = table4(*only)
		default:
			err = fmt.Errorf("unknown table %d", *table)
		}
		if err == nil && *jsonOut != "" {
			if snap == nil {
				err = fmt.Errorf("-json supports tables 1 and 2 only")
			} else {
				err = benchsnap.Write(*jsonOut, snap, os.Stdout)
			}
		}
		return err
	}))
}

// selects reports whether -fsm name picks a row of the table: a row of
// Table I or II, or any benchmark on the extension tables, which run
// whichever machine they are given.
func selects(table int, name string) bool {
	spec, ok := benchgen.ByName(name)
	switch table {
	case 1:
		return ok && spec.Table1
	case 2:
		return ok && spec.Table2
	}
	return ok
}

// tracer is the -trace sink (nil when untraced); threaded into the PICOLA
// encoder runs of every table.
var tracer obs.Tracer

type table1Row struct {
	name                string
	constraints         int
	novaCubes, picCubes int
	encCubes            int
	encCompleted        bool
	tNova, tEnc, tPic   time.Duration
}

func table1Compute(spec benchgen.Spec, seed int64, encBudget int) (*table1Row, error) {
	m := benchgen.Generate(spec)
	prob, _, err := symbolic.ExtractConstraints(m)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	row := &table1Row{name: spec.Name, constraints: len(prob.Constraints)}
	names := [3]string{"nova", "enc", "picola"}
	cubes := [3]*int{&row.novaCubes, &row.encCubes, &row.picCubes}
	walls := [3]*time.Duration{&row.tNova, &row.tEnc, &row.tPic}
	// Each encoder is written once: its timed run and its -check shrink
	// (untraced) both call it. ENC returns its own cube count and
	// completion; the evaluator scores the other two.
	encoders := [3]func(q *face.Problem, tr obs.Tracer) (*face.Encoding, *enc.Result, error){
		func(q *face.Problem, _ obs.Tracer) (*face.Encoding, *enc.Result, error) {
			e, err := nova.Encode(q, nova.Options{Variant: nova.IHybrid, Seed: seed})
			return e, nil, err
		},
		func(q *face.Problem, _ obs.Tracer) (*face.Encoding, *enc.Result, error) {
			r, err := enc.Encode(q, enc.Options{Seed: seed, Budget: encBudget, Workers: jWorkers, Cache: memo})
			if err != nil {
				return nil, nil, err
			}
			return r.Encoding, r, nil
		},
		func(q *face.Problem, tr obs.Tracer) (*face.Encoding, *enc.Result, error) {
			r, err := core.EncodeContext(runCtx, q, core.Options{Trace: tr, Workers: jWorkers, Cache: memo})
			if err != nil {
				return nil, nil, err
			}
			return r.Encoding, nil, nil
		},
	}
	// The three encoders are independent given the extracted problem and
	// each writes disjoint fields of row, so they fan out as one unit per
	// encoder. Under -j > 1 the wall-time columns overlap and are only
	// meaningful relative to each other within one run.
	_, err = par.MapContext(runCtx, 3, jWorkers, func(k int) (struct{}, error) {
		var z struct{}
		t0 := time.Now()
		e, encRes, err := encoders[k](prob, tracer)
		if err != nil {
			return z, fmt.Errorf("%s %s: %w", spec.Name, names[k], err)
		}
		*walls[k] = time.Since(t0)
		if err := checkEncoded(spec.Name, names[k], prob, e, func(q *face.Problem) (*face.Encoding, error) {
			e, _, err := encoders[k](q, nil)
			return e, err
		}); err != nil {
			return z, err
		}
		if encRes != nil {
			*cubes[k], row.encCompleted = encRes.Cost, encRes.Completed
			return z, nil
		}
		cost, err := eval.EvaluateContext(runCtx, prob, e, eval.Options{Cache: memo, Workers: jWorkers})
		if err != nil {
			return z, err
		}
		*cubes[k] = cost.Total
		return z, nil
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

func table1(only string, seed int64, encBudget int) (*benchsnap.Snapshot, error) {
	tab := &report.Table{
		Title:  "Table I — cubes to implement the group constraints at minimum code length",
		Header: []string{"FSM", "const", "NOVA", "ENC", "PICOLA", "t_nova", "t_enc", "t_picola"},
	}
	var specs []benchgen.Spec
	for _, spec := range benchgen.Table1Specs() {
		if only == "" || spec.Name == only {
			specs = append(specs, spec)
		}
	}
	rows, err := forEach(specs, func(spec benchgen.Spec) (*table1Row, error) {
		return table1Compute(spec, seed, encBudget)
	})
	if err != nil {
		return nil, err
	}
	snap := &benchsnap.Snapshot{Schema: benchsnap.Schema, Table: 1}
	var totNova, totEnc, totPic int
	var winsPic, winsNova, encFails int
	encComparable := true
	for _, row := range rows {
		completed := row.encCompleted
		snap.Rows = append(snap.Rows, benchsnap.Row{
			FSM:         row.name,
			Constraints: row.constraints,
			Encoders: map[string]benchsnap.Stat{
				"nova":   {Cubes: row.novaCubes, WallNS: int64(row.tNova)},
				"enc":    {Cubes: row.encCubes, WallNS: int64(row.tEnc), Completed: &completed},
				"picola": {Cubes: row.picCubes, WallNS: int64(row.tPic)},
			},
		})
		encCol := fmt.Sprintf("%d", row.encCubes)
		if !row.encCompleted {
			encCol = "fails"
			encComparable = false
			encFails++
		} else {
			totEnc += row.encCubes
		}
		totNova += row.novaCubes
		totPic += row.picCubes
		switch {
		case row.picCubes < row.novaCubes:
			winsPic++
		case row.novaCubes < row.picCubes:
			winsNova++
		}
		tab.Add(row.name, fmt.Sprint(row.constraints), fmt.Sprint(row.novaCubes), encCol,
			fmt.Sprint(row.picCubes), round(row.tNova).String(), round(row.tEnc).String(),
			round(row.tPic).String())
	}
	tab.Footer = append(tab.Footer, fmt.Sprintf("Totals: NOVA=%d PICOLA=%d (NOVA/PICOLA = %.2f)",
		totNova, totPic, ratio(totNova, totPic)))
	if encComparable {
		tab.Footer = append(tab.Footer, fmt.Sprintf("ENC=%d (completed all instances)", totEnc))
	} else {
		tab.Footer = append(tab.Footer, fmt.Sprintf(
			"ENC failed (budget exhausted) on %d instance(s); completed total=%d", encFails, totEnc))
	}
	tab.Footer = append(tab.Footer, fmt.Sprintf(
		"PICOLA better on %d, NOVA better on %d, ties on the rest", winsPic, winsNova))
	return snap, tab.Render(os.Stdout, outFormat)
}

// table2Row is one benchmark's three state-assignment runs.
type table2Row struct {
	name   string
	states int
	ih     *stassign.Report
	ioh    *stassign.Report
	neu    *stassign.Report
}

func table2Compute(spec benchgen.Spec, seed int64) (*table2Row, error) {
	m := benchgen.Generate(spec)
	// The three assignments only share the machine, which they read; fan
	// them out one unit per encoder.
	encoders := []stassign.Encoder{stassign.NovaIH, stassign.NovaIOH, stassign.Picola}
	reps, err := par.MapContext(runCtx, len(encoders), jWorkers, func(k int) (*stassign.Report, error) {
		o := stassign.Options{Encoder: encoders[k], Seed: seed, Workers: jWorkers, Cache: memo}
		if encoders[k] == stassign.Picola {
			o.Trace = tracer
		}
		rep, err := stassign.AssignContext(runCtx, m, o)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", spec.Name, encoders[k], err)
		}
		if checkEnabled {
			prob, _, err := symbolic.ExtractConstraints(m)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			// A shrunk constraint instance has no machine around it, so
			// NovaIOH re-encodes it without output pairs.
			o.Trace = nil
			if err := checkEncoded(spec.Name, fmt.Sprint(encoders[k]), prob, rep.Encoding, func(q *face.Problem) (*face.Encoding, error) {
				e, _, err := stassign.EncodeProblem(runCtx, nil, q, o)
				return e, err
			}); err != nil {
				return nil, err
			}
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	return &table2Row{name: spec.Name, states: m.NumStates(),
		ih: reps[0], ioh: reps[1], neu: reps[2]}, nil
}

func table2(only string, seed int64) (*benchsnap.Snapshot, error) {
	tab := &report.Table{
		Title:  "Table II — state assignment: two-level size and time, normalized to NOVA-ih",
		Header: []string{"FSM", "ih", "t", "ioh", "t", "NEW", "t"},
	}
	var specs []benchgen.Spec
	for _, spec := range benchgen.Table2Specs() {
		if only == "" || spec.Name == only {
			specs = append(specs, spec)
		}
	}
	rows, err := forEach(specs, func(spec benchgen.Spec) (*table2Row, error) {
		return table2Compute(spec, seed)
	})
	if err != nil {
		return nil, err
	}
	snap := &benchsnap.Snapshot{Schema: benchsnap.Schema, Table: 2}
	var totIH, totIOH, totNew int
	for _, row := range rows {
		ih, ioh, neu := row.ih, row.ioh, row.neu
		base := ih.TotalTime
		tab.Add(row.name,
			fmt.Sprint(ih.Products), "1.00",
			fmt.Sprint(ioh.Products), fmt.Sprintf("%.2f", timeRatio(ioh.TotalTime, base)),
			fmt.Sprint(neu.Products), fmt.Sprintf("%.2f", timeRatio(neu.TotalTime, base)))
		snap.Rows = append(snap.Rows, benchsnap.Row{
			FSM:    row.name,
			States: row.states,
			Encoders: map[string]benchsnap.Stat{
				"nova-ih":  {Products: ih.Products, WallNS: int64(ih.TotalTime)},
				"nova-ioh": {Products: ioh.Products, WallNS: int64(ioh.TotalTime)},
				"picola":   {Products: neu.Products, WallNS: int64(neu.TotalTime)},
			},
		})
		totIH += ih.Products
		totIOH += ioh.Products
		totNew += neu.Products
	}
	tab.Footer = append(tab.Footer,
		fmt.Sprintf("Total products: NOVA-ih=%d NOVA-ioh=%d NEW=%d", totIH, totIOH, totNew),
		fmt.Sprintf("Size ratios vs NEW: ih=%.3f ioh=%.3f", ratio(totIH, totNew), ratio(totIOH, totNew)))
	return snap, tab.Render(os.Stdout, outFormat)
}

func timeRatio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func round(d time.Duration) time.Duration { return d.Round(time.Millisecond) }

// table3 is the extension experiment motivating the partial problem: for
// each machine, sweep the code length from the minimum to the width at
// which every face constraint is satisfiable, reporting the constraint
// cost, the encoded machine's product terms, and the PLA area. Full
// satisfaction trades fewer product terms against wider PLAs — usually a
// net loss, which is why minimum-length (partial) encoding is standard.
func table3(only string) error {
	fsms := []string{"bbara", "dk14", "ex3", "opus", "dk16", "keyb"}
	if only != "" {
		fsms = []string{only}
	}
	fmt.Println("Table III (extension) — code length vs. cost trade-off (PICOLA at each length)")
	fmt.Printf("%-10s %4s %7s %10s %10s %9s %14s\n",
		"FSM", "nv", "sat", "cons.cubes", "products", "area", "note")
	for _, name := range fsms {
		spec, ok := benchgen.ByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", name)
		}
		m := benchgen.Generate(spec)
		prob, _, err := symbolic.ExtractConstraints(m)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		full, err := core.EncodeAllContext(runCtx, prob, core.Options{Trace: tracer, Workers: jWorkers, Cache: memo})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		maxNV := full.Encoding.NV
		for nv := prob.MinLength(); nv <= maxNV; nv++ {
			var r *core.Result
			if nv == maxNV {
				r = full
			} else {
				r, err = core.EncodeContext(runCtx, prob, core.Options{NV: nv, Trace: tracer, Workers: jWorkers, Cache: memo})
				if err != nil {
					return fmt.Errorf("%s nv=%d: %w", name, nv, err)
				}
			}
			satisfied := 0
			for _, c := range prob.Constraints {
				if r.Encoding.Satisfied(c) {
					satisfied++
				}
			}
			// The constraint-cube column uses the exact evaluator, which
			// is only cheap at narrow code spaces; wider rows print "-".
			cubesCol := "-"
			if nv <= 11 {
				cost, err := eval.EvaluateContext(runCtx, prob, r.Encoding, eval.Options{Cache: memo, Workers: jWorkers})
				if err != nil {
					return err
				}
				cubesCol = fmt.Sprintf("%d", cost.Total)
			}
			min, _, err := stassign.MinimizeEncodedContext(runCtx, m, r.Encoding)
			if err != nil {
				return fmt.Errorf("%s nv=%d: %w", name, nv, err)
			}
			area := min.Len() * (2*(m.NumInputs+nv) + nv + m.NumOutputs)
			note := ""
			if nv == prob.MinLength() {
				note = "minimum"
			}
			if satisfied == len(prob.Constraints) {
				note = "all satisfied"
			}
			fmt.Printf("%-10s %4d %3d/%-3d %10s %10d %9d %14s\n",
				name, nv, satisfied, len(prob.Constraints),
				cubesCol, min.Len(), area, note)
			if satisfied == len(prob.Constraints) {
				break
			}
		}
		fmt.Println()
	}
	return nil
}

// jWorkers is set from the shared -j flag; memo is the process-wide
// minimization memo-cache every encoder and evaluator run shares
// (memoized counts are pure functions of their key, so sharing never
// changes a result); outFormat from -format; runCtx carries the
// -timeout deadline into every row and encoder run.
var (
	jWorkers  = 1
	memo      *eval.Cache
	outFormat = report.Text
	runCtx    = context.Background()
	// checkEnabled runs the semantic verification oracle on every
	// encoding produced by tables 1 and 2 (-check).
	checkEnabled = false
)

// checkEncoded verifies one encoding against the semantic oracle when
// -check is set. On failure the instance is shrunk (re-encoding with
// reEncode) to a minimal consfile repro embedded in the error.
func checkEncoded(fsm, encName string, prob *face.Problem, e *face.Encoding,
	reEncode func(*face.Problem) (*face.Encoding, error)) error {
	if !checkEnabled {
		return nil
	}
	vopts := verify.Options{RequireMinLength: true}
	rep := verify.Audit(prob, e, memo, vopts)
	if rep.Ok() {
		return nil
	}
	shrunk := verify.Shrink(prob, func(q *face.Problem) bool {
		qe, err := reEncode(q)
		if err != nil {
			return false
		}
		return !verify.Audit(q, qe, memo, vopts).Ok()
	}, 0)
	return fmt.Errorf("%s %s: -check failed: %w\nshrunk repro:\n%s",
		fsm, encName, rep.Err(), verify.Repro(shrunk))
}

// forEach maps fn over the specs, up to -j concurrently, and returns the
// results in input order with the lowest-index error winning — the
// deterministic row fan-out of the harness.
// Progress gauges: a table run publishes rows-total before fanning out
// and counts rows-done up as workers finish, so the introspection
// server's /progress endpoint shows a live sweep position.
var (
	pDone  = obs.Default.Gauge(obs.ProgressDone)
	pTotal = obs.Default.Gauge(obs.ProgressTotal)
)

func forEach[T any](specs []benchgen.Spec, fn func(benchgen.Spec) (T, error)) ([]T, error) {
	pTotal.Set(int64(len(specs)))
	pDone.Set(0)
	return par.MapContext(runCtx, len(specs), jWorkers, func(i int) (T, error) {
		// Per-row deadline check: a cancelled sweep stops handing out rows
		// and the harness reports the context error instead of a table.
		var zero T
		if err := ctxutil.Check(runCtx, "tables.row"); err != nil {
			return zero, err
		}
		r, err := fn(specs[i])
		pDone.Add(1)
		return r, err
	})
}

// table4 is the power extension experiment: the switching activity of the
// state register (expected flip-flop toggles per cycle under random
// inputs, Markov steady state) and the product-term cost, for PICOLA's
// area-driven codes versus the low-power annealer's codes. The classical
// result reproduced here is the tension between the two objectives.
func table4(only string) error {
	fsms := []string{"bbara", "dk14", "ex3", "opus", "keyb", "dk16", "planet"}
	if only != "" {
		fsms = []string{only}
	}
	tab := &report.Table{
		Title:  "Table IV (extension) — area-driven vs low-power state codes",
		Header: []string{"FSM", "act(picola)", "products", "act(power)", "products", "act.save"},
	}
	for _, name := range fsms {
		spec, ok := benchgen.ByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", name)
		}
		m := benchgen.Generate(spec)
		mod, err := power.Build(m)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep, err := stassign.AssignContext(runCtx, m, stassign.Options{Encoder: stassign.Picola,
			Trace: tracer, Workers: jWorkers, Cache: memo})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		low := power.Encode(mod, power.Options{Seed: 1})
		minLow, _, err := stassign.MinimizeEncodedContext(runCtx, m, low)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		actPic := mod.Activity(rep.Encoding)
		actLow := mod.Activity(low)
		save := 0.0
		if actPic > 0 {
			save = 100 * (actPic - actLow) / actPic
		}
		tab.Add(name, fmt.Sprintf("%.3f", actPic), fmt.Sprint(rep.Products),
			fmt.Sprintf("%.3f", actLow), fmt.Sprint(minLow.Len()),
			fmt.Sprintf("%.1f%%", save))
	}
	return tab.Render(os.Stdout, outFormat)
}
