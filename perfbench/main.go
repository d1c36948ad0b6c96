// Command perfbench is the repository's benchmark: it runs one named
// workload of the PICOLA engine for a fixed time, checks every output,
// and prints its metrics as one JSON line.
//
//	perfbench --workload table1 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records a span around every layer call instead, writes the spans to
// <workdir>/traces/, and reports the per-layer metrics. README.md lists
// the workloads and metrics; run.py builds and runs the command with the
// Go toolchain's caches kept inside the checkout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"picola/internal/obs"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workdir  string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Set-up runs at least minSetups times and, while the runs add up to
// less than setupBudget, up to maxSetups times; setup_s is their median.
// The traced run sets up once.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2 * time.Second
)

// runTimeout bounds one run; the measured time plus the longest set-up
// fits well inside it.
const runTimeout = 170 * time.Second

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the instance order")
	flag.IntVar(&seconds, "seconds", 10, "measure for this many seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "perfbench"),
		"directory for generated inputs, stores and trace files")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	if flag.NArg() > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	res, err := run(ctx, cfg, os.Stderr)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run sets the workload up, runs passes over all its instances until the
// measured time is spent, and returns the metrics. logw receives a
// human-readable summary.
func run(ctx context.Context, cfg config, logw io.Writer) (*result, error) {
	setup, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var setups []float64
	var s *suite
	var stale []string
	var spent time.Duration
	// cal stays nil on the traced run, whose layer times are reported raw.
	var cal *calibrator
	reps, limit := minSetups, maxSetups
	if cfg.trace {
		reps, limit = 1, 1
	}
	for len(setups) < reps || (len(setups) < limit && spent < setupBudget) {
		dir, err := os.MkdirTemp(tmp, "setup-")
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		next, err := setup(ctx, dir, &ref)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		if s != nil {
			stale = append(stale, s.dir)
		}
		s = next
		spent += d
		setups = append(setups, d.Seconds())
		if !cfg.trace {
			if cal == nil {
				if cal, err = newCalibrator(s.workers); err != nil {
					return nil, err
				}
				defer cal.close()
			}
			runtime.GC()
			cal.block(time.Duration(calibShare * float64(d)))
		}
	}
	// Earlier set-ups are removed only now: deleting one while the next
	// is timed would charge the file system's clean-up to the next.
	for _, dir := range stale {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	epoch := time.Now()
	var (
		passes            int
		traced            []*passStats
		latMS, throughput []float64
		layers            = map[string][]float64{}
		attempted, failed int
		costTotal         int
		peakLive          uint64
		notes             []string
		prevWall          time.Duration
	)
	deadline := time.Now().Add(cfg.seconds)
	for passes == 0 || time.Now().Before(deadline) {
		order := rng.Perm(len(s.insts))
		// Collect the previous pass's garbage now, not on this pass's
		// (or the calibration's) time.
		runtime.GC()
		if cal != nil && prevWall > 0 {
			cal.block(time.Duration(calibShare * float64(prevWall)))
		}
		var before *obs.Snapshot
		if cfg.trace {
			before = obs.Default.Snapshot()
		}
		ps, err := s.pass(ctx, order, epoch, cfg.trace)
		if err != nil {
			return nil, err
		}
		if cfg.trace {
			ps.reg = regDelta{before, obs.Default.Snapshot()}
		}
		tv := time.Now()
		bad, why := s.check(order, ps)
		ps.verify = time.Since(tv)
		attempted += s.ops()
		failed += bad
		notes = append(notes, why...)

		cost := 0
		for _, o := range ps.outs {
			latMS = append(latMS, float64(o.wall)/1e6)
			cost += o.cost
		}
		if passes == 0 {
			costTotal = cost
		}
		throughput = append(throughput, float64(len(ps.outs))/ps.wall.Seconds())
		prevWall = ps.wall
		peakLive = max(peakLive, ps.live)
		passes++
		if cfg.trace {
			for name, v := range layerMetrics(s, ps) {
				layers[name] = append(layers[name], v)
			}
			// The outcomes are checked; dropping them keeps the live
			// heap of later passes from growing with the pass count.
			ps.outs = nil
			traced = append(traced, ps)
		}
	}

	fmt.Fprintf(logw, "perfbench: %s seed=%d: %d set-up(s), %d pass(es) of %d instances, %d latency samples, throughput %.2f inst/s, %d/%d ops failed\n",
		cfg.workload, cfg.seed, len(setups), passes, len(s.insts), len(latMS), median(throughput), failed, attempted)
	for i, n := range notes {
		if i == 10 {
			fmt.Fprintf(logw, "perfbench: ... %d more failure(s)\n", len(notes)-i)
			break
		}
		fmt.Fprintln(logw, "perfbench: FAIL", n)
	}

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if cfg.trace {
		for _, lm := range layerMetricDefs {
			res.Metrics[lm.name] = metric{median(layers[lm.name]), lm.unit}
		}
		if err := writeTrace(cfg, traced, layers); err != nil {
			return nil, err
		}
		return res, nil
	}
	// Times are reported at the reference host speed (calib.go).
	f := cal.factor()
	fmt.Fprintf(logw, "perfbench: %d calibration samples, median %.3f ms, scale %.4f; raw setup %.3f s, p50 %.3f ms, p90 %.3f ms\n",
		len(cal.samples), median(cal.samples)*1e3, f, median(setups), percentile(latMS, 0.50), percentile(latMS, 0.90))
	res.Metrics = map[string]metric{
		"setup_s":               {median(setups) * f, "s"},
		"throughput_inst_per_s": {median(throughput) / f, "1/s"},
		"latency_p50_ms":        {percentile(latMS, 0.50) * f, "ms"},
		"latency_p90_ms":        {percentile(latMS, 0.90) * f, "ms"},
		"cost_total":            {float64(costTotal), "count"},
		"mem_peak_mb":           {float64(peakLive) / (1 << 20), "MiB"},
		"success_ratio":         {1 - ratio(float64(failed), float64(attempted)), "ratio"},
	}
	return res, nil
}

// layerMetricDefs lists the per-layer metrics of a traced run, each the
// median over its passes. BENCHMARK.json's per_layer list must match.
var layerMetricDefs = []struct{ name, unit string }{
	{"instance.wall_s", "s"},
	{"trace.unattributed_ratio", "ratio"},
	{"consfile.parse_s", "s"},
	{"symbolic.extract_s", "s"},
	{"core.encode_s", "s"},
	{"core.encode.self_s", "s"},
	{"core.restart.self_s", "s"},
	{"core.column.self_s", "s"},
	{"core.polish.self_s", "s"},
	{"core.exact_polish.self_s", "s"},
	{"core.columns", "count"},
	{"core.dichotomy_scans", "count"},
	{"core.estimates", "count"},
	{"core.polish.carried", "count"},
	{"core.classify.memo_hit_ratio", "ratio"},
	{"eval.evaluate_s", "s"},
	{"eval.export_s", "s"},
	{"eval.cache.hits", "count"},
	{"eval.cache.misses", "count"},
	{"eval.cache.hit_ratio", "ratio"},
	{"eval.cache.evictions", "count"},
	{"eval.cache.bytes", "bytes"},
	{"eval.warm.hits", "count"},
	{"eval.satisfied_shortcut", "count"},
	{"exact.minimize_count", "count"},
	{"exact.minimize_s", "s"},
	{"espresso.minimize_count", "count"},
	{"espresso.minimize_s", "s"},
	{"espresso.iterations", "count"},
	{"stassign.encode_s", "s"},
	{"stassign.minimize_s", "s"},
	{"evalstore.load_s", "s"},
	{"evalstore.append_s", "s"},
	{"evalstore.compact_s", "s"},
	{"evalstore.append_ratio", "ratio"},
	{"par.worker_busy_ratio", "ratio"},
	{"verify.check_s", "s"},
}

// layerMetrics derives one traced pass's per-layer metrics from its spans
// and its registry delta. Span totals are summed over the pass; self
// times subtract the enclosed child spans. The exact and espresso
// minimizers report only through the registry: their time is part of the
// self time of the core stage or evaluation that called them.
func layerMetrics(s *suite, ps *passStats) map[string]float64 {
	nest(ps.spans)
	self := selfTimes(ps.spans)
	total, own := map[string]float64{}, map[string]float64{}
	for i, sp := range ps.spans {
		total[sp.Name] += float64(sp.dur()) / 1e9
		own[sp.Name] += float64(self[i]) / 1e9
	}
	d := ps.reg
	hits, misses := d.count("eval.cache.hits"), d.count("eval.cache.misses")
	memoHits, memoMisses := d.count("core.classify.memo_hits"), d.count("core.classify.memo_misses")
	extract := total["symbolic.extract"]
	if !s.assign {
		extract = s.extract.Seconds() // table1 extracts in set-up
	}
	return map[string]float64{
		"instance.wall_s":              total["instance"],
		"trace.unattributed_ratio":     ratio(own["instance"], total["instance"]),
		"consfile.parse_s":             total["consfile.parse"],
		"symbolic.extract_s":           extract,
		"core.encode_s":                total["core.encode"],
		"core.encode.self_s":           own["core.encode"],
		"core.restart.self_s":          own["core.restart"],
		"core.column.self_s":           own["core.column"],
		"core.polish.self_s":           own["core.polish"],
		"core.exact_polish.self_s":     own["core.exact_polish"],
		"core.columns":                 d.count("core.columns"),
		"core.dichotomy_scans":         d.count("core.dichotomy_scans"),
		"core.estimates":               d.count("core.estimates"),
		"core.polish.carried":          d.count("core.polish.carried"),
		"core.classify.memo_hit_ratio": ratio(memoHits, memoHits+memoMisses),
		"eval.evaluate_s":              total["eval.evaluate"],
		"eval.export_s":                total["eval.export"],
		"eval.cache.hits":              hits,
		"eval.cache.misses":            misses,
		"eval.cache.hit_ratio":         ratio(hits, hits+misses),
		"eval.cache.evictions":         d.count("eval.cache.evictions"),
		"eval.cache.bytes":             float64(ps.cacheBytes),
		"eval.warm.hits":               d.count("eval.warm.hits"),
		"eval.satisfied_shortcut":      d.count("eval.satisfied_shortcut"),
		"exact.minimize_count":         d.count("espresso.exact_minimize"),
		"exact.minimize_s":             d.seconds("espresso.exact_minimize.time"),
		"espresso.minimize_count":      d.count("espresso.minimize"),
		"espresso.minimize_s":          d.seconds("espresso.minimize.time"),
		"espresso.iterations":          d.count("espresso.iterations"),
		"stassign.encode_s":            total["stassign.encode"],
		"stassign.minimize_s":          total["stassign.minimize"],
		"evalstore.load_s":             total["evalstore.load"],
		"evalstore.append_s":           total["evalstore.append"],
		"evalstore.compact_s":          total["evalstore.compact"],
		"evalstore.append_ratio":       ratio(float64(ps.appended), float64(ps.exported)),
		"par.worker_busy_ratio":        ratio(total["instance"], float64(s.workers)*ps.fanout.Seconds()),
		"verify.check_s":               ps.verify.Seconds(),
	}
}

// writeTrace writes the traced run's spans, registry deltas and layer
// metrics to <workdir>/traces/<workload>-seed<seed>.jsonl, one line per
// pass.
func writeTrace(cfg config, passes []*passStats, layers map[string][]float64) error {
	dir := filepath.Join(cfg.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i, ps := range passes {
		counters := map[string]int64{}
		for k, v := range ps.reg.after.Counters {
			if dv := v - ps.reg.before.Counters[k]; dv != 0 {
				counters[k] = dv
			}
		}
		timers := map[string]int64{}
		for k, v := range ps.reg.after.Timers {
			if dv := v.TotalNS - ps.reg.before.Timers[k].TotalNS; dv != 0 {
				timers[k] = dv
			}
		}
		lm := map[string]float64{}
		for name, vs := range layers {
			lm[name] = vs[i]
		}
		rec := struct {
			Pass     int                `json:"pass"`
			WallNS   int64              `json:"wall_ns"`
			Layers   map[string]float64 `json:"layers"`
			Counters map[string]int64   `json:"counter_deltas"`
			TimersNS map[string]int64   `json:"timer_deltas_ns"`
			Spans    []span             `json:"spans"`
		}{i, int64(ps.wall), lm, counters, timers, ps.spans}
		if err := enc.Encode(&rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
