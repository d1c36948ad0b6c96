// Command obsdiff is the one snapshot comparator: benchmark quality
// plus wall-clock and percentile regressions.
//
//	obsdiff OLD NEW
//	obsdiff -wall-pct 25 -quantile-pct 50 -min-ns 1000000 OLD NEW
//
// OLD and NEW may each be any of the three snapshot kinds the tools
// emit; the kind is auto-detected from the "schema" field:
//
//	picola-ledger/v1   a -ledger run record: per-stage cumulative wall,
//	                   per-timer totals, histogram percentiles
//	picola-bench/v1    a tables or batch -json snapshot: per-row,
//	                   per-encoder cubes, products and encode wall time
//	(no schema)        a -metrics registry snapshot: per-timer totals
//	                   and histogram percentiles
//
// Both files must be the same kind. Bench snapshots are quality-gated
// first (benchsnap.Diff): a cube or product delta, or a row or encoder
// on one side only, is a mismatch, snapshots of different tables are
// incomparable, and the report ends with the summed-wall speedup. Then
// a series comparison is skipped when both sides sit under -min-ns
// (noise floor) or the series exists on one side only (the set of
// stages/rows may legitimately change between runs); everything else
// regresses when NEW exceeds OLD by more than the threshold percentage
// (-wall-pct for walls and totals, -quantile-pct for the noisier
// p50/p90/p99). Improvements are reported, never fatal. -wall-pct inf
// compares bench snapshots on quality only, as a fresh single-sample run
// against a committed baseline needs.
//
// Exit codes: 0 clean, 1 at least one mismatch or regression, 2
// unreadable or incomparable input. Comparing a file against itself
// always exits 0, whatever the thresholds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"picola/internal/benchsnap"
	"picola/internal/obs"
)

func main() {
	wallPct := flag.Float64("wall-pct", 25, "regression threshold (percent) for wall-clock totals")
	quantPct := flag.Float64("quantile-pct", 50, "regression threshold (percent) for histogram percentiles")
	minNS := flag.Int64("min-ns", 1_000_000, "noise floor: skip comparisons where both sides are below this many nanoseconds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "obsdiff: need exactly two snapshot files: obsdiff OLD NEW")
		os.Exit(2)
	}
	code := run(os.Stdout, os.Stderr, flag.Arg(0), flag.Arg(1), thresholds{
		wallPct: *wallPct, quantPct: *quantPct, minNS: *minNS,
	})
	os.Exit(code)
}

// thresholds bundle the comparison knobs.
type thresholds struct {
	wallPct  float64
	quantPct float64
	minNS    int64
}

// series is one named latency measurement extracted from a snapshot:
// obsdiff reduces every input kind to a flat list of these, so the
// comparison logic is independent of where the numbers came from.
type series struct {
	name string
	ns   int64
	pct  func(t thresholds) float64 // threshold family (wall vs quantile)
}

func wallSeries(name string, ns int64) series {
	return series{name: name, ns: ns, pct: func(t thresholds) float64 { return t.wallPct }}
}

func quantSeries(name string, ns int64) series {
	return series{name: name, ns: ns, pct: func(t thresholds) float64 { return t.quantPct }}
}

// run drives one comparison and returns the exit code.
func run(w, errw io.Writer, oldPath, newPath string, t thresholds) int {
	oldKind, oldSeries, oldBench, err := load(oldPath)
	if err != nil {
		fmt.Fprintln(errw, "obsdiff:", err)
		return 2
	}
	newKind, newSeries, newBench, err := load(newPath)
	if err != nil {
		fmt.Fprintln(errw, "obsdiff:", err)
		return 2
	}
	if oldKind != newKind {
		fmt.Fprintf(errw, "obsdiff: %s is a %s snapshot but %s is a %s snapshot\n",
			oldPath, oldKind, newPath, newKind)
		return 2
	}
	mismatches := 0
	if oldBench != nil {
		if mismatches, err = benchsnap.Diff(w, oldBench, newBench, newPath); err != nil {
			fmt.Fprintln(errw, "obsdiff:", err)
			return 2
		}
	}
	newByName := make(map[string]series, len(newSeries))
	for _, s := range newSeries {
		newByName[s.name] = s
	}
	regressions := 0
	for _, o := range oldSeries {
		n, ok := newByName[o.name]
		if !ok {
			continue // series disappeared: a shape change, not a regression
		}
		if o.ns < t.minNS && n.ns < t.minNS {
			continue // both under the noise floor
		}
		limit := o.pct(t)
		delta := pctDelta(o.ns, n.ns)
		switch {
		case delta > limit:
			regressions++
			fmt.Fprintf(w, "REGRESSION %-40s %12d -> %12d ns  (%+.1f%% > %.0f%%)\n",
				o.name, o.ns, n.ns, delta, limit)
		case delta < -limit:
			fmt.Fprintf(w, "improved   %-40s %12d -> %12d ns  (%+.1f%%)\n",
				o.name, o.ns, n.ns, delta)
		}
	}
	fmt.Fprintf(w, "obsdiff: compared %d series (%s): %d regression(s)\n",
		len(oldSeries), oldKind, regressions)
	if mismatches > 0 {
		fmt.Fprintf(errw, "obsdiff: %d mismatch(es) between %s and %s\n", mismatches, oldPath, newPath)
	}
	if mismatches > 0 || regressions > 0 {
		return 1
	}
	return 0
}

// pctDelta is the percentage change from old to new; an old of zero with
// a nonzero new is treated as a full-threshold-busting jump.
func pctDelta(old, new int64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 1e9 // from nothing to something: always over threshold
	}
	return 100 * float64(new-old) / float64(old)
}

// load reads one snapshot file, detects its kind, and flattens it into
// named series, sorted by name for deterministic output. A bench
// snapshot is also returned parsed, for the quality diff.
func load(path string) (kind string, out []series, bench *benchsnap.Snapshot, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", nil, nil, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(b, &probe); err != nil {
		return "", nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	switch probe.Schema {
	case obs.LedgerSchema:
		out, err = ledgerSeries(b)
	case benchsnap.Schema:
		if bench, err = benchsnap.Parse(b); err == nil {
			out = benchSeries(bench)
		}
	case "":
		out, err = metricsSeries(b)
	default:
		return "", nil, nil, fmt.Errorf("%s: unsupported schema %q", path, probe.Schema)
	}
	if err != nil {
		return "", nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	kind = probe.Schema
	if kind == "" {
		kind = "metrics"
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return kind, out, bench, nil
}

// ledgerSeries flattens a -ledger record: per-stage cumulative wall,
// per-timer totals, and the histogram percentiles.
func ledgerSeries(b []byte) ([]series, error) {
	var rec obs.LedgerRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, err
	}
	var out []series
	out = append(out, wallSeries("wall", rec.WallNS))
	for _, st := range rec.Stages {
		out = append(out, wallSeries("stage."+st.Stage+".cum", st.CumNS))
	}
	for name, ts := range rec.Timers {
		out = append(out, wallSeries("timer."+name, ts.TotalNS))
	}
	for name, hs := range rec.Histograms {
		out = append(out,
			quantSeries("hist."+name+".p50", hs.P50NS),
			quantSeries("hist."+name+".p90", hs.P90NS),
			quantSeries("hist."+name+".p99", hs.P99NS))
	}
	return out, nil
}

// benchSeries flattens a bench snapshot: one wall series per (row,
// encoder) pair.
func benchSeries(snap *benchsnap.Snapshot) []series {
	var out []series
	for _, row := range snap.Rows {
		for enc, st := range row.Encoders {
			out = append(out, wallSeries(row.FSM+"."+enc+".wall", st.WallNS))
		}
	}
	return out
}

// metricsSeries flattens a -metrics registry snapshot: per-timer totals
// and histogram percentiles (recomputed from the bucket counts).
func metricsSeries(b []byte) ([]series, error) {
	var snap obs.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, err
	}
	if len(snap.Timers) == 0 && len(snap.Histograms) == 0 {
		return nil, fmt.Errorf("no timers or histograms (not a metrics snapshot?)")
	}
	var out []series
	for name, ts := range snap.Timers {
		out = append(out, wallSeries("timer."+name, ts.TotalNS))
	}
	for name, hs := range snap.Histograms {
		out = append(out,
			quantSeries("hist."+name+".p50", hs.Quantile(0.50)),
			quantSeries("hist."+name+".p90", hs.Quantile(0.90)),
			quantSeries("hist."+name+".p99", hs.Quantile(0.99)))
	}
	return out, nil
}
