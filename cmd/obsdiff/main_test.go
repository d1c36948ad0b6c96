package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops content into a temp file and returns its path.
func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

var defThresh = thresholds{wallPct: 25, quantPct: 50, minNS: 1_000_000}

const ledgerA = `{
  "schema": "picola-ledger/v1",
  "command": "tables",
  "start_unix_ms": 1,
  "wall_ns": 2000000000,
  "stages": [
    {"stage": "restart", "spans": 4, "cum_ns": 1500000000, "self_ns": 900000000},
    {"stage": "column", "spans": 20, "cum_ns": 600000000, "self_ns": 600000000}
  ],
  "timers": {"eval.evaluate": {"count": 10, "total_ns": 400000000, "mean_ns": 40000000}},
  "histograms": {"core.encode_ns": {"count": 9, "p50_ns": 4194304, "p90_ns": 16777216, "p99_ns": 16777216, "max_ns": 12345678}}
}`

// bump rewrites every digit-run ≥ 7 digits scaled up ~3x by prefixing a
// digit — crude but enough to regress every series at once.
func regressedLedger() string {
	return strings.ReplaceAll(ledgerA, `"wall_ns": 2000000000`, `"wall_ns": 9000000000`)
}

func TestSelfCompareLedgerExitsZero(t *testing.T) {
	p := write(t, "a.json", ledgerA)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, p, p, defThresh); code != 0 {
		t.Fatalf("self-compare exit = %d, want 0\n%s%s", code, out.String(), errw.String())
	}
	if strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("self-compare reported a regression:\n%s", out.String())
	}
}

func TestWallRegressionExitsOne(t *testing.T) {
	a := write(t, "a.json", ledgerA)
	b := write(t, "b.json", regressedLedger())
	var out, errw bytes.Buffer
	if code := run(&out, &errw, a, b, defThresh); code != 1 {
		t.Fatalf("regressed compare exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION wall") {
		t.Fatalf("missing wall regression line:\n%s", out.String())
	}
}

func TestImprovementIsNotFatal(t *testing.T) {
	a := write(t, "a.json", regressedLedger())
	b := write(t, "b.json", ledgerA)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, a, b, defThresh); code != 0 {
		t.Fatalf("improved compare exit = %d, want 0\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "improved") {
		t.Fatalf("improvement not reported:\n%s", out.String())
	}
}

func TestNoiseFloorSkipsSmallDeltas(t *testing.T) {
	// 100ns -> 900ns is +800% but far below min-ns: must not regress.
	a := write(t, "a.json", `{"schema":"picola-ledger/v1","command":"x","start_unix_ms":1,"wall_ns":100}`)
	b := write(t, "b.json", `{"schema":"picola-ledger/v1","command":"x","start_unix_ms":1,"wall_ns":900}`)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, a, b, defThresh); code != 0 {
		t.Fatalf("sub-noise-floor compare exit = %d, want 0\n%s", code, out.String())
	}
}

func TestQuantileThresholdIsSeparate(t *testing.T) {
	// p99 grows 40%: over wall-pct 25 but under quantile-pct 50 → pass.
	a := write(t, "a.json", `{"schema":"picola-ledger/v1","command":"x","start_unix_ms":1,"wall_ns":0,
	  "histograms":{"h":{"count":5,"p50_ns":1000000,"p90_ns":1000000,"p99_ns":10000000,"max_ns":1}}}`)
	b := write(t, "b.json", `{"schema":"picola-ledger/v1","command":"x","start_unix_ms":1,"wall_ns":0,
	  "histograms":{"h":{"count":5,"p50_ns":1000000,"p90_ns":1000000,"p99_ns":14000000,"max_ns":1}}}`)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, a, b, defThresh); code != 0 {
		t.Fatalf("under-quantile-threshold compare exit = %d, want 0\n%s", code, out.String())
	}
	// At 60% growth it must regress.
	c := write(t, "c.json", `{"schema":"picola-ledger/v1","command":"x","start_unix_ms":1,"wall_ns":0,
	  "histograms":{"h":{"count":5,"p50_ns":1000000,"p90_ns":1000000,"p99_ns":16000000,"max_ns":1}}}`)
	out.Reset()
	if code := run(&out, &errw, a, c, defThresh); code != 1 {
		t.Fatalf("over-quantile-threshold compare exit = %d, want 1\n%s", code, out.String())
	}
}

func TestDisappearedSeriesIsSkipped(t *testing.T) {
	a := write(t, "a.json", ledgerA)
	b := write(t, "b.json", `{"schema":"picola-ledger/v1","command":"tables","start_unix_ms":1,"wall_ns":2000000000}`)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, a, b, defThresh); code != 0 {
		t.Fatalf("shape-changed compare exit = %d, want 0\n%s%s", code, out.String(), errw.String())
	}
}

func TestKindMismatchExitsTwo(t *testing.T) {
	a := write(t, "a.json", ledgerA)
	b := write(t, "b.json", `{"schema":"picola-bench/v1","table":1,"rows":[]}`)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, a, b, defThresh); code != 2 {
		t.Fatalf("kind-mismatch exit = %d, want 2\n%s", code, errw.String())
	}
}

func TestUnreadableInputExitsTwo(t *testing.T) {
	a := write(t, "a.json", ledgerA)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, a, filepath.Join(t.TempDir(), "missing.json"), defThresh); code != 2 {
		t.Fatalf("missing-file exit = %d, want 2", code)
	}
	bad := write(t, "bad.json", "{not json")
	if code := run(&out, &errw, a, bad, defThresh); code != 2 {
		t.Fatalf("malformed-file exit = %d, want 2", code)
	}
	unknown := write(t, "unknown.json", `{"schema":"picola-other/v9"}`)
	if code := run(&out, &errw, a, unknown, defThresh); code != 2 {
		t.Fatalf("unknown-schema exit = %d, want 2", code)
	}
}

func TestBenchSnapshotCompare(t *testing.T) {
	a := write(t, "a.json", `{"schema":"picola-bench/v1","table":1,"rows":[
	  {"fsm":"bbara","encoders":{"picola":{"cubes":15,"wall_ns":3000000}}}]}`)
	b := write(t, "b.json", `{"schema":"picola-bench/v1","table":1,"rows":[
	  {"fsm":"bbara","encoders":{"picola":{"cubes":15,"wall_ns":9000000}}}]}`)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, a, a, defThresh); code != 0 {
		t.Fatalf("bench self-compare exit = %d, want 0", code)
	}
	out.Reset()
	if code := run(&out, &errw, a, b, defThresh); code != 1 {
		t.Fatalf("bench regressed compare exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "bbara.picola.wall") {
		t.Fatalf("missing per-row series name:\n%s", out.String())
	}
}

func TestMetricsSnapshotCompare(t *testing.T) {
	// Registry snapshots have no schema field; percentiles come from the
	// bucket counts. Old p99 sits in the ≤4096 bucket; new pushes the
	// tail into the ≤65536 bucket: a 16x p99 regression.
	a := write(t, "a.json", `{"timers":{"t":{"count":2,"total_ns":10000000,"mean_ns":5000000}},
	  "histograms":{"h":{"count":100,"sum":1,"max":4000,
	    "bounds":[256,1024,4096,65536],"buckets":[0,50,50,0,0]}}}`)
	b := write(t, "b.json", `{"timers":{"t":{"count":2,"total_ns":10000000,"mean_ns":5000000}},
	  "histograms":{"h":{"count":100,"sum":1,"max":60000,
	    "bounds":[256,1024,4096,65536],"buckets":[0,50,48,2,0]}}}`)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, a, a, defThresh); code != 0 {
		t.Fatalf("metrics self-compare exit = %d, want 0\n%s", code, errw.String())
	}
	// p99 regressed 4096 → 65536 but both its sides are sub-min-ns; use a
	// tiny floor to surface it.
	tight := thresholds{wallPct: 25, quantPct: 50, minNS: 1}
	out.Reset()
	if code := run(&out, &errw, a, b, tight); code != 1 {
		t.Fatalf("metrics regressed compare exit = %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "hist.h.p99") {
		t.Fatalf("missing histogram percentile series:\n%s", out.String())
	}
}

// TestDiffExitCodes pins the bench quality-gate exit-code contract on
// the diff_*.json goldens with the wall check off (-wall-pct inf): 0
// when the snapshots agree on every quality metric, 1 on any delta
// (including missing and extra rows), 2 when a snapshot is unusable or
// the two are of different tables.
func TestDiffExitCodes(t *testing.T) {
	td := func(name string) string { return filepath.Join("testdata", name) }
	qualityOnly := thresholds{wallPct: math.Inf(1), quantPct: 50, minNS: 1_000_000}
	cases := []struct {
		name     string
		oldPath  string
		newPath  string
		wantCode int
		wantOut  string // substring of stdout, "" to skip
		wantErr  string // substring of stderr, "" to skip
	}{
		{"identical", "diff_old.json", "diff_old.json", 0, "0 mismatches", ""},
		{"wall-time-only", "diff_old.json", "diff_same.json", 0, "4 measurements compared, 0 mismatches", ""},
		{"cube-delta", "diff_old.json", "diff_delta.json", 1, "cubes 4 -> 6 (+2)", "1 mismatch(es)"},
		{"missing-row", "diff_old.json", "diff_missing_row.json", 1, "beta", "1 mismatch(es)"},
		{"extra-row", "diff_missing_row.json", "diff_old.json", 1, "only in", "1 mismatch(es)"},
		{"malformed-new", "diff_old.json", "diff_malformed.json", 2, "", "diff_malformed.json"},
		{"malformed-old", "diff_malformed.json", "diff_old.json", 2, "", "diff_malformed.json"},
		{"bad-schema", "diff_old.json", "diff_badschema.json", 2, "", "unsupported schema"},
		{"unreadable", "diff_old.json", "diff_nonexistent.json", 2, "", "diff_nonexistent.json"},
		{"table-mismatch", "diff_old.json", "diff_table2.json", 2, "", "different tables"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			code := run(&out, &errw, td(tc.oldPath), td(tc.newPath), qualityOnly)
			if code != tc.wantCode {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tc.wantCode, out.String(), errw.String())
			}
			if tc.wantOut != "" && !strings.Contains(out.String(), tc.wantOut) {
				t.Fatalf("stdout missing %q:\n%s", tc.wantOut, out.String())
			}
			if tc.wantErr != "" && !strings.Contains(errw.String(), tc.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantErr, errw.String())
			}
		})
	}
}

// TestBenchQualityGateAtDefaultThresholds: the quality gate runs before
// the wall check whatever the thresholds. Every pair here has only
// improved or absent wall series, so the wall check alone would pass
// them all.
func TestBenchQualityGateAtDefaultThresholds(t *testing.T) {
	td := func(name string) string { return filepath.Join("testdata", name) }
	cases := []struct {
		name, newPath string
		wantCode      int
	}{
		{"different-tables", "diff_table2.json", 2},
		{"cube-delta", "diff_delta.json", 1},
		{"missing-row", "diff_missing_row.json", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run(&out, &errw, td("diff_old.json"), td(tc.newPath), defThresh); code != tc.wantCode {
				t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s",
					code, tc.wantCode, out.String(), errw.String())
			}
		})
	}
}
