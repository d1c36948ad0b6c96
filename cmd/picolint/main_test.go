package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestExitCodes pins the driver's exit-code contract: 0 clean,
// 1 findings, 2 usage or load error.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean package", []string{"internal/par"}, 0},
		{"kept deadexport suppression", []string{"internal/cube"}, 0},
		{"analyzer subset", []string{"-analyzers", "dettaint,lockcheck", "./..."}, 0},
		{"list", []string{"-list"}, 0},
		{"findings", []string{"-analyzers", "dettaint", "internal/analysis/testdata/src/dettaint"}, 1},
		{"unknown analyzer", []string{"-analyzers", "nosuch", "internal/par"}, 2},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"no baseline flag", []string{"-baseline", "picolint.baseline", "internal/par"}, 2},
		{"no write-baseline flag", []string{"-write-baseline", "internal/par"}, 2},
		{"missing package", []string{"internal/does-not-exist"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.want {
				t.Errorf("run(%v) = %d, want %d\nstdout: %s\nstderr: %s",
					tc.args, got, tc.want, stdout.String(), stderr.String())
			}
		})
	}
}

// TestParallelByteIdentical is the determinism gate for -j: the output
// stream must be byte-identical at any worker count.
func TestParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module twice")
	}
	var seq, par bytes.Buffer
	var stderr bytes.Buffer
	codeSeq := run([]string{"-j", "1", "./..."}, &seq, &stderr)
	codePar := run([]string{"-j", "8", "./..."}, &par, &stderr)
	if codeSeq != codePar {
		t.Fatalf("exit codes differ: -j1 %d vs -j8 %d", codeSeq, codePar)
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Errorf("output differs between -j 1 and -j 8:\n-j1:\n%s\n-j8:\n%s", seq.String(), par.String())
	}
}

// TestJSONOutput checks the -json shape on a fixture with known
// findings.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-analyzers", "hotalloc", "internal/analysis/testdata/src/hotalloc"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("want exit 1, got %d (stderr: %s)", code, stderr.String())
	}
	var findings []jsonFinding
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("want findings, got none")
	}
	for _, f := range findings {
		if f.Analyzer != "hotalloc" || f.Line <= 0 || !strings.HasPrefix(f.File, "internal/") {
			t.Errorf("malformed finding: %+v", f)
		}
	}
}

// TestSARIFOutput checks the SARIF 2.1.0 envelope on stdout.
func TestSARIFOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sarif", "-", "-analyzers", "lockcheck", "internal/analysis/testdata/src/lockcheck"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("want exit 1, got %d (stderr: %s)", code, stderr.String())
	}
	var log sarifLog
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("invalid SARIF JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("bad envelope: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run0 := log.Runs[0]
	if run0.Tool.Driver.Name != "picolint" || len(run0.Tool.Driver.Rules) == 0 {
		t.Errorf("bad tool block: %+v", run0.Tool)
	}
	if len(run0.Results) == 0 {
		t.Fatal("want results, got none")
	}
	for _, r := range run0.Results {
		if r.RuleID != "lockcheck" || len(r.Locations) != 1 {
			t.Errorf("malformed result: %+v", r)
		}
		if uri := r.Locations[0].PhysicalLocation.ArtifactLocation.URI; !strings.HasPrefix(uri, "internal/") {
			t.Errorf("URI not module-relative: %q", uri)
		}
	}
}

// BenchmarkPicolint is the wall-time budget CI enforces: one full
// load-build-analyze pass over the module.
func BenchmarkPicolint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
			b.Fatalf("picolint ./... failed: exit %d\n%s%s", code, stdout.String(), stderr.String())
		}
	}
}
