package picola

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"picola/internal/benchgen"
	"picola/internal/benchsnap"
	"picola/internal/consfile"
	"picola/internal/core"
	"picola/internal/eval"
	"picola/internal/stassign"
	"picola/internal/symbolic"
)

// pipelineFingerprint runs the full pipeline on one benchmark and
// renders every output-producing stage to bytes: the extracted
// constraint problem, the PICOLA encoding, the per-constraint cube
// evaluation, and the minimized encoded machine. Any order dependence
// anywhere in the pipeline shows up as a fingerprint difference.
func pipelineFingerprint(t *testing.T, name string) []byte {
	return pipelineFingerprintAt(t, name, 1, nil)
}

// pipelineFingerprintAt is pipelineFingerprint with the parallel
// execution layer dialed in: workers bounds the encoder and evaluator
// fan-out, cache (optionally shared across calls) memoizes constraint
// minimizations. The fingerprint must not depend on either.
func pipelineFingerprintAt(t *testing.T, name string, workers int, cache *eval.Cache) []byte {
	t.Helper()
	spec, ok := benchgen.ByName(name)
	if !ok {
		t.Fatalf("missing spec %s", name)
	}
	m := benchgen.Generate(spec)
	prob, _, err := symbolic.ExtractConstraints(m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString(prob.String())
	r, err := core.Encode(prob, core.Options{Workers: workers, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(r.Encoding.String())
	cost, err := eval.Evaluate(prob, r.Encoding, eval.Options{Workers: workers, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range cost.Cubes {
		buf.WriteByte(byte('0' + k%10))
	}
	min, _, err := stassign.MinimizeEncoded(m, r.Encoding)
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString(min.String())
	return buf.Bytes()
}

// TestPipelineDeterminism runs the pipeline twice per benchmark within
// one process. Go randomizes map iteration per range statement, so a
// single process pass catches iteration-order dependence.
func TestPipelineDeterminism(t *testing.T) {
	for _, name := range []string{"bbara", "dk14", "opus", "ex3"} {
		a := pipelineFingerprint(t, name)
		b := pipelineFingerprint(t, name)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two pipeline runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", name, a, b)
		}
	}
}

// TestParallelPipelineDeterminism pins the contract of the parallel
// execution layer: the full pipeline at full fan-out with a shared
// memo-cache is byte-identical to the sequential uncached run. Workers
// and Cache are pure accelerators — any divergence is a bug.
func TestParallelPipelineDeterminism(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	cache := eval.NewCache()
	for _, name := range []string{"bbara", "dk14", "opus", "ex3"} {
		seq := pipelineFingerprintAt(t, name, 1, nil)
		fan := pipelineFingerprintAt(t, name, workers, cache)
		if !bytes.Equal(seq, fan) {
			t.Errorf("%s: workers=%d+cache differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				name, workers, seq, fan)
		}
	}
}

// TestConsfileDeterminism covers the file-driven entry: parse the
// paper's example problem from testdata and encode it twice.
func TestConsfileDeterminism(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "figure1.cons"))
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		p, err := consfile.ParseString(string(b))
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := consfile.Write(&buf, p); err != nil {
			t.Fatal(err)
		}
		buf.WriteString(r.Encoding.String())
		return buf.Bytes()
	}
	if a, c := run(), run(); !bytes.Equal(a, c) {
		t.Errorf("figure1.cons: two encodes differ:\n%s\nvs\n%s", a, c)
	}
}

// TestTablesJSONDeterminism runs the real cmd/tables binary twice in
// separate processes — map iteration order also differs across
// processes — and asserts the -json snapshots are byte-identical once
// the wall-clock fields (the only legitimately varying values) are
// zeroed.
func TestTablesJSONDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run twice")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	run := func() []byte { return tablesSnapshot(t, goBin, 1) }
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Errorf("two cmd/tables runs differ:\n%s\nvs\n%s", a, b)
	}
}

// TestTablesJSONWorkerDeterminism runs the real cmd/tables binary at
// -j 1 and at -j GOMAXPROCS in separate processes and asserts the -json
// snapshots are byte-identical after wall_ns canonicalization: the -j
// flag must never change a measured result, only how fast it arrives.
func TestTablesJSONWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go run twice")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	seq := tablesSnapshot(t, goBin, 1)
	fan := tablesSnapshot(t, goBin, runtime.GOMAXPROCS(0))
	if !bytes.Equal(seq, fan) {
		t.Errorf("-j 1 and -j %d snapshots differ:\n%s\nvs\n%s",
			runtime.GOMAXPROCS(0), seq, fan)
	}
}

// tablesSnapshot runs cmd/tables -table 1 -fsm bbara -json - at the
// given worker count and returns the canonicalized snapshot bytes.
func tablesSnapshot(t *testing.T, goBin string, j int) []byte {
	t.Helper()
	cmd := exec.Command(goBin, "run", "./cmd/tables",
		"-table", "1", "-fsm", "bbara", "-j", strconv.Itoa(j), "-json", "-")
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("tables run: %v\n%s", err, stderr.String())
	}
	// stdout carries the rendered table then the JSON snapshot; the
	// snapshot starts at the first '{'.
	i := bytes.IndexByte(out.Bytes(), '{')
	if i < 0 {
		t.Fatalf("no JSON snapshot in output:\n%s", out.String())
	}
	return canonicalizeSnapshot(t, out.Bytes()[i:])
}

// canonicalizeSnapshot zeroes every wall time in a picola-bench snapshot
// and writes it back canonically.
func canonicalizeSnapshot(t *testing.T, b []byte) []byte {
	t.Helper()
	snap, err := benchsnap.Parse(b)
	if err != nil {
		t.Fatalf("bad snapshot: %v\n%s", err, b)
	}
	for _, row := range snap.Rows {
		for k, st := range row.Encoders {
			st.WallNS = 0
			row.Encoders[k] = st
		}
	}
	var out bytes.Buffer
	if err := benchsnap.Write("-", snap, &out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
