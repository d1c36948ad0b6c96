package picola

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandsCompleteSinksOnTimeout builds the five commands that share
// the run lifecycle and runs each past a -timeout 1ns deadline with every
// file sink on. Each must exit 1 with the context error and leave a trace
// of whole JSON lines, JSON metrics and ledger files, and a readable CPU
// profile; verify must report the deadline rather than an oracle FAIL.
func TestCommandsCompleteSinksOnTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("builds five commands")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(goBin, "build", "-o", bin+string(filepath.Separator),
		"./cmd/picola", "./cmd/stassign", "./cmd/tables", "./cmd/verify", "./cmd/batch")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	corpus := filepath.Join(t.TempDir(), "corpus")
	if out, err := exec.Command(filepath.Join(bin, "batch"), "-gen", "-seed", "1", "-count", "3",
		"-max-symbols", "8", corpus).CombinedOutput(); err != nil {
		t.Fatalf("batch -gen: %v\n%s", err, out)
	}
	for _, run := range []struct {
		name string
		args []string
	}{
		{"picola", []string{filepath.Join("testdata", "figure1.cons")}},
		{"stassign", []string{"-bench", "bbara"}},
		{"tables", []string{"-table", "1", "-fsm", "bbara"}},
		{"verify", []string{filepath.Join("testdata", "figure1.cons")}},
		{"batch", []string{corpus}},
	} {
		t.Run(run.name, func(t *testing.T) {
			dir := t.TempDir()
			sink := func(f string) string { return filepath.Join(dir, f) }
			cmd := exec.Command(filepath.Join(bin, run.name), append([]string{"-timeout", "1ns",
				"-trace", sink("trace"), "-metrics", sink("metrics"), "-ledger", sink("ledger"),
				"-cpuprofile", sink("cpu")}, run.args...)...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Fatalf("exit %v, want status 1\nstderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "context deadline exceeded") {
				t.Errorf("stderr does not report the deadline:\n%s", stderr.String())
			}
			if run.name == "verify" && (strings.Contains(stdout.String(), "FAIL") ||
				strings.Contains(stderr.String(), "shrunk repro")) {
				t.Errorf("verify reported the timeout as an oracle failure:\n%s\n%s", stdout.String(), stderr.String())
			}
			trace, err := os.ReadFile(sink("trace"))
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(bytes.NewReader(trace))
			for sc.Scan() {
				if !json.Valid(sc.Bytes()) {
					t.Errorf("trace line is not JSON: %q", sc.Text())
				}
			}
			for _, f := range []string{"metrics", "ledger"} {
				b, err := os.ReadFile(sink(f))
				if err != nil || !json.Valid(b) {
					t.Errorf("-%s file missing or not JSON (%v):\n%s", f, err, b)
				}
			}
			prof, err := os.Open(sink("cpu"))
			if err != nil {
				t.Fatal(err)
			}
			defer prof.Close()
			zr, err := gzip.NewReader(prof)
			if err == nil {
				_, err = io.Copy(io.Discard, zr)
			}
			if err != nil {
				t.Errorf("-cpuprofile is not a complete profile: %v", err)
			}
		})
	}
}
