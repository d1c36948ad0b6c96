package cli

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"picola/internal/obs"
)

// runMain runs Main on a fresh flag set with every file sink pointed into
// a temporary directory, capturing stderr. withV registers the -v flag a
// command would own. It returns the exit status, stderr and the sink
// directory.
func runMain(t *testing.T, withV bool, extra []string, body func(*Env) error) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if withV {
		fs.Bool("v", false, "")
	}
	args := append([]string{
		"-trace", filepath.Join(dir, "trace.jsonl"),
		"-metrics", filepath.Join(dir, "metrics.json"),
		"-ledger", filepath.Join(dir, "ledger.json"),
		"-cpuprofile", filepath.Join(dir, "cpu.prof"),
	}, extra...)

	errFile, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = errFile
	code := Main("cmd", fs, args, body)
	os.Stderr = saved
	if err := errFile.Close(); err != nil {
		t.Fatal(err)
	}
	stderr, err := os.ReadFile(errFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(stderr), dir
}

// checkSinks requires every file sink in dir to be complete: each trace
// line valid JSON, the metrics snapshot and the ledger record valid JSON
// (the ledger with its schema), and a non-empty CPU profile.
func checkSinks(t *testing.T, dir string) {
	t.Helper()
	trace, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(trace))
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("trace line is not JSON: %q", sc.Text())
		}
	}
	if len(trace) > 0 && trace[len(trace)-1] != '\n' {
		t.Fatalf("trace ends mid-line: %q", trace[max(0, len(trace)-80):])
	}
	for _, name := range []string{"metrics.json", "ledger.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(b) {
			t.Fatalf("%s is not JSON:\n%s", name, b)
		}
	}
	ledger, _ := os.ReadFile(filepath.Join(dir, "ledger.json"))
	if !bytes.Contains(ledger, []byte(`"schema": "picola-ledger/v1"`)) {
		t.Fatalf("ledger carries no schema:\n%s", ledger)
	}
	if st, err := os.Stat(filepath.Join(dir, "cpu.prof")); err != nil || st.Size() == 0 {
		t.Fatalf("CPU profile missing or empty (%v)", err)
	}
}

// emitMany writes enough trace events to overflow the JSONL sink's
// buffer, so the file holds a partial flush until the session closes.
func emitMany(env *Env) {
	for i := 0; i < 2000; i++ {
		obs.Emit(env.Tracer, obs.Event{Kind: obs.KindEvent, Stage: "test", Name: "tick",
			Attrs: map[string]float64{"i": float64(i)}})
	}
}

// TestMainExitPaths runs a body that succeeds, fails, chooses its exit
// status, and outlives a -timeout 1ns deadline: each must exit with the
// right status and message and leave every sink complete.
func TestMainExitPaths(t *testing.T) {
	cases := []struct {
		name    string
		extra   []string
		body    func(*Env) error
		code    int
		message string
	}{
		{"nil", nil, func(env *Env) error { emitMany(env); return nil }, 0, ""},
		{"error", nil, func(env *Env) error { emitMany(env); return errors.New("boom") }, 1, "cmd: boom\n"},
		{"exit-code", nil, func(env *Env) error { emitMany(env); return Exit(3, nil) }, 3, ""},
		{"usage", nil, func(env *Env) error { return Exit(2, errors.New("bad -x")) }, 2, "cmd: bad -x\n"},
		{"timeout", []string{"-timeout", "1ns"}, func(env *Env) error {
			emitMany(env)
			<-env.Ctx.Done()
			return fmt.Errorf("encode: %w", env.Ctx.Err())
		}, 1, "cmd: encode: context deadline exceeded\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, stderr, dir := runMain(t, false, c.extra, c.body)
			if code != c.code {
				t.Fatalf("exit status %d, want %d (stderr %q)", code, c.code, stderr)
			}
			if stderr != c.message {
				t.Fatalf("stderr %q, want %q", stderr, c.message)
			}
			checkSinks(t, dir)
		})
	}
}

// TestMainStageSummary requires the -v summary exactly when the flag set
// has a -v flag and it is set, on a failing run too.
func TestMainStageSummary(t *testing.T) {
	fail := func(*Env) error { return errors.New("boom") }
	if _, stderr, _ := runMain(t, true, []string{"-v"}, fail); !strings.Contains(stderr, "stage") {
		t.Fatalf("-v printed no stage summary:\n%s", stderr)
	}
	if _, stderr, _ := runMain(t, true, nil, fail); strings.Contains(stderr, "stage") {
		t.Fatalf("summary printed without -v:\n%s", stderr)
	}
	if code, _, _ := runMain(t, false, []string{"-v"}, fail); code != 2 {
		t.Fatalf("-v on a command without it: exit status %d, want the flag error's 2", code)
	}
}

// TestMainSharedFlags checks the flags Main owns: -j reaches the body,
// a flag error exits 2 without running it, -h exits 0, and -http
// announces its address in the line verify.sh scrapes.
func TestMainSharedFlags(t *testing.T) {
	workers := 0
	code, _, _ := runMain(t, false, []string{"-j", "3"}, func(env *Env) error {
		workers = env.Workers
		return nil
	})
	if code != 0 || workers != 3 {
		t.Fatalf("-j 3: exit status %d, workers %d", code, workers)
	}
	ran := false
	noteRun := func(*Env) error { ran = true; return nil }
	if code, _, _ := runMain(t, false, []string{"-nosuch"}, noteRun); code != 2 || ran {
		t.Fatalf("unknown flag: exit status %d, body ran %v; want 2 without running", code, ran)
	}
	if code, _, _ := runMain(t, false, []string{"-h"}, noteRun); code != 0 || ran {
		t.Fatalf("-h: exit status %d, body ran %v; want 0 without running", code, ran)
	}
	code, stderr, _ := runMain(t, false, []string{"-http", "127.0.0.1:0"}, func(*Env) error { return nil })
	if code != 0 || !strings.HasPrefix(stderr, "cmd: introspection server on http://127.0.0.1:") {
		t.Fatalf("-http: exit status %d, stderr %q", code, stderr)
	}
}
