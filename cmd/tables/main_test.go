package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"picola/internal/benchgen"
)

// TestForEachHonorsCancelledContext is the -timeout regression test for
// the row harness: with the run context already cancelled, forEach must
// run zero rows and report the wrapped context error instead of a
// zero-filled result slice.
func TestForEachHonorsCancelledContext(t *testing.T) {
	prev := runCtx
	t.Cleanup(func() { runCtx = prev })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runCtx = ctx
	specs := benchgen.Table1Specs()
	ran := 0
	_, err := forEach(specs, func(benchgen.Spec) (int, error) {
		ran++
		return 0, nil
	})
	if err == nil {
		t.Fatal("forEach returned success under a cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d rows ran under a cancelled context", ran)
	}
}

// TestForEachCancelMidSweep cancels after the first row: the sweep must
// stop early (strictly fewer rows than specs) and report the sentinel.
func TestForEachCancelMidSweep(t *testing.T) {
	prev, prevW := runCtx, jWorkers
	t.Cleanup(func() { runCtx, jWorkers = prev, prevW })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runCtx = ctx
	jWorkers = 1
	specs := benchgen.Table1Specs()
	if len(specs) < 2 {
		t.Skip("needs at least two specs")
	}
	ran := 0
	_, err := forEach(specs, func(benchgen.Spec) (int, error) {
		ran++
		cancel()
		return 0, nil
	})
	if err == nil {
		t.Fatal("forEach returned success after mid-sweep cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if ran != 1 {
		t.Fatalf("ran %d rows after cancelling on the first, want 1", ran)
	}
}

// TestFSMSelectsNothing: on every table, an -fsm that selects no row is
// a usage error (exit 2) that prints no table and writes no snapshot.
// bbara is a Table I machine but not a Table II one.
func TestFSMSelectsNothing(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tables")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	snap := filepath.Join(dir, "snap.json")
	for _, args := range [][]string{
		{"-table", "1", "-fsm", "nosuch"},
		{"-table", "2", "-fsm", "bbara", "-json", snap},
		{"-table", "3", "-fsm", "nosuch"},
		{"-table", "4", "-fsm", "nosuch"},
	} {
		var stdout bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout = &stdout
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("tables %v: %v, want exit status 2", args, err)
		}
		if stdout.Len() > 0 {
			t.Errorf("tables %v printed output:\n%s", args, stdout.String())
		}
	}
	if _, err := os.Stat(snap); !os.IsNotExist(err) {
		t.Errorf("-table 2 -fsm bbara wrote a snapshot (stat: %v)", err)
	}
}
