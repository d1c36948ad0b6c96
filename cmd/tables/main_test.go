package main

import (
	"context"
	"errors"
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
