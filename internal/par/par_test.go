package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestMapOrder: results land at their input index whatever the worker
// count or completion order.
func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		got, err := Map(17, workers, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 17 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapMatchesSequential: the parallel pool computes exactly the slice
// an inline loop does.
func TestMapMatchesSequential(t *testing.T) {
	fn := func(i int) (string, error) { return fmt.Sprintf("r%d", 3*i+1), nil }
	seq, err := Map(31, 1, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(31, 4, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("index %d: sequential %q, parallel %q", i, seq[i], par[i])
		}
	}
}

// TestMapError: an error is reported and cancels not-yet-started work.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Map(1000, 2, func(i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("cancel did not skip any tasks (%d ran)", n)
	}
}

// TestMapErrorSequentialStops: the inline path stops at the first error
// like a plain loop.
// TestMapErrorLowestIndexWins: when several tasks fail, the error
// returned is the lowest-index one regardless of completion order, and
// the failures cancel the tasks not yet handed out.
func TestMapErrorLowestIndexWins(t *testing.T) {
	errLow := errors.New("low-index failure")
	errHigh := errors.New("high-index failure")
	// Task 6 is guaranteed to be running (task 7 waits for its start
	// signal) but blocks until task 7 has already failed — so errHigh
	// completes first, and errLow must still win the scan. With two
	// workers, one holds task 6 and the other task 7 until both have
	// failed, and each worker cancels on its own failure before taking
	// another task, so no task after 7 reaches fn: exactly tasks 0–7 run.
	sixStarted := make(chan struct{})
	release := make(chan struct{})
	var ran atomic.Int64
	_, err := Map(64, 2, func(i int) (int, error) {
		ran.Add(1)
		switch i {
		case 6:
			close(sixStarted)
			<-release
			return 0, errLow
		case 7:
			<-sixStarted
			close(release)
			return 0, errHigh
		}
		return i, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want the lowest-index failure %v", err, errLow)
	}
	if n := ran.Load(); n != 8 {
		t.Errorf("%d tasks ran, want tasks 0–7 only: the failures must cancel the rest", n)
	}
}

func TestMapErrorSequentialStops(t *testing.T) {
	var ran int
	_, err := Map(10, 1, func(i int) (int, error) {
		ran++
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if ran != 3 {
		t.Errorf("ran %d tasks, want 3", ran)
	}
}

// TestMapPanic: a worker panic is rethrown on the caller with the task
// index attached.
func TestMapPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic not rethrown")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "task 5 panicked") || !strings.Contains(msg, "kapow") {
			t.Errorf("panic message %q lacks task index or value", msg)
		}
	}()
	_, _ = Map(8, 4, func(i int) (int, error) {
		if i == 5 {
			panic("kapow")
		}
		return i, nil
	})
}

// TestMapEmpty: n ≤ 0 is a no-op.
func TestMapEmpty(t *testing.T) {
	got, err := Map(0, 4, func(i int) (int, error) { return i, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestWorkers: the -j normalization.
func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("Workers(3) != 3")
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Error("non-positive j must normalize to at least one worker")
	}
}
