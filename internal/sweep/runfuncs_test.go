package sweep_test

// RunFuncs is the transport under every source sweep, plan point and
// Monte Carlo replication: tasks write into caller-owned slots, so
// these tests pin the slot discipline — per-task error isolation, exhaustion before
// return, and context errors landing only in the slots of tasks that
// never ran.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"wsnbcast/internal/sweep"
)

func TestRunFuncsEmpty(t *testing.T) {
	errs, err := sweep.New(4).RunFuncs(context.Background(), nil)
	if err != nil || len(errs) != 0 {
		t.Errorf("RunFuncs(nil) = %v, %v", errs, err)
	}
}

// Every task runs exactly once, each error stays in its own slot, and
// task failures never abort the batch — the invariants the Monte Carlo
// layer relies on to report the first failed replication in order.
func TestRunFuncsErrorIsolation(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 3, 16} {
		var calls [5]atomic.Int32
		fns := make([]func() error, len(calls))
		for i := range fns {
			i := i
			fns[i] = func() error {
				calls[i].Add(1)
				if i == 1 || i == 3 {
					return boom
				}
				return nil
			}
		}
		errs, err := sweep.New(workers).RunFuncs(context.Background(), fns)
		if err != nil {
			t.Fatalf("workers=%d: RunFuncs error %v (task errors must not abort the batch)", workers, err)
		}
		if len(errs) != len(fns) {
			t.Fatalf("workers=%d: %d error slots for %d tasks", workers, len(errs), len(fns))
		}
		for i := range fns {
			if n := calls[i].Load(); n != 1 {
				t.Errorf("workers=%d task %d: ran %d times", workers, i, n)
			}
			want := i == 1 || i == 3
			if got := errs[i] != nil; got != want {
				t.Errorf("workers=%d task %d: err = %v, want error: %v", workers, i, errs[i], want)
			}
			if want && !errors.Is(errs[i], boom) {
				t.Errorf("workers=%d task %d: err = %v, want boom in its own slot", workers, i, errs[i])
			}
		}
	}
}

// A pre-cancelled context runs nothing: RunFuncs returns the context
// error and writes it into every slot, so callers can tell skipped
// tasks from completed ones.
func TestRunFuncsPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	fns := make([]func() error, 4)
	for i := range fns {
		fns[i] = func() error { ran.Add(1); return nil }
	}
	errs, err := sweep.New(2).RunFuncs(ctx, fns)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunFuncs = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d tasks ran under a pre-cancelled context", n)
	}
	for i, e := range errs {
		if !errors.Is(e, context.Canceled) {
			t.Errorf("slot %d = %v, want the context error", i, e)
		}
	}
}

// Cancelling mid-batch stops claiming new tasks; completed tasks keep
// their own results while unclaimed slots report the context error.
func TestRunFuncsCancelMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fns := make([]func() error, 64)
	fired := errors.New("ran after the trigger")
	for i := range fns {
		i := i
		fns[i] = func() error {
			if i == 0 {
				cancel()
				return nil
			}
			return fired
		}
	}
	errs, err := sweep.New(1).RunFuncs(ctx, fns)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunFuncs = %v, want context.Canceled", err)
	}
	if errs[0] != nil {
		t.Errorf("completed task lost its result: %v", errs[0])
	}
	skipped := 0
	for _, e := range errs[1:] {
		if errors.Is(e, context.Canceled) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("no slot carries the context error after mid-batch cancellation")
	}
}

// More workers than tasks must not double-run or skip anything.
func TestRunFuncsMoreWorkersThanTasks(t *testing.T) {
	var calls [2]atomic.Int32
	fns := []func() error{
		func() error { calls[0].Add(1); return nil },
		func() error { calls[1].Add(1); return nil },
	}
	errs, err := sweep.New(32).RunFuncs(context.Background(), fns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fns {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("task %d ran %d times", i, n)
		}
		if errs[i] != nil {
			t.Errorf("task %d: unexpected error %v", i, errs[i])
		}
	}
}
