// Package sweep is the one fan-out primitive of the repo: a bounded
// pool of worker goroutines that runs independent tasks and gathers
// each task's error into a slot indexed by task — never by completion
// order. Every source sweep (the paper's Tables 3-5 broadcast once
// from every node of each 512-node topology), every request plan's
// points and every Monte Carlo point's replications run through
// Engine.RunFuncs.
//
// # Determinism
//
// Each task writes only into its own caller-owned slot, and callers
// aggregate after the pool drains, in task-index order. The tasks the
// repo submits are pure functions of their inputs (sim.Run over an
// immutable topology and a stateless protocol, a plan point, a seeded
// replication), so completion order cannot influence any observable
// output; the differential tests in this package prove the equivalence
// with a serial loop on every canonical topology/protocol pair.
//
// # Errors and cancellation
//
// A task that fails captures its error in its own slot and does not
// poison the others. Cancelling the context stops workers from
// claiming further tasks: at most one task per worker is in flight
// when the cancellation lands, tasks that never started carry the
// context's error, and tasks that finished keep whatever they
// returned.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Gauge receives pending-task deltas from the engine, for queue-depth
// introspection by a serving layer: RunFuncs adds the batch size when
// it starts and subtracts one as each task finishes (or is abandoned
// by cancellation), so a gauge shared across engines reads the total
// number of tasks currently queued or running. Add must be
// safe for concurrent use; *sync/atomic.Int64 satisfies the interface.
type Gauge interface {
	Add(delta int64)
}

// Engine is a bounded worker pool. The zero value runs with
// GOMAXPROCS workers; construct with New to bound it differently.
// Engines are stateless and safe for concurrent use.
type Engine struct {
	workers int
	gauge   Gauge
}

// New returns an engine with the given pool size; workers <= 0 means
// GOMAXPROCS, matching the serial path's single-core behavior when
// GOMAXPROCS=1.
func New(workers int) Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return Engine{workers: workers}
}

// WithGauge returns a copy of the engine that reports pending-task
// counts to g. Every RunFuncs nets to zero on g: whatever it adds up front
// it subtracts by the time it returns, cancelled or not.
func (e Engine) WithGauge(g Gauge) Engine {
	e.gauge = g
	return e
}

// Workers returns the effective pool size.
func (e Engine) Workers() int {
	if e.workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.workers
}

// RunFuncs executes independent tasks on the pool: workers claim tasks
// atomically in index order, each task's returned error lands in its
// own slot of the returned slice, and no task's failure stops the
// others. The second return is non-nil only when ctx was cancelled;
// tasks the cancellation prevented from starting then carry the
// context error in their slots, tasks that completed keep whatever
// they returned.
func (e Engine) RunFuncs(ctx context.Context, fns []func() error) ([]error, error) {
	errs := make([]error, len(fns))
	if len(fns) == 0 {
		return errs, ctx.Err()
	}
	workers := e.Workers()
	if workers > len(fns) {
		workers = len(fns)
	}
	if e.gauge != nil {
		e.gauge.Add(int64(len(fns)))
	}

	ran := make([]bool, len(fns)) // each slot written only by its claimer
	var next atomic.Int64
	var wg sync.WaitGroup
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= len(fns) {
					return
				}
				errs[i] = fns[i]()
				ran[i] = true
				if e.gauge != nil {
					e.gauge.Add(-1)
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		for i := range errs {
			if !ran[i] {
				errs[i] = err
				if e.gauge != nil {
					e.gauge.Add(-1)
				}
			}
		}
		return errs, err
	}
	return errs, nil
}
