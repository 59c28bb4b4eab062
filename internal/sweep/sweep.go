// Package sweep is the parallel sweep engine behind the repo's hot
// path: the paper's evaluation (Tables 3-5) broadcasts once from every
// node of each 512-node topology, and wsnsweep/wsnbench regenerate
// those sweeps wholesale. The engine shards independent (topology,
// protocol, source, config) simulation jobs across a bounded pool of
// worker goroutines and gathers the outcomes into a slice indexed by
// job — never by completion order — so the output of a parallel sweep
// is byte-identical to running the same jobs in a serial loop.
//
// # Determinism
//
// sim.Run is a pure function of its arguments: the topologies are
// immutable value types, the protocols are stateless node-local rules,
// and the engine's only shared structure (the adjacency cache) is
// written once per (kind, size) under a sync.Map. Each worker writes
// only to its own job's slot of a pre-allocated outcome slice, and all
// aggregation happens after the pool drains, in job-index order.
// Completion order therefore cannot influence any observable output;
// the differential tests in this package prove the equivalence on
// every canonical topology/protocol pair.
//
// # Errors and cancellation
//
// A job that fails captures its error in its own Outcome and does not
// poison the other shards. Cancelling the context stops workers from
// claiming further jobs promptly; jobs that never started carry the
// context's error, jobs that already finished keep their results, so a
// partial sweep remains coherent: every Outcome holds exactly one of
// Result or Err.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// Job is one simulation to run: protocol p broadcast from Source on
// Topology under Config. Jobs must be independent — the engine gives
// no ordering guarantee between their executions, only between their
// gathered outcomes.
//
// Config.Trace, if set, is invoked from worker goroutines; it must be
// safe for concurrent use unless the engine runs with one worker.
// Each sim.Run is serial; this engine's pool is the only parallelism.
type Job struct {
	Topology grid.Topology
	Protocol sim.Protocol
	Source   grid.Coord
	Config   sim.Config
}

// String identifies the job in error messages.
func (j Job) String() string {
	name := "<nil>"
	if j.Protocol != nil {
		name = j.Protocol.Name()
	}
	return fmt.Sprintf("%s/%s src=%s", j.Topology.Kind(), name, j.Source)
}

// Outcome is the result slot of one job: exactly one of Result and Err
// is set once the engine returns.
type Outcome struct {
	// Job is the job this outcome belongs to.
	Job Job
	// Result is the simulation result; nil if the job failed or was
	// cancelled before it started.
	Result *sim.Result
	// Err is the job's own failure, or the context error for jobs the
	// cancellation prevented from running.
	Err error
}

// Gauge receives pending-job deltas from the engine, for queue-depth
// introspection by a serving layer: Run adds the batch size when it
// starts and subtracts one as each job finishes (or is abandoned by
// cancellation), so a gauge shared across engines reads the total
// number of simulation jobs currently queued or running. Add must be
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

// WithGauge returns a copy of the engine that reports pending-job
// counts to g. Every Run nets to zero on g: whatever it adds up front
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

// Run executes the jobs on the pool and returns one Outcome per job,
// index-aligned with jobs. Per-job failures are captured in the
// corresponding Outcome and never abort the sweep. The returned error
// is non-nil only when ctx was cancelled, in which case outcomes of
// jobs that never started carry the context error and the rest hold
// whatever completed before the cancellation.
func (e Engine) Run(ctx context.Context, jobs []Job) ([]Outcome, error) {
	outs := make([]Outcome, len(jobs))
	fns := make([]func() error, len(jobs))
	for i := range jobs {
		outs[i].Job = jobs[i]
		fns[i] = func() (err error) {
			j := &jobs[i]
			outs[i].Result, err = sim.Run(j.Topology, j.Protocol, j.Source, j.Config)
			return err
		}
	}
	errs, err := e.RunFuncs(ctx, fns)
	for i := range outs {
		outs[i].Err = errs[i]
	}
	return outs, err
}

// RunFuncs executes arbitrary independent tasks on the pool under the
// engine's claim/cancellation contract: workers claim tasks atomically
// in index order, each task's returned error lands in its own slot of
// the returned slice, and no task's failure stops the others. The
// second return is non-nil only when ctx was cancelled; tasks the
// cancellation prevented from starting then carry the context error in
// their slots, tasks that completed keep whatever they returned. Run
// and the Monte Carlo engine's replications go through this; every
// task writes into its own caller-owned slot, so completion order
// cannot influence any observable output.
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

// SourceJobs returns one job per node of t in dense index order — the
// full source-position sweep of the paper's evaluation.
func SourceJobs(t grid.Topology, p sim.Protocol, cfg sim.Config) []Job {
	jobs := make([]Job, t.NumNodes())
	for i := range jobs {
		jobs[i] = Job{Topology: t, Protocol: p, Source: t.At(i), Config: cfg}
	}
	return jobs
}

// SweepSources runs p from each of the given sources (nil means every
// node of t) and returns the results in source order. The first failed
// job, in job order, aborts with its error.
func (e Engine) SweepSources(ctx context.Context, t grid.Topology, p sim.Protocol, cfg sim.Config, sources []grid.Coord) ([]*sim.Result, error) {
	var jobs []Job
	if sources == nil {
		jobs = SourceJobs(t, p, cfg)
	} else {
		jobs = make([]Job, len(sources))
		for i, src := range sources {
			jobs[i] = Job{Topology: t, Protocol: p, Source: src, Config: cfg}
		}
	}
	outs, err := e.Run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	return Results(outs)
}

// Results unwraps outcomes into their results, index-aligned. The
// first job error, in job order, is returned wrapped with the job's
// identity.
func Results(outs []Outcome) ([]*sim.Result, error) {
	results := make([]*sim.Result, len(outs))
	for i, o := range outs {
		if o.Err != nil {
			return nil, fmt.Errorf("sweep: job %d (%s): %w", i, o.Job, o.Err)
		}
		results[i] = o.Result
	}
	return results, nil
}
