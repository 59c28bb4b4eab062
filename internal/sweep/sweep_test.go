package sweep_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/sweep"
)

func TestWorkersDefaults(t *testing.T) {
	if w := sweep.New(0).Workers(); w < 1 {
		t.Errorf("New(0).Workers() = %d, want >= 1", w)
	}
	if w := sweep.New(-3).Workers(); w < 1 {
		t.Errorf("New(-3).Workers() = %d, want >= 1", w)
	}
	if w := sweep.New(7).Workers(); w != 7 {
		t.Errorf("New(7).Workers() = %d, want 7", w)
	}
	var zero sweep.Engine
	if w := zero.Workers(); w < 1 {
		t.Errorf("zero Engine.Workers() = %d, want >= 1", w)
	}
}

// sourceTasks builds one RunFuncs task per source: task i broadcasts p
// from srcs[i] on topo into results[i].
func sourceTasks(topo grid.Topology, p sim.Protocol, srcs []grid.Coord) ([]*sim.Result, []func() error) {
	results := make([]*sim.Result, len(srcs))
	fns := make([]func() error, len(srcs))
	for i := range fns {
		fns[i] = func() (err error) {
			results[i], err = sim.Run(topo, p, srcs[i], sim.Config{})
			return err
		}
	}
	return results, fns
}

// allSources lists every node of topo in dense index order.
func allSources(topo grid.Topology) []grid.Coord {
	srcs := make([]grid.Coord, topo.NumNodes())
	for i := range srcs {
		srcs[i] = topo.At(i)
	}
	return srcs
}

// sweepSources broadcasts p from every node of topo on a pool of
// workers and returns the results in source order, or the first
// failure in that order.
func sweepSources(workers int, topo grid.Topology, p sim.Protocol) ([]*sim.Result, error) {
	results, fns := sourceTasks(topo, p, allSources(topo))
	errs, err := sweep.New(workers).RunFuncs(context.Background(), fns)
	if err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("source %s: %w", topo.At(i), err)
		}
	}
	return results, nil
}

// TestRunEmpty runs a sweep over no sources: an empty, non-nil batch
// yields no task errors, no results and no sweep error.
func TestRunEmpty(t *testing.T) {
	results, fns := sourceTasks(grid.NewMesh2D4(4, 3), core.NewMesh4Protocol(), []grid.Coord{})
	errs, err := sweep.New(4).RunFuncs(context.Background(), fns)
	if err != nil || len(errs) != 0 || len(results) != 0 {
		t.Errorf("RunFuncs(no sources) = %v, %v (results %v)", errs, err, results)
	}
}

// TestErrorIsolation is the table-driven error layer: a failing
// broadcast captures its own error and never poisons the other tasks.
func TestErrorIsolation(t *testing.T) {
	topo := grid.NewMesh2D4(4, 3)
	proto := core.NewMesh4Protocol()
	bad := grid.C2(99, 99)

	for _, tc := range []struct {
		name    string
		srcs    []grid.Coord
		wantErr []bool // per task: expect a captured error
	}{
		{"first job fails", []grid.Coord{bad, topo.At(0), topo.At(1), topo.At(2)}, []bool{true, false, false, false}},
		{"middle job fails", []grid.Coord{topo.At(0), bad, topo.At(1)}, []bool{false, true, false}},
		{"last job fails", []grid.Coord{topo.At(0), topo.At(1), bad}, []bool{false, false, true}},
		{"all jobs fail", []grid.Coord{bad, bad, bad}, []bool{true, true, true}},
		{"no failures", []grid.Coord{topo.At(0), topo.At(1)}, []bool{false, false}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				results, fns := sourceTasks(topo, proto, tc.srcs)
				errs, err := sweep.New(workers).RunFuncs(context.Background(), fns)
				if err != nil {
					t.Fatalf("workers=%d: RunFuncs error %v (task errors must not abort the sweep)", workers, err)
				}
				for i := range tc.srcs {
					if tc.wantErr[i] {
						if errs[i] == nil || results[i] != nil {
							t.Errorf("workers=%d task %d: want captured error, got (%v, %v)",
								workers, i, results[i], errs[i])
						}
					} else if errs[i] != nil || results[i] == nil {
						t.Errorf("workers=%d task %d: poisoned by sibling failure: (%v, %v)",
							workers, i, results[i], errs[i])
					}
				}
			}
		})
	}
}

func TestPreCancelledContext(t *testing.T) {
	topo := grid.NewMesh2D4(4, 3)
	results, fns := sourceTasks(topo, core.NewMesh4Protocol(), allSources(topo))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs, err := sweep.New(4).RunFuncs(ctx, fns)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunFuncs on cancelled ctx = %v, want context.Canceled", err)
	}
	for i := range fns {
		if !errors.Is(errs[i], context.Canceled) || results[i] != nil {
			t.Errorf("task %d = (%v, %v), want context.Canceled and no result", i, results[i], errs[i])
		}
	}
}

// gateProtocol blocks the first simulation that reaches it until the
// test releases the gate, so the test can cancel the context while a
// broadcast is provably mid-flight.
type gateProtocol struct {
	entered chan<- struct{}
	gate    <-chan struct{}
	once    *sync.Once
}

func (gateProtocol) Name() string { return "gate" }

func (g gateProtocol) IsRelay(grid.Topology, grid.Coord, grid.Coord) bool {
	g.once.Do(func() {
		g.entered <- struct{}{}
		<-g.gate
	})
	return true
}

func (gateProtocol) TxDelay(grid.Topology, grid.Coord, grid.Coord) int { return 1 }

func (gateProtocol) Retransmits(grid.Topology, grid.Coord, grid.Coord) []int { return nil }

// TestCancelMidSweep cancels the context while broadcast 0 is running
// on a single worker: the running broadcast completes and keeps its
// result, the ones never started report the context error, and
// RunFuncs surfaces the cancellation — a coherent partial sweep.
func TestCancelMidSweep(t *testing.T) {
	topo := grid.NewMesh2D4(4, 3)
	entered := make(chan struct{})
	gate := make(chan struct{})
	proto := gateProtocol{entered: entered, gate: gate, once: &sync.Once{}}
	results, fns := sourceTasks(topo, proto, allSources(topo)[:5])

	ctx, cancel := context.WithCancel(context.Background())
	type ret struct {
		errs []error
		err  error
	}
	got := make(chan ret, 1)
	go func() {
		errs, err := sweep.New(1).RunFuncs(ctx, fns)
		got <- ret{errs, err}
	}()

	<-entered // broadcast 0 is mid-flight on the only worker
	cancel()
	close(gate) // let broadcast 0 finish
	r := <-got

	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("RunFuncs = %v, want context.Canceled", r.err)
	}
	if r.errs[0] != nil || results[0] == nil {
		t.Errorf("task 0 (running at cancel) = (%v, %v), want completed result", results[0], r.errs[0])
	}
	for i := 1; i < len(fns); i++ {
		if !errors.Is(r.errs[i], context.Canceled) || results[i] != nil {
			t.Errorf("task %d (never started) = (%v, %v), want context.Canceled", i, results[i], r.errs[i])
		}
	}
}

// TestSweepSourcesOrder verifies an all-sources sweep's results land in
// source order regardless of the pool size.
func TestSweepSourcesOrder(t *testing.T) {
	topo := grid.NewMesh2D8(6, 4)
	proto := core.NewMesh8Protocol()
	for _, workers := range []int{1, 3, 16} {
		results, err := sweepSources(workers, topo, proto)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != topo.NumNodes() {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		for i, r := range results {
			if r.Source != topo.At(i) {
				t.Errorf("workers=%d: result %d is for source %s, want %s",
					workers, i, r.Source, topo.At(i))
			}
		}
	}
}

// TestDeterministicAcrossWorkerCounts runs the same sweep at several
// pool sizes and requires deeply equal results.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	topo := grid.NewMesh2D3(8, 6)
	proto := core.NewMesh3Protocol()
	base, err := sweepSources(1, topo, proto)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 32} {
		results, err := sweepSources(workers, topo, proto)
		if err != nil {
			t.Fatal(err)
		}
		for i := range results {
			if !reflect.DeepEqual(results[i], base[i]) {
				t.Errorf("workers=%d: source %d result differs from workers=1", workers, i)
			}
		}
	}
}

// TestNewNegativeWorkers pins the contract the CLIs rely on: New
// treats every non-positive pool size, -1 included, as "use
// GOMAXPROCS" — it never constructs a zero- or negative-width pool.
// The commands reject negative -workers flags before reaching New, so
// this is the behavior for any library caller that slips one through.
func TestNewNegativeWorkers(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	if w := sweep.New(-1).Workers(); w != want {
		t.Errorf("New(-1).Workers() = %d, want GOMAXPROCS (%d)", w, want)
	}
	topo := grid.NewMesh2D4(4, 4)
	results, err := sweepSources(-1, topo, core.NewFlooding())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r == nil {
			t.Fatalf("source %d: no result", i)
		}
	}
}

// trackingGauge records the highest pending count it ever saw.
type trackingGauge struct {
	mu      sync.Mutex
	current int64
	peak    int64
}

func (g *trackingGauge) Add(delta int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.current += delta
	if g.current > g.peak {
		g.peak = g.current
	}
}

func TestGaugeNetsToZero(t *testing.T) {
	topo := grid.NewMesh2D4(6, 4)
	var g trackingGauge
	eng := sweep.New(2).WithGauge(&g)
	_, fns := sourceTasks(topo, core.NewFlooding(), allSources(topo))
	if _, err := eng.RunFuncs(context.Background(), fns); err != nil {
		t.Fatal(err)
	}
	if g.current != 0 {
		t.Errorf("gauge = %d after RunFuncs, want 0", g.current)
	}
	if g.peak != int64(topo.NumNodes()) {
		t.Errorf("gauge peak = %d, want %d", g.peak, topo.NumNodes())
	}
}

func TestGaugeNetsToZeroOnCancel(t *testing.T) {
	topo := grid.NewMesh2D4(6, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var g trackingGauge
	eng := sweep.New(2).WithGauge(&g)
	_, fns := sourceTasks(topo, core.NewFlooding(), allSources(topo))
	if _, err := eng.RunFuncs(ctx, fns); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if g.current != 0 {
		t.Errorf("gauge = %d after cancelled RunFuncs, want 0", g.current)
	}
}
