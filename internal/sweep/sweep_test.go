package sweep_test

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
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

func TestSourceJobsOrder(t *testing.T) {
	topo := grid.NewMesh2D4(4, 3)
	jobs := sweep.SourceJobs(topo, core.NewMesh4Protocol(), sim.Config{})
	if len(jobs) != topo.NumNodes() {
		t.Fatalf("len(jobs) = %d, want %d", len(jobs), topo.NumNodes())
	}
	for i, j := range jobs {
		if j.Source != topo.At(i) {
			t.Errorf("job %d source = %s, want %s", i, j.Source, topo.At(i))
		}
	}
}

func TestRunEmpty(t *testing.T) {
	outs, err := sweep.New(4).Run(context.Background(), nil)
	if err != nil || len(outs) != 0 {
		t.Errorf("Run(nil) = %v, %v", outs, err)
	}
}

// TestErrorIsolation is the table-driven error layer: a failing job
// captures its own error and never poisons the other shards.
func TestErrorIsolation(t *testing.T) {
	topo := grid.NewMesh2D4(4, 3)
	proto := core.NewMesh4Protocol()
	good := func(i int) sweep.Job {
		return sweep.Job{Topology: topo, Protocol: proto, Source: topo.At(i), Config: sim.Config{}}
	}
	bad := sweep.Job{Topology: topo, Protocol: proto, Source: grid.C2(99, 99), Config: sim.Config{}}

	for _, tc := range []struct {
		name    string
		jobs    []sweep.Job
		wantErr []bool // per job: expect a captured error
	}{
		{"first job fails", []sweep.Job{bad, good(0), good(1), good(2)}, []bool{true, false, false, false}},
		{"middle job fails", []sweep.Job{good(0), bad, good(1)}, []bool{false, true, false}},
		{"last job fails", []sweep.Job{good(0), good(1), bad}, []bool{false, false, true}},
		{"all jobs fail", []sweep.Job{bad, bad, bad}, []bool{true, true, true}},
		{"no failures", []sweep.Job{good(0), good(1)}, []bool{false, false}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				outs, err := sweep.New(workers).Run(context.Background(), tc.jobs)
				if err != nil {
					t.Fatalf("workers=%d: Run error %v (job errors must not abort the sweep)", workers, err)
				}
				if len(outs) != len(tc.jobs) {
					t.Fatalf("workers=%d: %d outcomes for %d jobs", workers, len(outs), len(tc.jobs))
				}
				for i, o := range outs {
					if tc.wantErr[i] {
						if o.Err == nil || o.Result != nil {
							t.Errorf("workers=%d job %d: want captured error, got (%v, %v)",
								workers, i, o.Result, o.Err)
						}
					} else if o.Err != nil || o.Result == nil {
						t.Errorf("workers=%d job %d: poisoned by sibling failure: (%v, %v)",
							workers, i, o.Result, o.Err)
					}
				}
			}
		})
	}
}

func TestResultsNamesFirstFailedJob(t *testing.T) {
	topo := grid.NewMesh2D4(4, 3)
	proto := core.NewMesh4Protocol()
	jobs := []sweep.Job{
		{Topology: topo, Protocol: proto, Source: topo.At(0), Config: sim.Config{}},
		{Topology: topo, Protocol: proto, Source: grid.C2(50, 50), Config: sim.Config{}},
		{Topology: topo, Protocol: proto, Source: grid.C2(60, 60), Config: sim.Config{}},
	}
	outs, err := sweep.New(2).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sweep.Results(outs); err == nil ||
		!strings.Contains(err.Error(), "job 1") || !strings.Contains(err.Error(), "(50,50)") {
		t.Errorf("Results error = %v, want first failure (job 1, source (50,50))", err)
	}
}

func TestPreCancelledContext(t *testing.T) {
	topo := grid.NewMesh2D4(4, 3)
	jobs := sweep.SourceJobs(topo, core.NewMesh4Protocol(), sim.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, err := sweep.New(4).Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
	for i, o := range outs {
		if !errors.Is(o.Err, context.Canceled) || o.Result != nil {
			t.Errorf("job %d outcome = (%v, %v), want context.Canceled and no result", i, o.Result, o.Err)
		}
	}
}

// gateProtocol blocks the first simulation that reaches it until the
// test releases the gate, so the test can cancel the context while a
// job is provably mid-flight.
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

// TestCancelMidSweep cancels the context while job 0 is running on a
// single worker: the running job completes and keeps its result, the
// jobs never started report the context error, and Run surfaces the
// cancellation — a coherent partial sweep.
func TestCancelMidSweep(t *testing.T) {
	topo := grid.NewMesh2D4(4, 3)
	entered := make(chan struct{})
	gate := make(chan struct{})
	proto := gateProtocol{entered: entered, gate: gate, once: &sync.Once{}}

	jobs := make([]sweep.Job, 5)
	for i := range jobs {
		jobs[i] = sweep.Job{Topology: topo, Protocol: proto, Source: topo.At(i), Config: sim.Config{}}
	}

	ctx, cancel := context.WithCancel(context.Background())
	type ret struct {
		outs []sweep.Outcome
		err  error
	}
	got := make(chan ret, 1)
	go func() {
		outs, err := sweep.New(1).Run(ctx, jobs)
		got <- ret{outs, err}
	}()

	<-entered // job 0 is mid-flight on the only worker
	cancel()
	close(gate) // let job 0 finish
	r := <-got

	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", r.err)
	}
	if r.outs[0].Err != nil || r.outs[0].Result == nil {
		t.Errorf("job 0 (running at cancel) = (%v, %v), want completed result",
			r.outs[0].Result, r.outs[0].Err)
	}
	for i, o := range r.outs[1:] {
		if !errors.Is(o.Err, context.Canceled) || o.Result != nil {
			t.Errorf("job %d (never started) = (%v, %v), want context.Canceled", i+1, o.Result, o.Err)
		}
	}
}

// TestSweepSourcesMatchesAt verifies SweepSources returns results in
// source order regardless of the pool size.
func TestSweepSourcesOrder(t *testing.T) {
	topo := grid.NewMesh2D8(6, 4)
	proto := core.NewMesh8Protocol()
	for _, workers := range []int{1, 3, 16} {
		results, err := sweep.New(workers).SweepSources(context.Background(), topo, proto, sim.Config{}, nil)
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

// TestDeterministicAcrossWorkerCounts runs the same job list at several
// pool sizes and requires deeply equal outcomes.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	topo := grid.NewMesh2D3(8, 6)
	jobs := sweep.SourceJobs(topo, core.NewMesh3Protocol(), sim.Config{})
	base, err := sweep.New(1).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 32} {
		outs, err := sweep.New(workers).Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			if !reflect.DeepEqual(outs[i].Result, base[i].Result) {
				t.Errorf("workers=%d: job %d result differs from workers=1", workers, i)
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
	outs, err := sweep.New(-1).Run(context.Background(),
		sweep.SourceJobs(topo, core.NewFlooding(), sim.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil || o.Result == nil {
			t.Fatalf("job %d: result=%v err=%v", i, o.Result, o.Err)
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
	if _, err := eng.Run(context.Background(),
		sweep.SourceJobs(topo, core.NewFlooding(), sim.Config{})); err != nil {
		t.Fatal(err)
	}
	if g.current != 0 {
		t.Errorf("gauge = %d after Run, want 0", g.current)
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
	if _, err := eng.Run(ctx, sweep.SourceJobs(topo, core.NewFlooding(), sim.Config{})); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if g.current != 0 {
		t.Errorf("gauge = %d after cancelled Run, want 0", g.current)
	}
}
