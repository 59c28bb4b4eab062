package sim_test

// Differential and budget tests for the large-grid fast path: implicit
// neighbor indexing and bitset/struct-of-arrays arena state. The
// contract under test is the same as differential_test.go's —
// byte-identical Results and traces against the frozen
// sim.RunReference oracle — extended across the engine's
// path-selection threshold (forced via the export_test knob).

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/radio"
	"wsnbcast/internal/sim"
)

// largeTopo returns a >= 2^16-node mesh of the given kind, large
// enough for Run to take the implicit path unforced.
func largeTopo(k grid.Kind) grid.Topology {
	if k == grid.Mesh3D6 {
		return grid.NewMesh3D6(41, 40, 40) // 65600 nodes
	}
	return grid.New(k, 256, 256, 1) // 65536 nodes
}

// TestDifferentialImplicitSmall reruns the full small differential
// matrix — four kinds x {paper, flooding, jittered} x {lossless,
// lossy, down, lossy+down} from three sources — with the implicit path
// forced at every size. Together with TestDifferentialEngineSmall
// (materialized path, same matrix) this proves the two neighbor
// sources are interchangeable on every configuration the engine
// supports, borders and repair planning included.
func TestDifferentialImplicitSmall(t *testing.T) {
	defer sim.SetLargeGridThresholdForTest(0)()
	for _, k := range grid.Kinds() {
		topo := diffSmallTopo(k)
		sources := []grid.Coord{topo.At(0), topo.At(topo.NumNodes() / 2), topo.At(topo.NumNodes() - 1)}
		for _, p := range diffProtocols(k) {
			for _, src := range sources {
				for name, cfg := range channelConfigs(topo, src) {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", k, p.Name(), src, name), func(t *testing.T) {
						diffOne(t, topo, p, src, cfg)
					})
				}
			}
		}
	}
}

// TestDifferentialShardedSmall runs each case of the small matrix on w
// concurrent goroutines (w = 2, 3, 8), the way the Monte Carlo and
// sweep worker pools run replications: every goroutine calls Run on the
// same topology, protocol, source and channel, so they share the
// adjacency and relay-plan caches and draw arenas from one engine pool.
// The implicit path is forced, and every concurrent Result and trace
// must be byte-identical to the serial oracle. Run under -race by the
// Makefile's race target, which makes it the data-race check for the
// shared caches and the pool. Nothing is sharded any more: the name and
// the w2/w3/w8 case IDs are those of the intra-run sharding check this
// test replaced, kept so the case IDs stay comparable across history.
func TestDifferentialShardedSmall(t *testing.T) {
	defer sim.SetLargeGridThresholdForTest(0)()
	for _, workers := range []int{2, 3, 8} {
		for _, k := range grid.Kinds() {
			topo := diffSmallTopo(k)
			src := topo.At(topo.NumNodes()/2 + 1)
			for _, p := range diffProtocols(k) {
				for name, cfg := range channelConfigs(topo, src) {
					t.Run(fmt.Sprintf("w%d/%s/%s/%s", workers, k, p.Name(), name), func(t *testing.T) {
						concurrentDiff(t, topo, p, src, cfg, workers)
					})
				}
			}
		}
	}
}

// concurrentDiff runs the reference once, then Run on workers
// goroutines at once, and requires every Result and trace to equal the
// reference's.
func concurrentDiff(t *testing.T, topo grid.Topology, p sim.Protocol, src grid.Coord, cfg sim.Config, workers int) {
	t.Helper()
	var refTrace []sim.Event
	refCfg := cfg
	refCfg.Trace = sim.CollectTrace(&refTrace)
	want, err := sim.RunReference(topo, p, src, refCfg)
	if err != nil {
		t.Fatalf("RunReference: %v", err)
	}
	got := make([]*sim.Result, workers)
	traces := make([][]sim.Event, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wCfg := cfg
			wCfg.Trace = sim.CollectTrace(&traces[w])
			got[w], errs[w] = sim.Run(topo, p, src, wCfg)
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("worker %d: Run: %v", w, errs[w])
		}
		if !reflect.DeepEqual(want, got[w]) {
			t.Fatalf("worker %d: Result differs from reference\nref: %v\nnew: %v", w, want, got[w])
		}
		if !reflect.DeepEqual(refTrace, traces[w]) {
			t.Fatalf("worker %d: trace differs: reference %d events, got %d", w, len(refTrace), len(traces[w]))
		}
	}
}

// largeDiffOne checks one Run against the reference, traces included,
// and one untraced Run, the order-free dedupe's path.
// Unlike diffOne it skips the pooled-engine repeat and keeps failure
// messages short: the per-node slices run to 65k entries here.
func largeDiffOne(t *testing.T, topo grid.Topology, p sim.Protocol, src grid.Coord, cfg sim.Config) {
	t.Helper()
	var refTrace, newTrace []sim.Event
	refCfg, newCfg := cfg, cfg
	refCfg.Trace = sim.CollectTrace(&refTrace)
	newCfg.Trace = sim.CollectTrace(&newTrace)
	want, err := sim.RunReference(topo, p, src, refCfg)
	if err != nil {
		t.Fatalf("RunReference: %v", err)
	}
	got, err := sim.Run(topo, p, src, newCfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Result differs from reference\nref: %v\nnew: %v", want, got)
	}
	if !reflect.DeepEqual(refTrace, newTrace) {
		t.Fatalf("trace differs: reference %d events, got %d", len(refTrace), len(newTrace))
	}
	untracedMatches(t, want, topo, p, src, cfg)
}

// TestLargeGridDifferential is the at-scale contract: on >= 2^16-node
// meshes of all four kinds, the implicit engine must match
// sim.RunReference byte-for-byte, traces included. The paper protocol
// runs the channel matrix; flooding and jittered flooding run
// lossless.
func TestLargeGridDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("large-grid differential matrix skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation makes the 65k-node reference runs take minutes")
	}
	for _, k := range grid.Kinds() {
		topo := largeTopo(k)
		src := center(topo)
		paper := core.ForTopology(k)
		for name, cfg := range channelConfigs(topo, src) {
			if name == "lossy+down" {
				continue // planning-heavy at this scale; lossy and down each covered alone
			}
			t.Run(fmt.Sprintf("%s/%s/%s", k, paper.Name(), name), func(t *testing.T) {
				largeDiffOne(t, topo, paper, src, cfg)
			})
		}
		for _, p := range []sim.Protocol{core.NewFlooding(), core.NewJitteredFlooding(8)} {
			t.Run(fmt.Sprintf("%s/%s/lossless", k, p.Name()), func(t *testing.T) {
				largeDiffOne(t, topo, p, src, sim.Config{})
			})
		}
	}
}

// TestLargeGridForcedMaterialized pits the two in-engine paths against
// each other directly at 256^2: the default implicit path must
// byte-match the forced materialized path on the same mesh.
func TestLargeGridForcedMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("forced-materialized comparison skipped in -short mode")
	}
	topo := grid.NewMesh2D8(256, 256)
	src := center(topo)
	p := core.ForTopology(grid.Mesh2D8)
	cfg := sim.Config{Channel: sim.NewBernoulliLoss(13, 0.05)}

	restore := sim.SetLargeGridThresholdForTest(1 << 30)
	want, err := sim.Run(topo, p, src, cfg)
	restore()
	if err != nil {
		t.Fatalf("materialized Run: %v", err)
	}
	got, err := sim.Run(topo, p, src, cfg)
	if err != nil {
		t.Fatalf("implicit Run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("implicit path differs from materialized path")
	}
}

// TestLargeGridNoMaterializedAdjacency is the tentpole's memory claim
// at full scale: a 1024x1024 8-neighbor broadcast (a million nodes,
// ~8.4M directed edges) completes through the implicit path with no
// materialized adjacency anywhere — the shared cache stays empty for
// the size, and the unbounded plan cache is bypassed for the bounded
// LRU. Steady-state per-node engine state is O(N) int32 words plus
// O(N) bits; an adjacency table alone would be ~33 MiB.
func TestLargeGridNoMaterializedAdjacency(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node run skipped in -short mode")
	}
	topo := grid.NewMesh2D8(1024, 1024)
	src := center(topo)
	p := core.ForTopology(grid.Mesh2D8)
	res, err := sim.Run(topo, p, src, sim.Config{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Reached != res.Total || res.Total != topo.NumNodes() {
		t.Fatalf("million-node broadcast incomplete: reached %d/%d", res.Reached, res.Total)
	}
	if err := res.Validate(topo, radio.Default(), radio.CanonicalPacket()); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if sim.AdjCacheHas(topo) {
		t.Fatalf("large grid materialized adjacency into the shared cache")
	}
	if sim.PlanCacheHas(topo, p, src) {
		t.Fatalf("large grid populated the unbounded plan cache instead of the LRU")
	}
}

// TestLargeGridAllocBudget pins the steady-state allocation budget on
// the implicit path at 256^2: after warm-up, a Run allocates only what
// escapes into the Result (the Result itself, DecodeSlot, the TxSlots
// headers plus flat backing, PerNodeEnergyJ) — a dozen allocations,
// independent of node count and degree.
func TestLargeGridAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse; budget holds only in normal builds")
	}
	if testing.Short() {
		t.Skip("large-grid alloc budget skipped in -short mode")
	}
	topo := grid.NewMesh2D8(256, 256)
	src := center(topo)
	p := core.ForTopology(grid.Mesh2D8)
	if _, err := sim.Run(topo, p, src, sim.Config{}); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sim.Run(topo, p, src, sim.Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("256^2 mesh: %.1f allocs per steady-state Run, budget is 12", allocs)
	}
}
