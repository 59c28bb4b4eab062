package sweep_test

// Concurrency-safety audit regression tests. The engine's correctness
// rests on three claims, each audited here so `go test -race` (the
// Makefile's race target) turns any future violation into a failure:
//
//  1. grid.Topology values are immutable after construction (the
//     interface documents it) — shared freely across workers;
//  2. core protocol values are stateless node-local rules — shared
//     freely across workers;
//  3. sim.Run's shared structures — the adjacency cache and the
//     compiled relay-plan cache, both sync.Maps populated once per
//     key — must be safe under concurrent first access on a cold key.
//
// The meshes here use deliberately odd sizes so every run of the test
// binary starts with cold cache keys and the build races (claim 3) are
// actually exercised, not skipped via a warm cache.

import (
	"reflect"
	"sync"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// TestConcurrentRunsShareTopologyAndProtocol hammers one shared
// Topology value and one shared Protocol value from many goroutines
// (claims 1 and 2).
func TestConcurrentRunsShareTopologyAndProtocol(t *testing.T) {
	cases := []struct {
		topo  grid.Topology
		proto sim.Protocol
	}{
		{grid.NewMesh2D3(11, 7), core.NewMesh3Protocol()},
		{grid.NewMesh2D4(11, 7), core.NewMesh4Protocol()},
		{grid.NewMesh2D8(11, 7), core.NewMesh8Protocol()},
		{grid.NewMesh3D6(5, 3, 3), core.NewMesh3D6Protocol()},
		{grid.NewMesh2D4(11, 7), core.NewFlooding()},
		{grid.NewMesh2D4(11, 7), core.NewJitteredFlooding(8)},
		{grid.NewMesh2D4(11, 7), core.GossipProtocol{P: 0.8, Jitter: 4}},
		{grid.NewMesh3D6(5, 3, 3), core.NewPerPlane3D()},
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*8)
	for _, tc := range cases {
		tc := tc
		for g := 0; g < 8; g++ {
			src := tc.topo.At(g % tc.topo.NumNodes())
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := sim.Run(tc.topo, tc.proto, src, sim.Config{}); err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentSweepsShareTopology runs two full engine sweeps over
// the same topology value at the same time — the cross-table pattern
// experiments.AllTables relies on.
func TestConcurrentSweepsShareTopology(t *testing.T) {
	topo := grid.NewMesh2D8(9, 5)
	proto := core.NewMesh8Protocol()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sweepSources(4, topo, proto); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

// TestColdAdjacencyCacheRace starts many runs on a topology size no
// other test uses, so the adjacency cache's first build happens under
// contention (claim 3).
func TestColdAdjacencyCacheRace(t *testing.T) {
	topo := grid.NewMesh3D6(3, 5, 7)
	proto := core.NewMesh3D6Protocol()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 12; g++ {
		src := topo.At((g * 13) % topo.NumNodes())
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := sim.Run(topo, proto, src, sim.Config{}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestColdRelayPlanCacheRace hammers the compiled relay-plan cache
// alongside the adjacency cache: a parallel sweep on a cold topology
// size hits every source's plan key for the first time from whichever
// worker gets there first, with overlapping single runs adding more
// first-access pressure on the same keys plus a second protocol. Every
// worker count must also produce the same results (the plan is pure
// compilation, never mutated after publication).
func TestColdRelayPlanCacheRace(t *testing.T) {
	topo := grid.NewMesh2D4(13, 5) // size unused elsewhere: cold keys
	proto := core.NewMesh4Protocol()
	var wg sync.WaitGroup
	var sweeps [2][]*sim.Result
	for g := range sweeps {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := sweepSources(4, topo, proto)
			if err != nil {
				t.Error(err)
				return
			}
			sweeps[g] = s
		}()
	}
	for g := 0; g < 8; g++ {
		src := topo.At((g * 7) % topo.NumNodes())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sim.Run(topo, proto, src, sim.Config{}); err != nil {
				t.Error(err)
			}
			if _, err := sim.Run(topo, core.NewJitteredFlooding(8), src, sim.Config{}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if !reflect.DeepEqual(sweeps[0], sweeps[1]) {
		t.Error("concurrent sweeps over shared plan cache disagree")
	}
}
