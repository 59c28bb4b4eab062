package sim_test

// The differential layer for the engine overhaul: sim.Run (slot-array
// scheduler, pooled arena, memoized relay plan) must produce
// byte-identical Results to sim.RunReference (the preserved
// pre-optimization engine) — every counter, DecodeSlot, TxSlots,
// PerNodeEnergyJ, and the exact trace event sequence — across all four
// canonical topologies x {paper, flooding, flooding-jitter} x
// {lossless, lossy, down nodes, lossy+down}, with and without the
// repair pass. Run under -race by the Makefile's race target.

import (
	"fmt"
	"reflect"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// diffProtocols is the issue's protocol matrix for a topology kind.
func diffProtocols(k grid.Kind) []sim.Protocol {
	return []sim.Protocol{core.ForTopology(k), core.NewFlooding(), core.NewJitteredFlooding(8)}
}

// diffSmallTopo is a reduced mesh of each kind, big enough to exercise
// borders, collisions and scheduler repairs.
func diffSmallTopo(k grid.Kind) grid.Topology {
	if k == grid.Mesh3D6 {
		return grid.NewMesh3D6(4, 4, 3)
	}
	return grid.New(k, 10, 6, 1)
}

// channelConfigs returns the channel/failure matrix for one topology:
// error-free, 10% Bernoulli loss, sampled node failures, and both at
// once. The failure sample is seeded per source so it never downs the
// source.
func channelConfigs(t grid.Topology, src grid.Coord) map[string]sim.Config {
	down := sim.SampleFailures(t, src, 3, 0.1)
	return map[string]sim.Config{
		"lossless":   {},
		"lossy":      {Channel: sim.NewBernoulliLoss(42, 0.1)},
		"down":       {Down: down},
		"lossy+down": {Channel: sim.NewBernoulliLoss(42, 0.1), Down: down},
	}
}

// diffOne runs both engines on one configuration and requires exact
// equality of the Results and of the trace event sequences. It also
// runs the optimized engine twice, so a stale pooled arena or a
// corrupted cached relay plan cannot hide behind a single lucky run.
func diffOne(t *testing.T, topo grid.Topology, p sim.Protocol, src grid.Coord, cfg sim.Config) {
	t.Helper()
	var refTrace, newTrace, repTrace []sim.Event
	refCfg, newCfg, repCfg := cfg, cfg, cfg
	refCfg.Trace = sim.CollectTrace(&refTrace)
	newCfg.Trace = sim.CollectTrace(&newTrace)
	repCfg.Trace = sim.CollectTrace(&repTrace)

	want, err := sim.RunReference(topo, p, src, refCfg)
	if err != nil {
		t.Fatalf("RunReference: %v", err)
	}
	got, err := sim.Run(topo, p, src, newCfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("optimized Result differs from reference\nref: %v\nnew: %v\nref decode: %v\nnew decode: %v\nref tx: %v\nnew tx: %v",
			want, got, want.DecodeSlot, got.DecodeSlot, want.TxSlots, got.TxSlots)
	}
	if !reflect.DeepEqual(refTrace, newTrace) {
		t.Fatalf("trace differs: reference %d events, optimized %d events\nref: %v\nnew: %v",
			len(refTrace), len(newTrace), refTrace, newTrace)
	}
	rep, err := sim.Run(topo, p, src, repCfg)
	if err != nil {
		t.Fatalf("Run (repeat): %v", err)
	}
	if !reflect.DeepEqual(got, rep) || !reflect.DeepEqual(newTrace, repTrace) {
		t.Fatalf("repeated Run on pooled engine not identical")
	}
}

// TestDifferentialEngineSmall covers the full matrix on reduced meshes
// from several sources (corner, center, last node).
func TestDifferentialEngineSmall(t *testing.T) {
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

// TestDifferentialEngineCanonical proves equivalence at the paper's
// 512-node evaluation scale for the full matrix.
func TestDifferentialEngineCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical 512-node differential matrix skipped in -short mode")
	}
	for _, k := range grid.Kinds() {
		topo := grid.Canonical(k)
		src := center(topo)
		for _, p := range diffProtocols(k) {
			for name, cfg := range channelConfigs(topo, src) {
				t.Run(fmt.Sprintf("%s/%s/%s", k, p.Name(), name), func(t *testing.T) {
					diffOne(t, topo, p, src, cfg)
				})
			}
		}
	}
}

// TestDifferentialDisableRepair covers the raw-rules path (no repair
// pass), where unreached nodes and partial decode vectors are normal.
func TestDifferentialDisableRepair(t *testing.T) {
	for _, k := range grid.Kinds() {
		topo := diffSmallTopo(k)
		src := topo.At(0)
		for _, p := range diffProtocols(k) {
			cfg := sim.Config{DisableRepair: true, Channel: sim.NewBernoulliLoss(7, 0.2)}
			t.Run(fmt.Sprintf("%s/%s", k, p.Name()), func(t *testing.T) {
				diffOne(t, topo, p, src, cfg)
			})
		}
	}
}

// TestDifferentialGossipAndSnapshot exercises protocols off the main
// matrix: gossip (sub-percolation relay sets leave nodes unreached and
// force heavy repair planning) and a snapshot replay (pointer-typed
// protocol, exempt from the plan cache).
func TestDifferentialGossipAndSnapshot(t *testing.T) {
	topo := grid.NewMesh2D4(10, 6)
	src := grid.C2(3, 2)
	for _, p := range []sim.Protocol{core.NewGossip(0.4), core.GossipProtocol{P: 0.8, Jitter: 4}} {
		t.Run(p.Name(), func(t *testing.T) {
			diffOne(t, topo, p, src, sim.Config{})
		})
	}
	snap, _, err := sim.Snapshot(topo, core.NewMesh4Protocol(), src, sim.Config{})
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	t.Run("snapshot", func(t *testing.T) {
		diffOne(t, topo, snap, src, sim.Config{})
	})
}

// hugeDelayProto forwards after a delay far beyond MaxSlots, forcing
// the runaway-schedule guard.
type hugeDelayProto struct{}

func (hugeDelayProto) Name() string                                       { return "huge-delay" }
func (hugeDelayProto) IsRelay(grid.Topology, grid.Coord, grid.Coord) bool { return true }
func (hugeDelayProto) TxDelay(grid.Topology, grid.Coord, grid.Coord) int  { return 1000 }
func (hugeDelayProto) Retransmits(grid.Topology, grid.Coord, grid.Coord) []int {
	return nil
}

// TestDifferentialMaxSlotsError pins identical runaway-schedule errors:
// a protocol that schedules past MaxSlots must fail with the same
// message at the same bound in both engines (the optimized scheduler
// clamps out-of-range buckets but must keep the error observable).
func TestDifferentialMaxSlotsError(t *testing.T) {
	topo := grid.NewMesh2D4(3, 1)
	cfg := sim.Config{MaxSlots: 10}
	_, refErr := sim.RunReference(topo, hugeDelayProto{}, grid.C2(1, 1), cfg)
	_, newErr := sim.Run(topo, hugeDelayProto{}, grid.C2(1, 1), cfg)
	if refErr == nil || newErr == nil {
		t.Fatalf("expected runaway errors, got ref=%v new=%v", refErr, newErr)
	}
	if refErr.Error() != newErr.Error() {
		t.Fatalf("error text differs:\nref: %v\nnew: %v", refErr, newErr)
	}
}
