package sim_test

// Allocation-budget regression tests: the engine overhaul's pooled
// arena promises that a steady-state sim.Run allocates only what
// escapes into the Result — the Result itself, the DecodeSlot copy,
// the TxSlots headers plus one flat backing array, and PerNodeEnergyJ.
// These tests pin that budget absolutely and relative to the preserved
// reference engine (the issue's >= 5x reduction criterion), so a
// future change that quietly reintroduces per-run allocation fails
// loudly.

import (
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// steadyStateAllocs measures allocations per Run after a warm-up run
// that populates the engine pool, adjacency cache and relay-plan
// cache. Averaged over many runs so a concurrent GC emptying the
// sync.Pool mid-measurement cannot flip the verdict.
func steadyStateAllocs(t *testing.T, topo grid.Topology, p sim.Protocol, src grid.Coord, cfg sim.Config,
	run func(grid.Topology, sim.Protocol, grid.Coord, sim.Config) (*sim.Result, error)) float64 {
	t.Helper()
	if _, err := run(topo, p, src, cfg); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	return testing.AllocsPerRun(100, func() {
		if _, err := run(topo, p, src, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunAllocationBudget pins the absolute steady-state budget on the
// canonical 512-node meshes: at most 8 allocations per Run (5-7 in
// practice; slack for a pool miss after a GC).
func TestRunAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse and allocates for instrumentation; budget holds only in normal builds")
	}
	for _, k := range grid.Kinds() {
		topo := grid.Canonical(k)
		src := topo.At(topo.NumNodes() / 2)
		allocs := steadyStateAllocs(t, topo, core.ForTopology(k), src, sim.Config{}, sim.Run)
		if allocs > 8 {
			t.Errorf("%s: %.1f allocs per steady-state Run, budget is 8", k, allocs)
		}
	}
}

// TestRunAllocationReduction enforces the issue's acceptance bar:
// steady-state allocs/op at least 5x below the reference engine, on
// both the deterministic and the lossy path.
func TestRunAllocationReduction(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse and allocates for instrumentation; ratio holds only in normal builds")
	}
	topo := grid.Canonical(grid.Mesh2D4)
	src := topo.At(topo.NumNodes() / 2)
	p := core.ForTopology(grid.Mesh2D4)
	for name, cfg := range map[string]sim.Config{
		"lossless": {},
		"lossy":    {Channel: sim.NewBernoulliLoss(9, 0.1)},
	} {
		newAllocs := steadyStateAllocs(t, topo, p, src, cfg, sim.Run)
		refAllocs := steadyStateAllocs(t, topo, p, src, cfg, sim.RunReference)
		if newAllocs*5 > refAllocs {
			t.Errorf("%s: optimized Run allocates %.1f/op vs reference %.1f/op — less than the required 5x reduction",
				name, newAllocs, refAllocs)
		}
	}
}

// TestRepairHeavyAllocationBudget pins the same budgets on flooding,
// whose schedules need at least three replay rounds: the rewind logs
// and per-slot checkpoints that let replays resume mid-schedule live in
// the pooled arena, so the extra rounds allocate nothing. Budgets: at
// most 8 allocations per steady-state sim.Run, at most 2 per Session
// round.
func TestRepairHeavyAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse and allocates for instrumentation; budget holds only in normal builds")
	}
	p := core.NewFlooding()
	for _, k := range grid.Kinds() {
		topo := grid.Canonical(k)
		src := topo.At(topo.NumNodes() / 2)
		if _, resumed := runResumed(t, topo, p, src, sim.Config{}); resumed < 2 {
			t.Fatalf("%s: flooding ran %d replay rounds; the case needs at least 3", k, resumed+1)
		}
		if allocs := steadyStateAllocs(t, topo, p, src, sim.Config{}, sim.Run); allocs > 8 {
			t.Errorf("%s: %.1f allocs per steady-state flooding Run, budget is 8", k, allocs)
		}
	}

	topo := grid.Canonical(grid.Mesh2D4)
	src := topo.At(topo.NumNodes() / 2)
	sess, err := sim.NewSession(topo, p, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(src); err != nil {
		t.Fatal(err)
	}
	flip := false
	allocs := testing.AllocsPerRun(100, func() {
		flip = !flip
		if flip {
			_ = sess.SetLinkDown(30)
		} else {
			_ = sess.SetLinkUp(30)
		}
		if _, err := sess.Run(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state flooding session round allocates %.1f/op, budget is 2", allocs)
	}
}
