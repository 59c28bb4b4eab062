package mc

import (
	"context"
	"runtime"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
)

// TestRunPointAllocationBudget pins O(1) allocation per replication: a
// replication on a worker session allocates no Result and copies no
// adjacency, so 48 extra replications of one jobs-reliability point
// (2D-4 32x16, loss 0.1, failure 0.1) may add at most 4 allocations
// and less than one byte per node each. What a point pays once — its
// worker session and that session's arenas — cancels in the
// difference; the record and task slices add a few hundred bytes per
// replication.
func TestRunPointAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse and allocates for instrumentation; budget holds only in normal builds")
	}
	topo := grid.NewMesh2D4(32, 16)
	measure := func(reps int) (allocs, bytes float64) {
		spec := Spec{
			Topology: topo, Protocol: core.ForTopology(grid.Mesh2D4), Source: grid.C2(16, 8),
			Seed: 1, Replications: reps, Workers: 1,
		}
		run := func() {
			if _, err := RunPoint(context.Background(), spec, 0.1, 0.1); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: engine pool, adjacency and plan caches
		allocs = testing.AllocsPerRun(10, run)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	allocs16, bytes16 := measure(16)
	allocs64, bytes64 := measure(64)
	perAllocs := (allocs64 - allocs16) / 48
	perBytes := (bytes64 - bytes16) / 48
	t.Logf("16 reps: %.0f allocs, %.0f B; 64 reps: %.0f allocs, %.0f B; per extra replication: %.2f allocs, %.0f B",
		allocs16, bytes16, allocs64, bytes64, perAllocs, perBytes)
	if perAllocs > 4 {
		t.Errorf("each extra replication allocates %.2f times, budget is 4", perAllocs)
	}
	if n := float64(topo.NumNodes()); perBytes >= n {
		t.Errorf("each extra replication allocates %.0f B, budget is under one byte per node (%.0f)", perBytes, n)
	}
}
