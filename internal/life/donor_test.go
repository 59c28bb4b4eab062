package life

import (
	"context"
	"sync/atomic"
	"testing"

	"wsnbcast/internal/sim"
)

// TestPickDonorCallsFall pins the frontier repair planner's saving on
// the damaged-mesh ladder rungs: the repair planner's donor searches
// per study (sim.SetDonorHook counts them) must stay at least 60% below
// the full-scan planner's counts, measured on the same studies before
// the frontier planner replaced it. Every later planning round of a
// broadcast once rescanned the whole uncovered set, and on partitioned
// meshes nearly all of those searches found no donor.
func TestPickDonorCallsFall(t *testing.T) {
	if testing.Short() {
		t.Skip("three full ladder studies skipped in -short mode")
	}
	for _, tc := range []struct {
		name     string
		spec     Spec
		fullScan int64 // donor searches per study under the full-scan planner
	}{
		{"churn-rotate-48", churnRotateSpec(), 441984},
		{"churn-heavy-64", benchSpec(64, 64, 1, 0.05, Static), 1629626},
		{"death-only-64", benchSpec(64, 64, 0.003, 0, RoundRobin), 1185051},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			defer sim.SetDonorHook(sim.SetDonorHook(func() { calls.Add(1) }))
			if _, err := runStudy(context.Background(), tc.spec); err != nil {
				t.Fatal(err)
			}
			t.Logf("%d pickDonor calls (full-scan planner: %d)", calls.Load(), tc.fullScan)
			if limit := tc.fullScan * 4 / 10; calls.Load() > limit {
				t.Errorf("%d pickDonor calls, want at most %d (60%% below the full scan's %d)",
					calls.Load(), limit, tc.fullScan)
			}
		})
	}
}
