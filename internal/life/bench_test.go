package life

import (
	"context"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
)

// benchSpec is the shared shape of the lifetime benchmarks: one cell,
// Workers=1, rounds/sec as the headline metric.
func benchSpec(m, n int, budgetJ, pfail float64, strat Strategy) Spec {
	topo := grid.NewMesh2D4(m, n)
	return Spec{
		Topology:     topo,
		Protocol:     core.ForTopology(topo.Kind()),
		Source:       grid.C2((m+1)/2, (n+1)/2),
		BudgetJ:      budgetJ,
		MaxRounds:    64,
		Seed:         1,
		Replications: 1,
		Strategies:   []Strategy{strat},
		PFail:        []float64{pfail},
		PNew:         0.25,
		Workers:      1,
	}
}

// benchRounds runs the study b.N times through run — runStudy, or
// referenceRun for the frozen per-round path.
func benchRounds(b *testing.B, spec Spec, run func(context.Context, Spec) ([]CellReport, error)) {
	b.ReportAllocs()
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		cells, err := run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			rounds += c.Rounds
		}
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/sec")
}

// BenchmarkLifetime measures the round loop on the 64x64 mesh — one
// static cell with light churn, so every round pays the full price:
// the churn sweep over ~8k links, the graph upkeep, and the broadcast
// itself. The custom rounds/sec metric is the headline; make bench
// runs this and benchjson records it. The name and configuration are
// pinned so benchjson pairs it with the pre-session baseline rows.
func BenchmarkLifetime(b *testing.B) {
	benchRounds(b, benchSpec(64, 64, 1, 0.001, Static), runStudy)
}

// BenchmarkLifetimeReference is the identical study on the frozen
// per-round sim.Run path (referenceRun), measured in the same process
// so the session speedup is an honest A/B, not a cross-machine
// comparison. The reference drives the production cell loop, so it
// also builds each cell's session and forwards deaths and link flips
// to it without running it; EXPERIMENTS.md measures that upkeep as
// within noise of a reference without a session.
func BenchmarkLifetimeReference(b *testing.B) {
	benchRounds(b, benchSpec(64, 64, 1, 0.001, Static), referenceRun)
}

// staticLongSpec is lifetime-static's cell: 2D-4 64x64 at 0.5 J from
// the center, whose source dies after 2,790 rounds of a 4,096-round
// budget. Its curve samples every 64 rounds, so quiet batches the
// rounds between samples; the other rungs' 64-round budget samples
// every round and never batches.
func staticLongSpec() Spec {
	spec := benchSpec(64, 64, 0.5, 0, Static)
	spec.MaxRounds = 4096
	return spec
}

// churnRotateSpec is lifetime-churn's study shape: 2D-4 48x48 at
// 0.05 J, round-robin and residual rotation (two cells) under 2% link
// churn with p_new 0.25, 32 rounds. Every round mutates the session, so
// none is memoized, and the damaged meshes keep the repair planner
// busy.
func churnRotateSpec() Spec {
	spec := benchSpec(48, 48, 0.05, 0.02, RoundRobin)
	spec.Strategies = []Strategy{RoundRobin, Residual}
	spec.MaxRounds = 32
	return spec
}

// BenchmarkLifetimeLadder walks the workload axes: death-only (no
// churn, batteries small enough that nodes die and the graph shrinks)
// under both a static and a rotating source, churn-heavy (5% of ~8k
// links flip per round), churn-heavy at 128x128 (~32k links, 16k
// nodes), churn-rotate (lifetime-churn's study) and static-long
// (lifetime-static's cell). The static rungs are the round memo's
// sweet spot: most rounds mutate nothing and reuse the previous Result
// outright.
func BenchmarkLifetimeLadder(b *testing.B) {
	b.Run("death-only-static-64", func(b *testing.B) {
		benchRounds(b, benchSpec(64, 64, 0.003, 0, Static), runStudy)
	})
	b.Run("death-only-64", func(b *testing.B) {
		benchRounds(b, benchSpec(64, 64, 0.003, 0, RoundRobin), runStudy)
	})
	b.Run("churn-heavy-64", func(b *testing.B) {
		benchRounds(b, benchSpec(64, 64, 1, 0.05, Static), runStudy)
	})
	b.Run("churn-heavy-128", func(b *testing.B) {
		benchRounds(b, benchSpec(128, 128, 1, 0.05, Static), runStudy)
	})
	b.Run("churn-rotate-48", func(b *testing.B) {
		benchRounds(b, churnRotateSpec(), runStudy)
	})
	b.Run("static-long-64", func(b *testing.B) {
		benchRounds(b, staticLongSpec(), runStudy)
	})
}

// BenchmarkLifetimeLadderReference runs the same rungs on the frozen
// per-round path, so every EXPERIMENTS.md before/after pair comes from
// one session on one machine.
func BenchmarkLifetimeLadderReference(b *testing.B) {
	b.Run("death-only-static-64", func(b *testing.B) {
		benchRounds(b, benchSpec(64, 64, 0.003, 0, Static), referenceRun)
	})
	b.Run("death-only-64", func(b *testing.B) {
		benchRounds(b, benchSpec(64, 64, 0.003, 0, RoundRobin), referenceRun)
	})
	b.Run("churn-heavy-64", func(b *testing.B) {
		benchRounds(b, benchSpec(64, 64, 1, 0.05, Static), referenceRun)
	})
	b.Run("churn-heavy-128", func(b *testing.B) {
		benchRounds(b, benchSpec(128, 128, 1, 0.05, Static), referenceRun)
	})
	b.Run("churn-rotate-48", func(b *testing.B) {
		benchRounds(b, churnRotateSpec(), referenceRun)
	})
	b.Run("static-long-64", func(b *testing.B) {
		benchRounds(b, staticLongSpec(), referenceRun)
	})
}
