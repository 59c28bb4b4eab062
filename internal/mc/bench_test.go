package mc_test

// Macro-benchmark of the Monte Carlo reliability engine: one full
// study — replications x (loss rate x failure rate) grid — through
// spec validation, job fan-out, the sweep pool and aggregation. This
// is the workload whose per-run constant factor the engine overhaul
// attacks: every replication is one sim.Run. Run:
//
//	go test ./internal/mc -bench=MC -benchmem -run=^$

import (
	"context"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/mc"
	"wsnbcast/internal/sim"
)

// BenchmarkMCReliability runs a 20-replication study over a
// 3 loss x 2 failure grid on a 16x8 2D-4 mesh (120 sim.Runs per
// iteration) with one worker, isolating per-run engine cost from
// scheduling noise.
func BenchmarkMCReliability(b *testing.B) {
	topo := grid.NewMesh2D4(16, 8)
	spec := mc.Spec{
		Topology:     topo,
		Protocol:     core.ForTopology(grid.Mesh2D4),
		Source:       grid.C2(8, 4),
		Config:       sim.Config{},
		Seed:         1,
		Replications: 20,
		LossRates:    []float64{0, 0.05, 0.1},
		FailureRates: []float64{0, 0.1},
		Workers:      1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCReliabilityCanonical runs a smaller-replication study on
// the canonical 512-node 2D-4 mesh — the per-replication cost at the
// paper's evaluation scale.
func BenchmarkMCReliabilityCanonical(b *testing.B) {
	topo := grid.Canonical(grid.Mesh2D4)
	spec := mc.Spec{
		Topology:     topo,
		Protocol:     core.ForTopology(grid.Mesh2D4),
		Source:       grid.C2(16, 8),
		Config:       sim.Config{},
		Seed:         1,
		Replications: 5,
		LossRates:    []float64{0, 0.1},
		FailureRates: []float64{0},
		Workers:      1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.Run(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}
