package mc_test

// Macro-benchmark of the Monte Carlo reliability engine: one full
// study — replications x (loss rate x failure rate) grid — through
// spec validation, job fan-out, the sweep pool and aggregation. This
// is the workload whose per-replication constant factor the worker
// sessions attack: every replication is one Session.Run between a
// failure sample and its restore. Run:
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
// 3 loss x 2 failure grid on a 16x8 2D-4 mesh (120 replications per
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

// BenchmarkMCReliabilityPoint is one jobs-reliability grid point as the
// job coordinator runs it: mc.RunPoint on the 512-node 2D-4 32x16 mesh,
// 64 replications at loss 0.1 and failure 0.1, default workers. Its
// allocations per op are the point's share of the jobs-reliability
// workload's alloc_kib_per_req.
func BenchmarkMCReliabilityPoint(b *testing.B) {
	topo := grid.NewMesh2D4(32, 16)
	spec := mc.Spec{
		Topology:     topo,
		Protocol:     core.ForTopology(grid.Mesh2D4),
		Source:       grid.C2(16, 8),
		Seed:         1,
		Replications: 64,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mc.RunPoint(context.Background(), spec, 0.1, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}
