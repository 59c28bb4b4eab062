package sim_test

// Scaling benchmarks of the large-grid fast path: paper-protocol
// broadcasts from 64^2 up to 1024^2 (and a 128^3 volume) through the
// implicit-adjacency engine, against the materialized path at the same
// sizes. These back the EXPERIMENTS.md scaling table and the issue's
// acceptance bars (>= 3x ns/op and >= 10x B/op at 1024^2 vs the
// materialized configuration). Run:
//
//	go test ./internal/sim -bench=Scale -benchmem -run=^$
//
// The materialized variants force the small-grid engine configuration
// (cached lists do not apply above the large-grid gate, so every Run
// pays the adjacency build the deliberately bounded caches refuse to
// amortize — exactly what shipping the old path at this scale would
// cost in steady state, memory-safety policy included).

import (
	"fmt"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// scaleTopos is the size ladder of the scaling table.
func scaleTopos() []grid.Topology {
	return []grid.Topology{
		grid.NewMesh2D8(64, 64),     // 4096: below the large-grid gate
		grid.NewMesh2D8(256, 256),   // 65536: first implicit size
		grid.NewMesh2D8(1024, 1024), // ~1.05M: the issue's headline size
		grid.NewMesh3D6(128, 128, 128),
	}
}

func benchRun(b *testing.B, topo grid.Topology, cfg sim.Config) {
	b.Helper()
	proto := core.ForTopology(topo.Kind())
	src := center(topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(topo, proto, src, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScale measures the default engine (implicit path above the
// gate) across the size ladder.
func BenchmarkScale(b *testing.B) {
	for _, topo := range scaleTopos() {
		m, n, l := topo.Size()
		b.Run(fmt.Sprintf("%s/%dx%dx%d", topo.Kind(), m, n, l), func(b *testing.B) {
			benchRun(b, topo, sim.Config{})
		})
	}
}

// BenchmarkScaleMaterialized forces the materialized small-grid
// configuration at every size — the comparison baseline for the
// issue's >= 3x time and >= 10x bytes criteria at 1024^2.
func BenchmarkScaleMaterialized(b *testing.B) {
	for _, topo := range scaleTopos() {
		m, n, l := topo.Size()
		b.Run(fmt.Sprintf("%s/%dx%dx%d", topo.Kind(), m, n, l), func(b *testing.B) {
			defer sim.SetLargeGridThresholdForTest(1 << 30)()
			benchRun(b, topo, sim.Config{})
		})
	}
}

// BenchmarkScaleLossy exercises the stochastic channel at 256^2 — the
// scale a Monte Carlo sweep of large grids replays per replication.
func BenchmarkScaleLossy(b *testing.B) {
	topo := grid.NewMesh2D8(256, 256)
	benchRun(b, topo, sim.Config{Channel: sim.NewBernoulliLoss(42, 0.02)})
}

// BenchmarkScaleReference runs the preserved pre-overhaul engine at
// the headline 1024^2 size — the materialized baseline the issue's
// acceptance bars are measured against.
func BenchmarkScaleReference(b *testing.B) {
	topo := grid.NewMesh2D8(1024, 1024)
	proto := core.ForTopology(grid.Mesh2D8)
	src := center(topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunReference(topo, proto, src, sim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleEngineLoop measures the schedule/repair loop alone at
// 1024^2, without Result assembly: whole-Run B/op at this size is
// dominated by the per-node arrays every engine must hand the caller
// (DecodeSlot, TxSlots, PerNodeEnergyJ — ~43 MB), so this is the
// number that shows the arena's steady-state allocation, which should
// be near zero.
func BenchmarkScaleEngineLoop(b *testing.B) {
	topo := grid.NewMesh2D8(1024, 1024)
	proto := core.ForTopology(grid.Mesh2D8)
	src := center(topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.RunLoopForBenchmark(topo, proto, src, sim.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
