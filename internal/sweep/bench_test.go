package sweep_test

// Benchmarks for the sweep engine's headline claim: near-linear
// speedup of the full canonical evaluation sweep with the worker
// count, up to the machine's core count. One iteration is the entire
// 4-topology x 512-source paper-protocol sweep (2048 simulations) —
// the exact workload behind Tables 3-5. Run:
//
//	go test ./internal/sweep -bench=Sweep -benchtime=3x
//
// On a single-core machine every pool size degenerates to the serial
// throughput (the workers time-share one CPU); the speedup column of
// EXPERIMENTS.md records what the current hardware actually delivers.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sweep"
)

// canonicalTasks flattens the four canonical paper-protocol sweeps
// into one task list, so the pool stays saturated across topology
// boundaries.
func canonicalTasks() []func() error {
	var fns []func() error
	for _, k := range grid.Kinds() {
		topo := grid.Canonical(k)
		_, kfns := sourceTasks(topo, core.ForTopology(k), allSources(topo))
		fns = append(fns, kfns...)
	}
	return fns
}

// BenchmarkCanonicalSweep measures the full 4-topology source sweep at
// 1, 2, 4 and GOMAXPROCS workers.
func BenchmarkCanonicalSweep(b *testing.B) {
	fns := canonicalTasks()
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := sweep.New(workers)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				errs, err := eng.RunFuncs(context.Background(), fns)
				if err != nil {
					b.Fatal(err)
				}
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSingleTopologySweep isolates one canonical sweep (2D-4),
// the unit of work Table 3 parallelizes.
func BenchmarkSingleTopologySweep(b *testing.B) {
	topo := grid.Canonical(grid.Mesh2D4)
	proto := core.NewMesh4Protocol()
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sweepSources(workers, topo, proto); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
