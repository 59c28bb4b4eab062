package main

import (
	"fmt"
	"runtime"
	"time"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// parseKind resolves a -kind flag value against the regular kinds.
func parseKind(s string) (grid.Kind, error) {
	for _, k := range grid.Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown -kind %q (use 2D-3, 2D-4, 2D-8 or 3D-6)", s)
}

// runScale executes one paper-protocol broadcast on an m x n x l mesh
// through sim.Run — the implicit large-grid path above the engine's
// threshold — and prints the run metrics plus wall time and heap use.
func runScale(kindName string, m, n, l int) error {
	k, err := parseKind(kindName)
	if err != nil {
		return err
	}
	if m < 1 || n < 1 || l < 1 {
		return fmt.Errorf("invalid mesh size %dx%dx%d: dimensions must be >= 1", m, n, l)
	}
	if l > 1 && k != grid.Mesh3D6 {
		return fmt.Errorf("-l %d requires -kind 3D-6 (%s meshes are planar)", l, k)
	}
	topo := grid.New(k, m, n, l)
	mm, nn, ll := topo.Size()
	src := grid.C3((mm+1)/2, (nn+1)/2, (ll+1)/2)
	proto := core.ForTopology(k)

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := sim.Run(topo, proto, src, sim.Config{})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	fmt.Printf("scale run: %s %dx%dx%d (%d nodes), protocol %s\n",
		k, mm, nn, ll, topo.NumNodes(), proto.Name())
	fmt.Printf("  reached   %d/%d (down %d)\n", res.Reached, res.Total, res.Down)
	fmt.Printf("  delay     %d slots\n", res.Delay)
	fmt.Printf("  tx %d  rx %d  collisions %d  duplicates %d  repairs %d\n",
		res.Tx, res.Rx, res.Collisions, res.Duplicates, res.Repairs)
	fmt.Printf("  energy    %.4e J\n", res.EnergyJ)
	fmt.Printf("  wall time %v\n", elapsed.Round(time.Millisecond))
	fmt.Printf("  heap      %.1f MiB in use after run (%.1f MiB allocated during)\n",
		float64(after.HeapInuse)/(1<<20),
		float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	return nil
}
