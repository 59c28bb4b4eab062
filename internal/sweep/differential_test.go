package sweep_test

// The differential layer: the whole point of the sweep engine is that
// parallel execution is observationally equivalent to the serial loop
// it replaced. These tests run every (topology, protocol) pair both
// ways — a plain serial for-loop over sim.Run versus the worker pool —
// and require the per-source Result sets to be exactly equal, field by
// field (Tx, Rx, energy, delay, collisions, duplicates, repairs, and
// the full per-node decode/tx-slot/energy vectors), as well as
// byte-identical when rendered the way wsnsweep renders CSV rows.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// protocols returns the issue's protocol matrix for a topology kind.
func protocols(k grid.Kind) []sim.Protocol {
	return []sim.Protocol{core.ForTopology(k), core.NewFlooding(), core.NewJitteredFlooding(8)}
}

// smallTopo is a reduced mesh of each kind, big enough to exercise
// borders, collisions and scheduler repairs.
func smallTopo(k grid.Kind) grid.Topology {
	if k == grid.Mesh3D6 {
		return grid.NewMesh3D6(4, 4, 3)
	}
	return grid.New(k, 10, 6, 1)
}

// serialSweep is the reference path: one sim.Run per source, in dense
// index order, on the calling goroutine.
func serialSweep(t *testing.T, topo grid.Topology, p sim.Protocol) []*sim.Result {
	t.Helper()
	results := make([]*sim.Result, topo.NumNodes())
	for i := range results {
		r, err := sim.Run(topo, p, topo.At(i), sim.Config{})
		if err != nil {
			t.Fatalf("serial %s/%s src=%s: %v", topo.Kind(), p.Name(), topo.At(i), err)
		}
		results[i] = r
	}
	return results
}

// renderRow formats a result the way wsnsweep renders a CSV row, so
// "byte-identical output" is checked literally.
func renderRow(r *sim.Result) string {
	return fmt.Sprintf("%s,%s,%d,%d,%d,%d,%d,%e,%d,%d,%d,%d,%d,%d",
		r.Kind, r.Protocol, r.Source.X, r.Source.Y, r.Source.Z,
		r.Tx, r.Rx, r.EnergyJ, r.Delay, r.Collisions, r.Duplicates, r.Repairs,
		r.Reached, r.Total)
}

func diffSweep(t *testing.T, topo grid.Topology, p sim.Protocol, workers int) {
	t.Helper()
	serial := serialSweep(t, topo, p)
	parallel, err := sweepSources(workers, topo, p)
	if err != nil {
		t.Fatalf("parallel %s/%s: %v", topo.Kind(), p.Name(), err)
	}
	if len(parallel) != len(serial) {
		t.Fatalf("parallel returned %d results, serial %d", len(parallel), len(serial))
	}
	var serialCSV, parallelCSV strings.Builder
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("%s/%s src=%s: parallel result differs from serial\nserial:   %v\nparallel: %v",
				topo.Kind(), p.Name(), topo.At(i), serial[i], parallel[i])
		}
		serialCSV.WriteString(renderRow(serial[i]) + "\n")
		parallelCSV.WriteString(renderRow(parallel[i]) + "\n")
	}
	if serialCSV.String() != parallelCSV.String() {
		t.Errorf("%s/%s: rendered sweep output not byte-identical", topo.Kind(), p.Name())
	}
}

// TestDifferentialSmallMeshes covers the full matrix — four topologies
// times {paper, flooding, flooding-jitter} — on reduced meshes, at
// several worker counts.
func TestDifferentialSmallMeshes(t *testing.T) {
	for _, k := range grid.Kinds() {
		for _, p := range protocols(k) {
			k, p := k, p
			t.Run(fmt.Sprintf("%s/%s", k, p.Name()), func(t *testing.T) {
				for _, workers := range []int{2, 8} {
					diffSweep(t, smallTopo(k), p, workers)
				}
			})
		}
	}
}

// TestDifferentialCanonical proves the equivalence on the paper's
// 512-node evaluation meshes for the full protocol matrix — the exact
// sweeps behind Tables 3-5 and wsnsweep's default output.
func TestDifferentialCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("canonical 512-node differential matrix skipped in -short mode")
	}
	for _, k := range grid.Kinds() {
		for _, p := range protocols(k) {
			k, p := k, p
			t.Run(fmt.Sprintf("%s/%s", k, p.Name()), func(t *testing.T) {
				diffSweep(t, grid.Canonical(k), p, 4)
			})
		}
	}
}
