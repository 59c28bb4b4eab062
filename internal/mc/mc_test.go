package mc

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

func center(t grid.Topology) grid.Coord {
	m, n, l := t.Size()
	return grid.C3((m+1)/2, (n+1)/2, (l+1)/2)
}

// The regression bridge to the deterministic engine: at loss rate 0
// with failure rate 0 every replication must be *identical* to
// sim.Run's output for the same config — the config the Tables 3-5
// goldens pin. The stochastic path must be a strict superset of the
// deterministic one, never a reimplementation that drifts.
func TestZeroRatesBridgeToDeterministicEngine(t *testing.T) {
	for _, k := range grid.Kinds() {
		topo := grid.New(k, 8, 6, 2)
		p := core.ForTopology(k)
		src := center(topo)
		rep, err := Run(context.Background(), Spec{
			Topology: topo, Protocol: p, Source: src,
			Seed: 42, Replications: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		det, err := sim.Run(topo, p, src, sim.Config{})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if len(rep.Points) != 1 || len(rep.Records) != 3 {
			t.Fatalf("%s: %d points / %d records", k, len(rep.Points), len(rep.Records))
		}
		for _, rec := range rep.Records {
			want := Record{
				LossRate: 0, FailureRate: 0, Rep: rec.Rep,
				Seed:    sim.ReplicationSeed(42, rec.Rep),
				Reached: det.Reached, Total: det.Total, Down: det.Down,
				Reachability: det.Reachability(), Delay: det.Delay,
				Tx: det.Tx, Rx: det.Rx, Lost: det.Lost,
				Collisions: det.Collisions, Repairs: det.Repairs,
				EnergyJ: det.EnergyJ,
			}
			if rec != want {
				t.Errorf("%s rep %d:\n got %+v\nwant %+v", k, rec.Rep, rec, want)
			}
		}
		pt := rep.Points[0]
		if pt.Reachability.Mean != 1 || pt.Reachability.CI95 != 0 {
			t.Errorf("%s: zero-rate reachability %+v", k, pt.Reachability)
		}
		if pt.FullyReached != 3 {
			t.Errorf("%s: FullyReached = %d", k, pt.FullyReached)
		}
		if pt.EnergyJ.Mean != det.EnergyJ || pt.Delay.Mean != float64(det.Delay) {
			t.Errorf("%s: aggregate drifted from the deterministic run", k)
		}
	}
}

// Loss degrades reachability when repair is off; failures shrink the
// live population; both aggregates stay internally consistent.
func TestLossAndFailureCurves(t *testing.T) {
	topo := grid.NewMesh2D4(12, 8)
	rep, err := Run(context.Background(), Spec{
		Topology: topo, Protocol: core.ForTopology(grid.Mesh2D4), Source: center(topo),
		Config:       sim.Config{DisableRepair: true},
		Seed:         7,
		Replications: 30,
		LossRates:    []float64{0, 0.1, 0.3},
		FailureRates: []float64{0, 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(rep.Points))
	}
	curve := rep.Curve(0)
	if len(curve) != 3 {
		t.Fatalf("curve at failure 0 has %d points", len(curve))
	}
	if curve[0].Reachability.Mean != 1 {
		t.Errorf("lossless reachability %g, want 1", curve[0].Reachability.Mean)
	}
	if curve[2].Reachability.Mean >= curve[0].Reachability.Mean {
		t.Errorf("30%% loss did not degrade reachability: %g", curve[2].Reachability.Mean)
	}
	if curve[2].Reachability.CI95 <= 0 {
		t.Errorf("stochastic point has no confidence interval: %+v", curve[2].Reachability)
	}
	for _, p := range rep.Points {
		if p.Reachability.Min > p.Reachability.Mean || p.Reachability.Max < p.Reachability.Mean {
			t.Errorf("metric extremes exclude the mean: %+v", p.Reachability)
		}
	}
	// At failure rate 0.1 some replications run with a reduced live
	// population.
	failed := rep.Curve(0.1)
	sawDown := false
	for _, rec := range rep.Records {
		if rec.FailureRate == 0.1 && rec.Down > 0 {
			sawDown = true
		}
		if rec.Total+rec.Down != topo.NumNodes() {
			t.Fatalf("Total %d + Down %d != %d nodes", rec.Total, rec.Down, topo.NumNodes())
		}
	}
	if !sawDown {
		t.Error("failure rate 0.1 never sampled a down node across 30 replications")
	}
	if len(failed) != 3 {
		t.Fatalf("curve at failure 0.1 has %d points", len(failed))
	}
}

// The grid axes are canonical: duplicated, unsorted rate lists produce
// the byte-identical report of their sorted deduplication, and nil
// means {0}.
func TestRateGridCanonicalization(t *testing.T) {
	topo := grid.NewMesh2D4(6, 4)
	base := Spec{
		Topology: topo, Protocol: core.NewFlooding(), Source: center(topo),
		Config: sim.Config{DisableRepair: true}, Seed: 3, Replications: 4,
	}
	messy := base
	messy.LossRates = []float64{0.2, 0, 0.2, 0.1}
	messy.FailureRates = []float64{0.05, 0.05}
	clean := base
	clean.LossRates = []float64{0, 0.1, 0.2}
	clean.FailureRates = []float64{0.05}
	a, err := Run(context.Background(), messy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("messy and clean grids differ:\n%s\n%s", ja, jb)
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Error("records differ between messy and clean grids")
	}
}

func TestSpecValidation(t *testing.T) {
	topo := grid.NewMesh2D4(4, 4)
	ok := Spec{Topology: topo, Protocol: core.NewFlooding(), Source: grid.C2(1, 1), Replications: 1}
	bad := []Spec{
		{},
		{Topology: topo, Protocol: core.NewFlooding(), Source: grid.C2(9, 9), Replications: 1},
		func() Spec { s := ok; s.Replications = 0; return s }(),
		func() Spec { s := ok; s.Replications = -3; return s }(),
		func() Spec { s := ok; s.LossRates = []float64{1.5}; return s }(),
		func() Spec { s := ok; s.FailureRates = []float64{-0.1}; return s }(),
	}
	for i, s := range bad {
		if _, err := Run(context.Background(), s); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if _, err := Run(context.Background(), ok); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestRunCancellation(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Spec{
		Topology: topo, Protocol: core.NewFlooding(), Source: grid.C2(1, 1),
		Replications: 50, LossRates: []float64{0.1},
	})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
}
