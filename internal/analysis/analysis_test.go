package analysis

import (
	"math"
	"strings"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/radio"
	"wsnbcast/internal/sim"
)

// The sweep over the canonical 2D-4 mesh reproduces the paper's
// Table 3/4/5 row exactly: best Tx 208, worst Tx 223, max delay 45.
func TestSweepMesh4PaperRow(t *testing.T) {
	topo := grid.Canonical(grid.Mesh2D4)
	s, err := Sweep(topo, core.NewMesh4Protocol(), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != 512 {
		t.Errorf("Runs = %d, want 512", s.Runs)
	}
	if s.Best.Tx != 208 {
		t.Errorf("best Tx = %d, paper 208", s.Best.Tx)
	}
	if s.Worst.Tx != 223 {
		t.Errorf("worst Tx = %d, paper 223", s.Worst.Tx)
	}
	if s.MaxDelay != 45 {
		t.Errorf("max delay = %d, paper 45", s.MaxDelay)
	}
	if s.TotalRepairs != 0 {
		t.Errorf("repairs = %d", s.TotalRepairs)
	}
	// Best must not exceed mean, mean not exceed worst.
	if s.Best.EnergyJ > s.MeanEnergyJ || s.MeanEnergyJ > s.Worst.EnergyJ {
		t.Errorf("energy ordering broken: best %g mean %g worst %g",
			s.Best.EnergyJ, s.MeanEnergyJ, s.Worst.EnergyJ)
	}
}

// Paper claim (Section 4): a corner source "has a longer delay" than a
// center source. (Power is residue-driven for 2D-4 — the border
// columns — so the centrality claim is asserted on delay.)
func TestCenterSourceFasterThanCorner(t *testing.T) {
	for _, k := range grid.Kinds() {
		topo := grid.Canonical(k)
		m, n, l := topo.Size()
		center := grid.C3((m+1)/2, (n+1)/2, (l+1)/2)
		corner := grid.C3(1, 1, 1)
		rc, err := sim.Run(topo, core.ForTopology(k), center, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rk, err := sim.Run(topo, core.ForTopology(k), corner, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rc.Delay >= rk.Delay {
			t.Errorf("%v: center delay %d not below corner delay %d", k, rc.Delay, rk.Delay)
		}
	}
}

// Paper claim: 2D-3 and 2D-8 are "not sensitive to the source node's
// location" — their best/worst spread must be smaller than 2D-4's and
// 3D-6's.
func TestSourceSensitivityOrdering(t *testing.T) {
	spread := map[grid.Kind]float64{}
	for _, k := range grid.Kinds() {
		s, err := Sweep(grid.Canonical(k), core.ForTopology(k), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		spread[k] = s.EnergySpread()
	}
	if spread[grid.Mesh2D3] >= spread[grid.Mesh2D4] {
		t.Errorf("2D-3 spread %.3f not below 2D-4 %.3f", spread[grid.Mesh2D3], spread[grid.Mesh2D4])
	}
	if spread[grid.Mesh2D8] >= spread[grid.Mesh3D6] {
		t.Errorf("2D-8 spread %.3f not below 3D-6 %.3f", spread[grid.Mesh2D8], spread[grid.Mesh3D6])
	}
}

// Headline result of the paper: 2D mesh with 4 neighbors has the
// minimum power consumption; 3D mesh with 6 neighbors the smallest
// maximum delay.
func TestPaperHeadlineOrderings(t *testing.T) {
	best := map[grid.Kind]float64{}
	delay := map[grid.Kind]int{}
	for _, k := range grid.Kinds() {
		s, err := Sweep(grid.Canonical(k), core.ForTopology(k), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		best[k] = s.Best.EnergyJ
		delay[k] = s.MaxDelay
	}
	for _, k := range []grid.Kind{grid.Mesh2D3, grid.Mesh2D8, grid.Mesh3D6} {
		if best[grid.Mesh2D4] >= best[k] {
			t.Errorf("2D-4 best energy %.3e not below %v's %.3e", best[grid.Mesh2D4], k, best[k])
		}
	}
	for _, k := range []grid.Kind{grid.Mesh2D3, grid.Mesh2D4, grid.Mesh2D8} {
		if delay[grid.Mesh3D6] >= delay[k] {
			t.Errorf("3D-6 max delay %d not below %v's %d", delay[grid.Mesh3D6], k, delay[k])
		}
	}
	// And among the 2D topologies, 2D-8 has the smallest max delay.
	if delay[grid.Mesh2D8] >= delay[grid.Mesh2D4] || delay[grid.Mesh2D8] >= delay[grid.Mesh2D3] {
		t.Errorf("2D-8 max delay %d not smallest among 2D (%d, %d)",
			delay[grid.Mesh2D8], delay[grid.Mesh2D4], delay[grid.Mesh2D3])
	}
}

// A summary over an explicit source subset (the corners and center)
// counts exactly those runs.
func TestSweepSourcesSubset(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	proto := core.NewMesh4Protocol()
	srcs := CornersAndCenter(topo)
	results := make([]*sim.Result, len(srcs))
	for i, src := range srcs {
		r, err := sim.Run(topo, proto, src, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	s, err := Summarize(topo, proto, results)
	if err != nil {
		t.Fatal(err)
	}
	if s.Runs != len(srcs) {
		t.Errorf("Runs = %d, want %d", s.Runs, len(srcs))
	}
}

// A failed broadcast aborts the sweep with the first failing source in
// source order, whatever the pool size and completion order.
func TestSweepNamesFirstFailedSource(t *testing.T) {
	topo := grid.NewMesh2D4(4, 3)
	cfg := sim.Config{Down: []grid.Coord{grid.C2(3, 1), grid.C2(2, 1)}}
	for _, workers := range []int{1, 4} {
		_, err := SweepWorkers(topo, core.NewMesh4Protocol(), cfg, workers)
		if err == nil || !strings.Contains(err.Error(), "source (2,1)") {
			t.Errorf("workers=%d: error = %v, want the first failure, source (2,1)", workers, err)
		}
	}
}

// A sweep must fail loudly when reachability cannot be achieved
// (disconnected brick wall).
func TestSweepReportsUnreachable(t *testing.T) {
	topo := grid.NewMesh2D3(1, 6) // disconnected vertical pairs
	_, err := Sweep(topo, core.NewMesh3Protocol(), sim.Config{})
	if err == nil || !strings.Contains(err.Error(), "reached only") {
		t.Errorf("expected unreachable error, got %v", err)
	}
}

func TestCornersAndCenter(t *testing.T) {
	topo := grid.NewMesh3D6(4, 5, 3)
	srcs := CornersAndCenter(topo)
	if len(srcs) != 9 {
		t.Errorf("len = %d, want 9 (8 corners + center)", len(srcs))
	}
	topo2 := grid.NewMesh2D4(4, 5)
	srcs2 := CornersAndCenter(topo2)
	if len(srcs2) != 5 {
		t.Errorf("2D len = %d, want 5", len(srcs2))
	}
}

func TestEnergySpreadEdge(t *testing.T) {
	s := Summary{}
	if !math.IsInf(s.EnergySpread(), 1) {
		t.Error("zero best energy should give +Inf spread")
	}
}

func TestLifetime(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	rep, err := Lifetime(topo, core.NewMesh4Protocol(), grid.C2(4, 4), sim.Config{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxNodeEnergyJ <= 0 || rep.MeanNodeEnergyJ <= 0 {
		t.Fatalf("energies not positive: %+v", rep)
	}
	if rep.MaxNodeEnergyJ < rep.P99 || rep.P99 < rep.P90 || rep.P90 < rep.P50 {
		t.Errorf("quantiles disordered: %+v", rep)
	}
	if rep.ImbalanceRatio < 1 {
		t.Errorf("imbalance %.2f < 1", rep.ImbalanceRatio)
	}
	if rep.RoundsOnBudget <= 0 {
		t.Errorf("rounds = %d", rep.RoundsOnBudget)
	}
	want := int(1.0 / rep.MaxNodeEnergyJ)
	if rep.RoundsOnBudget != want {
		t.Errorf("rounds = %d, want %d", rep.RoundsOnBudget, want)
	}
}

// Lifetime with flooding must be shorter than with the paper protocol
// (flooding loads every node with every neighbor's transmission).
func TestLifetimeFloodingWorse(t *testing.T) {
	topo := grid.NewMesh2D4(12, 12)
	src := grid.C2(6, 6)
	paper, err := Lifetime(topo, core.NewMesh4Protocol(), src, sim.Config{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	flood, err := Lifetime(topo, core.NewFlooding(), src, sim.Config{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if flood.RoundsOnBudget >= paper.RoundsOnBudget {
		t.Errorf("flooding lifetime %d rounds not below paper %d",
			flood.RoundsOnBudget, paper.RoundsOnBudget)
	}
}

func TestLifetimeError(t *testing.T) {
	topo := grid.NewMesh2D4(4, 4)
	if _, err := Lifetime(topo, core.NewMesh4Protocol(), grid.C2(9, 9), sim.Config{}, 1.0); err == nil {
		t.Error("out-of-mesh source accepted")
	}
}

// The running statistics agree with the best/worst extremes.
func TestSweepStatsConsistent(t *testing.T) {
	topo := grid.NewMesh2D4(10, 6)
	s, err := Sweep(topo, core.NewMesh4Protocol(), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.EnergyStats.N() != s.Runs {
		t.Errorf("stats n = %d, runs = %d", s.EnergyStats.N(), s.Runs)
	}
	if s.EnergyStats.Min() != s.Best.EnergyJ {
		t.Errorf("stats min %g != best %g", s.EnergyStats.Min(), s.Best.EnergyJ)
	}
	if s.EnergyStats.Max() != s.Worst.EnergyJ {
		t.Errorf("stats max %g != worst %g", s.EnergyStats.Max(), s.Worst.EnergyJ)
	}
	if math.Abs(s.EnergyStats.Mean()-s.MeanEnergyJ) > 1e-12 {
		t.Errorf("stats mean %g != mean %g", s.EnergyStats.Mean(), s.MeanEnergyJ)
	}
	if s.TxStats.Min() > s.TxStats.Max() || s.DelayStats.Max() != float64(s.MaxDelay) {
		t.Errorf("tx/delay stats inconsistent: %v %v", s.TxStats, s.DelayStats)
	}
}

// Idle listening accounting: the idle term grows with delay and the
// total re-ranks the topologies by speed.
func TestWithIdle(t *testing.T) {
	topo := grid.Canonical(grid.Mesh2D4)
	r, err := sim.Run(topo, core.NewMesh4Protocol(), grid.C2(16, 8), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b := WithIdle(r, radio.Default(), radio.CanonicalPacket())
	if b.ActiveJ != r.EnergyJ {
		t.Errorf("active %g != %g", b.ActiveJ, r.EnergyJ)
	}
	if b.IdleJ <= 0 || b.TotalJ != b.ActiveJ+b.IdleJ {
		t.Errorf("breakdown: %+v", b)
	}
	// Idle dominates: 512 nodes x 24 slots of listening vs ~1000
	// active events.
	if b.IdleJ < b.ActiveJ {
		t.Errorf("idle %g should dominate active %g on the canonical mesh", b.IdleJ, b.ActiveJ)
	}
	if got, want := IdleJPerSlot(radio.Default(), radio.CanonicalPacket()),
		radio.Default().RxEnergyJ(512); got != want {
		t.Errorf("IdleJPerSlot = %g, want %g", got, want)
	}
}

// Under idle accounting, the fastest topology (3D-6) beats the paper's
// power winner (2D-4) on total energy.
func TestIdleRankingFlips(t *testing.T) {
	total := map[grid.Kind]float64{}
	for _, k := range []grid.Kind{grid.Mesh2D4, grid.Mesh3D6} {
		topo := grid.Canonical(k)
		m, n, l := topo.Size()
		r, err := sim.Run(topo, core.ForTopology(k), grid.C3((m+1)/2, (n+1)/2, (l+1)/2), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		total[k] = WithIdle(r, radio.Default(), radio.CanonicalPacket()).TotalJ
	}
	if total[grid.Mesh3D6] >= total[grid.Mesh2D4] {
		t.Errorf("with idle listening 3D-6 (%.3e) should beat 2D-4 (%.3e)",
			total[grid.Mesh3D6], total[grid.Mesh2D4])
	}
}

// The Summary must be identical for every worker-pool size: Summarize
// aggregates in source order, so tie-breaking never depends on
// completion order.
func TestSweepWorkersInvariant(t *testing.T) {
	topo := grid.NewMesh2D4(10, 6)
	base, err := SweepWorkers(topo, core.NewMesh4Protocol(), sim.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, 64} {
		s, err := SweepWorkers(topo, core.NewMesh4Protocol(), sim.Config{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if s != base {
			t.Errorf("workers=%d summary differs from workers=1:\n%+v\nvs\n%+v", workers, s, base)
		}
	}
}

// Summarize on an explicit serial result list must match the engine
// path exactly.
func TestSummarizeMatchesSweep(t *testing.T) {
	topo := grid.NewMesh2D8(8, 5)
	p := core.NewMesh8Protocol()
	results := make([]*sim.Result, topo.NumNodes())
	for i := range results {
		r, err := sim.Run(topo, p, topo.At(i), sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	fromSerial, err := Summarize(topo, p, results)
	if err != nil {
		t.Fatal(err)
	}
	fromEngine, err := Sweep(topo, p, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if fromSerial != fromEngine {
		t.Errorf("Summarize(serial results) != Sweep:\n%+v\nvs\n%+v", fromSerial, fromEngine)
	}
}
