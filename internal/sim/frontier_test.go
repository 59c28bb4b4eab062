package sim_test

import (
	"fmt"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// TestFrontierMatchesFullScan holds the frontier repair planner to the
// full uncovered scan it replaces: with the check installed, every
// planning round after the first also runs the full scan, and the two
// must plan the same injection list. It covers the canonical matrices
// (paper and flooding protocols, lossless, lossy, down and lossy+down),
// more lossy seeds and rates, heavier Down lists on the implicit
// neighbor path, and churned sessions, whose damaged meshes are where
// the planner runs most rounds.
func TestFrontierMatchesFullScan(t *testing.T) {
	rounds, mismatches, restore := sim.CheckFrontierForTest()
	defer restore()
	check := func(t *testing.T, what string, run func() (*sim.Result, error)) {
		t.Helper()
		before := mismatches()
		if _, err := run(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if mismatches() != before {
			t.Fatalf("%s: a frontier round planned differently from the full scan", what)
		}
	}

	for _, k := range grid.Kinds() {
		topo := grid.Canonical(k)
		for _, src := range []grid.Coord{center(topo), topo.At(0)} {
			for _, p := range diffProtocols(k) {
				for name, cfg := range channelConfigs(topo, src) {
					check(t, fmt.Sprintf("%s/%s/%s/%s", k, p.Name(), src, name), func() (*sim.Result, error) {
						return sim.Run(topo, p, src, cfg)
					})
				}
			}
			for seed := uint64(1); seed <= 4; seed++ {
				for _, rate := range []float64{0.05, 0.3} {
					cfg := sim.Config{Channel: sim.NewBernoulliLoss(seed, rate)}
					check(t, fmt.Sprintf("%s/%s/loss %d %g", k, src, seed, rate), func() (*sim.Result, error) {
						return sim.Run(topo, core.NewFlooding(), src, cfg)
					})
				}
			}
		}
	}

	// Heavy node failures partition the mesh, so most uncovered nodes
	// never get a donor; the implicit path filters down nodes itself.
	for _, threshold := range []int{0, 1 << 30} {
		restoreThreshold := sim.SetLargeGridThresholdForTest(threshold)
		for _, k := range grid.Kinds() {
			topo := grid.Canonical(k)
			src := center(topo)
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := sim.Config{Down: sim.SampleFailures(topo, src, seed, 0.25)}
				check(t, fmt.Sprintf("%s/down %d/threshold %d", k, seed, threshold), func() (*sim.Result, error) {
					return sim.Run(topo, core.ForTopology(k), src, cfg)
				})
			}
		}
		restoreThreshold()
	}

	// Churned sessions: links fail at 2% and 10%, nodes at 3%, and the
	// session broadcasts from several sources on the damaged graph.
	for _, k := range grid.Kinds() {
		topo := grid.Canonical(k)
		for _, pFail := range []float64{0.02, 0.1} {
			sess, err := sim.NewSession(topo, core.ForTopology(k), sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < sess.NumLinks(); id++ {
				if sim.ChurnUnit(7, 1, int32(id)) < pFail {
					if err := sess.SetLinkDown(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < topo.NumNodes(); i++ {
				if sim.ChurnUnit(8, 1, int32(i)) < 0.03 && i%97 != 0 {
					if err := sess.SetNodeDown(i); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < topo.NumNodes(); i += 97 {
				src := topo.At(i)
				check(t, fmt.Sprintf("%s/churn %g/%s", k, pFail, src), func() (*sim.Result, error) {
					return sess.Run(src)
				})
			}
			sess.Release()
		}
	}

	if rounds() == 0 {
		t.Fatal("no frontier planning round ran; the matrix exercises nothing")
	}
	t.Logf("%d frontier planning rounds matched the full scan", rounds())
}
