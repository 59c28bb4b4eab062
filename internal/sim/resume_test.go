package sim_test

// Resume coverage: every repair replay after the first resumes at the
// earliest slot S its round's new injections occupy instead of
// restarting from slot 0 (engine.rewind). These tests prove resumed
// replays actually happen on repair-heavy flooding schedules and that
// they change no output byte: Results and trace streams stay identical
// to the frozen reference engine, and Session rounds stay identical to
// one-shot sim.Run, including under link churn and when the planner's
// round cap hands the run to the serialized appendRepair fallback after
// some resumed rounds.

import (
	"reflect"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// resumeConfigs is the channel matrix of the resume suite: error-free,
// Bernoulli loss, sampled node failures, and a traced run.
func resumeConfigs(t grid.Topology, src grid.Coord) map[string]sim.Config {
	return map[string]sim.Config{
		"lossless":  {},
		"bernoulli": {Channel: sim.NewBernoulliLoss(42, 0.1)},
		"down":      {Down: sim.SampleFailures(t, src, 3, 0.1)},
		"trace":     {Trace: func(sim.Event) {}},
	}
}

// runResumed runs sim.Run and returns its Result together with the
// number of replays that resumed at a slot S > 0.
func runResumed(t *testing.T, topo grid.Topology, p sim.Protocol, src grid.Coord, cfg sim.Config) (*sim.Result, int64) {
	t.Helper()
	before := sim.ResumedReplaysForTest()
	res, err := sim.Run(topo, p, src, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, sim.ResumedReplaysForTest() - before
}

// TestResumeCoverageFlooding drives flooding — the repair-heaviest
// protocol — on the four paper meshes under every channel config and
// requires resumed replays in every case, with the Result (and, for
// traced configs, the event stream) identical to RunReference.
func TestResumeCoverageFlooding(t *testing.T) {
	p := core.NewFlooding()
	for _, k := range grid.Kinds() {
		topo := grid.Canonical(k)
		src := center(topo)
		for name, cfg := range resumeConfigs(topo, src) {
			t.Run(k.String()+"/"+name, func(t *testing.T) {
				got, resumed := runResumed(t, topo, p, src, cfg)
				if resumed == 0 {
					t.Fatalf("no replay resumed at S > 0 (repairs %d)", got.Repairs)
				}
				want, err := sim.RunReference(topo, p, src, cfg)
				if err != nil {
					t.Fatalf("RunReference: %v", err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("resumed Result differs from reference\nref: %v\nnew: %v", want, got)
				}
				if cfg.Trace != nil {
					diffOne(t, topo, p, src, cfg)
				}
			})
		}
	}
}

// TestResumeLossySeedSweep sweeps loss seeds and rates under flooding
// and the paper protocols. Loss makes consecutive replays end at
// different slots, so a replay often resumes past the end of a shorter
// predecessor or inside a longer one's stale tail — the checkpoint
// truncation cases a single configuration rarely reaches.
func TestResumeLossySeedSweep(t *testing.T) {
	var resumed int64
	for _, k := range grid.Kinds() {
		topo := grid.Canonical(k)
		src := center(topo)
		for _, p := range []sim.Protocol{core.NewFlooding(), core.ForTopology(k)} {
			for seed := uint64(1); seed <= 16; seed++ {
				for _, rate := range []float64{0.05, 0.2} {
					cfg := sim.Config{Channel: sim.NewBernoulliLoss(seed, rate)}
					got, n := runResumed(t, topo, p, src, cfg)
					resumed += n
					want, err := sim.RunReference(topo, p, src, cfg)
					if err != nil {
						t.Fatalf("RunReference: %v", err)
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("%s/%s/seed=%d/rate=%g: resumed Result differs from reference\nref: %v\nnew: %v",
							k, p.Name(), seed, rate, want, got)
					}
				}
			}
		}
	}
	if resumed == 0 {
		t.Fatal("no replay resumed at S > 0 across the sweep")
	}
}

// TestResumeAppendRepairFallback caps the planner below the number of
// rounds flooding needs, so the run resumes some replays and then
// falls back to serialized appendRepair. The capped Result and trace
// must still match the reference engine.
func TestResumeAppendRepairFallback(t *testing.T) {
	p := core.NewFlooding()
	for _, k := range grid.Kinds() {
		topo := grid.Canonical(k)
		src := center(topo)
		t.Run(k.String(), func(t *testing.T) {
			_, full := runResumed(t, topo, p, src, sim.Config{})
			if full < 2 {
				t.Fatalf("flooding resumed only %d replays here; the cap cannot bite after a resume", full)
			}
			// Rounds 1..cap resume; round cap still has nodes missing (the
			// uncapped run went on), so the engine takes the fallback.
			capped := int(full - 1)
			cfg := sim.Config{MaxPlanRounds: capped}
			_, resumed := runResumed(t, topo, p, src, cfg)
			if resumed != int64(capped) {
				t.Fatalf("capped run resumed %d replays, want %d before the fallback", resumed, capped)
			}
			diffOne(t, topo, p, src, cfg)
		})
	}
}

// TestResumeSessionChurn drives a churned mutation sequence through a
// flooding session and requires it to match one-shot sim.Run after
// every step, with resumed replays on the session path.
func TestResumeSessionChurn(t *testing.T) {
	topo := grid.NewMesh2D4(16, 16)
	p := core.NewFlooding()
	h := newSessionHarness(t, topo, p, sim.Config{})
	nl := len(h.links)
	rng := uint64(2024)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	src := topo.At(topo.NumNodes() / 2)
	var resumed int64
	for step := 0; step < 10; step++ {
		for f := 0; f < 8; f++ {
			id := next(nl)
			if h.cut[id] {
				h.linkUp(id)
			} else {
				h.linkDown(id)
			}
		}
		if step%4 == 3 {
			if i := next(topo.NumNodes()); i != topo.NumNodes()/2 && !h.down[i] {
				h.nodeDown(i)
			}
		}
		before := sim.ResumedReplaysForTest()
		if _, err := h.sess.Run(src); err != nil {
			t.Fatal(err)
		}
		resumed += sim.ResumedReplaysForTest() - before
		// check reruns the session and compares it (and its trace) with
		// one-shot sim.Run.
		h.check(src, "churn step")
	}
	if resumed == 0 {
		t.Fatal("no session replay resumed at S > 0 under churn")
	}
}
