package mc

// The stochastic extension of PR 1's differential layer: a Monte Carlo
// study must produce byte-identical aggregate reports and per-
// replication records at every worker count for the same seed. The
// whole package's determinism rests on counter-based draws — if any
// layer smuggled in shared RNG state, worker scheduling would surface
// here as a diff. make race runs this file under the race detector,
// which doubles as the concurrency-safety audit of the loss channel.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/stats"
)

func studySpec(k grid.Kind, workers int) Spec {
	topo := grid.New(k, 8, 6, 2)
	return Spec{
		Topology: topo, Protocol: core.ForTopology(k), Source: center(topo),
		Config:       sim.Config{DisableRepair: true},
		Seed:         1234,
		Replications: 6,
		LossRates:    []float64{0, 0.1, 0.25},
		FailureRates: []float64{0, 0.08},
		Workers:      workers,
	}
}

func marshalled(t *testing.T, rep *Report) (aggregate, records string) {
	t.Helper()
	a, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	r, err := json.Marshal(rep.Records)
	if err != nil {
		t.Fatal(err)
	}
	return string(a), string(r)
}

func TestParallelSerialIdenticalReports(t *testing.T) {
	for _, k := range grid.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			serial, err := Run(context.Background(), studySpec(k, 1))
			if err != nil {
				t.Fatal(err)
			}
			wantAgg, wantRec := marshalled(t, serial)
			for _, workers := range []int{2, 5, 8} {
				par, err := Run(context.Background(), studySpec(k, workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				gotAgg, gotRec := marshalled(t, par)
				if gotAgg != wantAgg {
					t.Errorf("workers=%d: aggregate report differs from serial", workers)
				}
				if gotRec != wantRec {
					t.Errorf("workers=%d: per-replication records differ from serial", workers)
				}
			}
		})
	}
}

// Identical seeds reproduce the identical study; different seeds must
// not (at a stochastic grid point).
func TestSeedReproducibility(t *testing.T) {
	a, err := Run(context.Background(), studySpec(grid.Mesh2D4, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), studySpec(grid.Mesh2D4, 4))
	if err != nil {
		t.Fatal(err)
	}
	aAgg, aRec := marshalled(t, a)
	bAgg, bRec := marshalled(t, b)
	if aAgg != bAgg || aRec != bRec {
		t.Error("same seed did not reproduce the study")
	}
	other := studySpec(grid.Mesh2D4, 4)
	other.Seed = 4321
	c, err := Run(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	cAgg, _ := marshalled(t, c)
	if cAgg == aAgg {
		t.Error("different seeds produced identical stochastic studies")
	}
}

// oneShotStudy is the replication path the session path replaced, kept
// as the oracle: every replication is a cold sim.Run whose Down list is
// the base list plus the sampled failures, aggregated in the same
// (point, replication) order as Run.
func oneShotStudy(spec Spec) (*Report, error) {
	rep := &Report{
		Topology: spec.Topology.Kind().String(), Nodes: spec.Topology.NumNodes(),
		Protocol: spec.Protocol.Name(), Source: spec.Source.String(),
		Seed: spec.Seed, Replications: spec.Replications,
	}
	for _, fail := range CanonicalRates(spec.FailureRates) {
		for _, loss := range CanonicalRates(spec.LossRates) {
			var reach, delay, energy, tx, repairs stats.Running
			p := Point{LossRate: loss, FailureRate: fail, Replications: spec.Replications}
			for r := 0; r < spec.Replications; r++ {
				seed := sim.ReplicationSeed(spec.Seed, r)
				cfg := spec.Config
				if fail > 0 {
					sampled := sim.SampleFailures(spec.Topology, spec.Source, seed, fail)
					cfg.Down = append(append([]grid.Coord(nil), spec.Config.Down...), sampled...)
				}
				cfg.Channel = sim.NewBernoulliLoss(seed, loss)
				res, err := sim.Run(spec.Topology, spec.Protocol, spec.Source, cfg)
				if err != nil {
					return nil, fmt.Errorf("mc: replication %d at loss=%g failure=%g: %w", r, loss, fail, err)
				}
				rec := Record{
					LossRate: loss, FailureRate: fail, Rep: r, Seed: seed,
					Reached: res.Reached, Total: res.Total, Down: res.Down,
					Reachability: res.Reachability(), Delay: res.Delay,
					Tx: res.Tx, Rx: res.Rx, Lost: res.Lost,
					Collisions: res.Collisions, Repairs: res.Repairs,
					EnergyJ: res.EnergyJ,
				}
				rep.Records = append(rep.Records, rec)
				reach.Add(rec.Reachability)
				delay.Add(float64(rec.Delay))
				energy.Add(rec.EnergyJ)
				tx.Add(float64(rec.Tx))
				repairs.Add(float64(rec.Repairs))
				if rec.Reached == rec.Total {
					p.FullyReached++
				}
			}
			p.Reachability, p.Delay, p.EnergyJ = metric(&reach), metric(&delay), metric(&energy)
			p.Tx, p.Repairs = metric(&tx), metric(&repairs)
			rep.Points = append(rep.Points, p)
		}
	}
	return rep, nil
}

// A study whose base config carries a Down list, cut links and a Trace
// func runs on worker sessions that hold the base graph across
// replications and restore it after each. Its report, records and —
// with one worker, so tasks run in order — trace stream must equal the
// one-shot oracle's, and at every worker count the bytes must not move.
func TestSessionStudyMatchesOneShot(t *testing.T) {
	for _, k := range grid.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			topo := grid.New(k, 8, 6, 2)
			src := center(topo)
			links := sim.LinksOf(topo)
			spec := Spec{
				Topology: topo, Protocol: core.NewFlooding(), Source: src,
				Config: sim.Config{
					// Node 0's failure draw may also fire: the overlap
					// must stay down through the restore.
					Down:      []grid.Coord{topo.At(0), topo.At(5), topo.At(topo.NumNodes() - 3)},
					DownLinks: []sim.Link{{A: topo.At(int(links[9].A)), B: topo.At(int(links[9].B))}, {A: topo.At(1), B: topo.At(topo.NumNodes() - 1)}},
				},
				Seed:         77,
				Replications: 9,
				LossRates:    []float64{0, 0.15},
				FailureRates: []float64{0, 0.1, 0.3},
			}
			var want []sim.Event
			spec.Config.Trace = func(ev sim.Event) { want = append(want, ev) }
			oracle, err := oneShotStudy(spec)
			if err != nil {
				t.Fatal(err)
			}
			wantAgg, wantRec := marshalled(t, oracle)

			var got []sim.Event
			spec.Config.Trace = func(ev sim.Event) { got = append(got, ev) }
			spec.Workers = 1
			rep, err := Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if agg, rec := marshalled(t, rep); agg != wantAgg || rec != wantRec {
				t.Fatalf("session study differs from one-shot replications:\n got %s\nwant %s", agg, wantAgg)
			}
			if len(got) != len(want) {
				t.Fatalf("trace has %d events, one-shot %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trace event %d: %+v, one-shot %+v", i, got[i], want[i])
				}
			}

			var events atomic.Int64
			spec.Config.Trace = func(sim.Event) { events.Add(1) }
			spec.Workers = 4
			rep, err = Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if agg, rec := marshalled(t, rep); agg != wantAgg || rec != wantRec {
				t.Error("4-worker session study differs from one-shot replications")
			}
			if events.Load() != int64(len(want)) {
				t.Errorf("4-worker study traced %d events, one-shot %d", events.Load(), len(want))
			}
		})
	}
}

// A base list no run can honour fails the session study with the
// error the one-shot path gives, in the order sim.Run checks.
func TestSessionStudyErrorsMatchOneShot(t *testing.T) {
	topo := grid.NewMesh2D4(6, 6)
	src := center(topo)
	outside := grid.C2(9, 9)
	for name, cfg := range map[string]sim.Config{
		"down outside":         {Down: []grid.Coord{outside}},
		"source down":          {Down: []grid.Coord{src}},
		"link outside":         {DownLinks: []sim.Link{{A: src, B: outside}}},
		"source down and link": {Down: []grid.Coord{src}, DownLinks: []sim.Link{{A: src, B: outside}}},
	} {
		spec := Spec{
			Topology: topo, Protocol: core.ForTopology(grid.Mesh2D4), Source: src, Config: cfg,
			Seed: 1, Replications: 3, FailureRates: []float64{0.2}, Workers: 2,
		}
		_, want := oneShotStudy(spec)
		_, got := Run(context.Background(), spec)
		if want == nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: session study error %v, one-shot %v", name, got, want)
		}
	}
}
