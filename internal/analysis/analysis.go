// Package analysis runs all-sources sweeps of a broadcast protocol on
// the sweep package's worker pool and aggregates them into the paper's
// Section 4 statistics: the best case, the worst case and the maximum
// delay over all source positions (Tables 3, 4 and 5), plus
// distribution diagnostics the paper discusses qualitatively (center
// sources perform better than corner sources; 2D-3 and 2D-8 are
// insensitive to the source location).
package analysis

import (
	"context"
	"fmt"
	"math"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/stats"
	"wsnbcast/internal/sweep"
)

// Summary aggregates one full sweep: the protocol run once from every
// source position of the topology.
type Summary struct {
	Kind     grid.Kind
	Protocol string
	Runs     int

	// Best is the run with the lowest total energy, Worst the highest
	// (the paper's best/worst cases over source positions).
	Best, Worst Case

	// MaxDelay is the largest broadcast delay over all sources
	// (Table 5).
	MaxDelay int
	// MaxDelaySource is a source attaining MaxDelay.
	MaxDelaySource grid.Coord

	// MeanEnergyJ and EnergySpread describe the sensitivity to the
	// source location ((worst-best)/best).
	MeanEnergyJ float64
	// EnergyStats, TxStats and DelayStats carry the full per-source
	// distributions (mean, standard deviation, extremes).
	EnergyStats stats.Running
	TxStats     stats.Running
	DelayStats  stats.Running

	// TotalRepairs counts scheduler-planned retransmissions across the
	// sweep; MaxRepairs the worst single run.
	TotalRepairs int
	MaxRepairs   int

	// TotalCollisions across the sweep.
	TotalCollisions int
}

// Case is one run's paper-style row: Tx, Rx and power.
type Case struct {
	Source  grid.Coord
	Tx, Rx  int
	EnergyJ float64
	Delay   int
}

func caseOf(r *sim.Result) Case {
	return Case{Source: r.Source, Tx: r.Tx, Rx: r.Rx, EnergyJ: r.EnergyJ, Delay: r.Delay}
}

// EnergySpread returns (worst - best) / best: the paper's
// source-location sensitivity.
func (s Summary) EnergySpread() float64 {
	if s.Best.EnergyJ == 0 {
		return math.Inf(1)
	}
	return (s.Worst.EnergyJ - s.Best.EnergyJ) / s.Best.EnergyJ
}

// Sweep runs the protocol from every source of the topology on a
// GOMAXPROCS worker pool and aggregates the results. Every run must
// achieve 100% reachability or Sweep returns an error naming the
// failing source.
func Sweep(t grid.Topology, p sim.Protocol, cfg sim.Config) (Summary, error) {
	return SweepWorkers(t, p, cfg, 0)
}

// SweepWorkers is Sweep on a pool of the given size (<= 0 means
// GOMAXPROCS). Each task broadcasts from one source and keeps only that
// run's scalars in its own slot, dropping the Result, so the sweep
// holds O(N) memory rather than N whole Results; the slots fold in
// source order, so the Summary is identical for every pool size.
func SweepWorkers(t grid.Topology, p sim.Protocol, cfg sim.Config, workers int) (Summary, error) {
	runs := make([]sourceRun, t.NumNodes())
	fns := make([]func() error, len(runs))
	for i := range fns {
		fns[i] = func() error {
			r, err := sim.Run(t, p, t.At(i), cfg)
			if err == nil {
				runs[i] = runOf(r)
			}
			return err
		}
	}
	errs, _ := sweep.New(workers).RunFuncs(context.Background(), fns)
	for i, err := range errs {
		if err != nil {
			return Summary{Kind: t.Kind(), Protocol: p.Name()},
				fmt.Errorf("analysis: source %s: %w", t.At(i), err)
		}
	}
	return summarize(t, p, runs)
}

// sourceRun is what a Summary reads of one source's Result.
type sourceRun struct {
	Case
	repairs, collisions int
	reached, total      int
}

func runOf(r *sim.Result) sourceRun {
	return sourceRun{Case: caseOf(r), repairs: r.Repairs, collisions: r.Collisions, reached: r.Reached, total: r.Total}
}

// Summarize aggregates per-source results into a Summary. The results
// must be in the sweep's source order: ties for the best/worst case
// keep the earliest source, so the order is part of the deterministic
// output contract.
func Summarize(t grid.Topology, p sim.Protocol, results []*sim.Result) (Summary, error) {
	runs := make([]sourceRun, len(results))
	for i, r := range results {
		runs[i] = runOf(r)
	}
	return summarize(t, p, runs)
}

// summarize folds the runs into a Summary in slice order.
func summarize(t grid.Topology, p sim.Protocol, runs []sourceRun) (Summary, error) {
	s := Summary{Kind: t.Kind(), Protocol: p.Name()}
	sumEnergy := 0.0
	for _, r := range runs {
		if r.reached != r.total {
			return s, fmt.Errorf("analysis: source %s reached only %d/%d nodes",
				r.Source, r.reached, r.total)
		}
		c := r.Case
		s.EnergyStats.Add(c.EnergyJ)
		s.TxStats.Add(float64(c.Tx))
		s.DelayStats.Add(float64(c.Delay))
		if s.Runs == 0 || c.EnergyJ < s.Best.EnergyJ {
			s.Best = c
		}
		if s.Runs == 0 || c.EnergyJ > s.Worst.EnergyJ {
			s.Worst = c
		}
		if c.Delay > s.MaxDelay || s.Runs == 0 {
			s.MaxDelay = c.Delay
			s.MaxDelaySource = c.Source
		}
		s.Runs++
		sumEnergy += c.EnergyJ
		s.TotalRepairs += r.repairs
		if r.repairs > s.MaxRepairs {
			s.MaxRepairs = r.repairs
		}
		s.TotalCollisions += r.collisions
	}
	if s.Runs > 0 {
		s.MeanEnergyJ = sumEnergy / float64(s.Runs)
	}
	return s, nil
}

// CornersAndCenter returns a small representative source set: the
// mesh corners plus the central node — the positions the paper's
// best/worst discussion revolves around.
func CornersAndCenter(t grid.Topology) []grid.Coord {
	m, n, l := t.Size()
	set := map[grid.Coord]bool{}
	for _, x := range []int{1, m} {
		for _, y := range []int{1, n} {
			for _, z := range []int{1, l} {
				set[grid.C3(x, y, z)] = true
			}
		}
	}
	set[grid.C3((m+1)/2, (n+1)/2, (l+1)/2)] = true
	out := make([]grid.Coord, 0, len(set))
	for i := 0; i < t.NumNodes(); i++ {
		if set[t.At(i)] {
			out = append(out, t.At(i))
		}
	}
	return out
}
