package jobs

import (
	"context"
	"encoding/json"
	"fmt"

	"wsnbcast/internal/life"
	"wsnbcast/internal/mc"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/store"
)

// This file is the determinism core of the job subsystem: how a
// submitted scenario decomposes into independent grid points, how one
// point executes, and how the per-point payloads merge back into the
// exact bytes the synchronous serving path would have produced.
//
// The decomposition is a pure function of the canonical scenario, so
// every instance sharing a store directory enumerates the same points
// in the same order; each point's payload is a pure function of the
// scenario and the point index (simulation results are deterministic,
// and Monte Carlo replication seeds depend only on the replication
// index — never on the grid shape or the worker layout); and the merge
// consumes payloads strictly in point-index order. Work-stealing,
// retries, worker counts and process restarts can therefore reorder
// and re-execute computation freely without being able to shift a
// single output byte — the distributed extension of the sweep engine's
// parallel==serial contract, proven by the differential tests in this
// package and in internal/service.

// Job kinds mirror the synchronous endpoints: a job's merged result is
// byte-identical to the corresponding POST /v1/<kind> response body,
// and is stored under the same content-addressed key.
const (
	KindRun      = "run"
	KindScenario = "scenario"
	KindSweep    = "sweep"
	KindLifetime = "lifetime"
)

// ValidKind reports whether kind names a job shape.
func ValidKind(kind string) bool {
	return kind == KindRun || kind == KindScenario || kind == KindSweep || kind == KindLifetime
}

// plan is a job's compiled decomposition.
type plan struct {
	total int
	// shape selects the executor/merger triple.
	shape shape
	// loss/fail are the canonical reliability grid axes (reliability
	// shape only).
	loss, fail []float64
}

type shape int

const (
	// shapeWhole: one point carrying the full rendered body (single
	// broadcasts, pipeline/budget/convergecast scenarios).
	shapeWhole shape = iota
	// shapeSweep: one point per source node; payloads are RunReport
	// rows merged with the paper's summary statistics.
	shapeSweep
	// shapeReliability: point 0 is the deterministic broadcast, points
	// 1..G are Monte Carlo (failure, loss) grid points in failure-major
	// loss-minor order.
	shapeReliability
	// shapeLifetime: one point per (strategy, churn rate, replication)
	// cell of a lifetime study, in life's strategy-major cell order.
	// Points checkpoint their round loop through the store, so a killed
	// process resumes a half-run cell instead of restarting it.
	shapeLifetime
)

// compilePlan validates the scenario for the kind and decomposes it
// into points. The scenario must already be canonical.
func compilePlan(kind string, sc scenario.Scenario) (plan, error) {
	if !ValidKind(kind) {
		return plan{}, fmt.Errorf("jobs: unknown kind %q (want run, scenario, sweep or lifetime)", kind)
	}
	topo, _, _, err := sc.Compile()
	if err != nil {
		return plan{}, err
	}
	if kind == KindLifetime {
		cells, err := sc.LifetimeCellCount()
		if err != nil {
			return plan{}, err
		}
		return plan{total: cells, shape: shapeLifetime}, nil
	}
	if sc.Lifetime != nil {
		return plan{}, fmt.Errorf("jobs: a lifetime study runs under kind %q, not %q", KindLifetime, kind)
	}
	if kind == KindSweep {
		return plan{total: topo.NumNodes(), shape: shapeSweep}, nil
	}
	if rel := sc.Reliability; rel != nil {
		loss := mc.CanonicalRates(rel.LossRates)
		fail := mc.CanonicalRates(rel.FailureRates)
		return plan{
			total: 1 + len(loss)*len(fail),
			shape: shapeReliability,
			loss:  loss, fail: fail,
		}, nil
	}
	return plan{total: 1, shape: shapeWhole}, nil
}

// pointKey is the content-addressed store key of one point's payload,
// derived from the canonical scenario plus the point index so finished
// points survive restarts and are shared across instances.
func pointKey(kind string, sc scenario.Scenario, index int) (string, error) {
	return store.Key(fmt.Sprintf("jobpoint/%s/%d", kind, index), sc)
}

// resultKey is the store key of the merged job result — the same key
// the synchronous endpoint uses for this document, so a completed job
// is an L2 cache hit for later synchronous requests and vice versa.
func resultKey(kind string, sc scenario.Scenario) (string, error) {
	return store.Key(kind, sc)
}

// checkpointKey is the store key of a lifetime point's mid-run round
// state. It is derived from the canonical scenario plus the point
// index — like pointKey but in its own namespace — so a restarted
// process finds the checkpoint its predecessor saved. The object is
// transient: it is deleted once the point's payload is durable.
func checkpointKey(kind string, sc scenario.Scenario, index int) (string, error) {
	return store.Key(fmt.Sprintf("lifeckpt/%s/%d", kind, index), sc)
}

// executePoint computes one point's payload. Payloads are compact JSON
// (RunReport, mc.Point, life.CellReport, or the full rendered body for
// shapeWhole). ck and ckptEvery only concern shapeLifetime points,
// whose round loop checkpoints through ck when non-nil.
func executePoint(ctx context.Context, kind string, sc scenario.Scenario, pl plan, index int, ck life.Checkpointer, ckptEvery int) ([]byte, error) {
	switch pl.shape {
	case shapeWhole:
		rep, err := sc.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		return store.EncodeBody(rep)

	case shapeSweep:
		topo, p, cfg, err := sc.Compile()
		if err != nil {
			return nil, err
		}
		if index < 0 || index >= topo.NumNodes() {
			return nil, fmt.Errorf("jobs: sweep point %d outside [0, %d)", index, topo.NumNodes())
		}
		src := topo.At(index)
		r, err := sim.Run(topo, p, src, cfg)
		if err != nil {
			return nil, err
		}
		return json.Marshal(scenario.NewRunReport(scenario.Point{X: src.X, Y: src.Y, Z: src.Z}, r))

	case shapeReliability:
		topo, p, cfg, err := sc.Compile()
		if err != nil {
			return nil, err
		}
		src := sc.Sources[0]
		if index == 0 {
			// The deterministic broadcast that precedes the study in
			// RunContext's report.
			r, err := sim.Run(topo, p, src.Coord(), cfg)
			if err != nil {
				return nil, err
			}
			return json.Marshal(scenario.NewRunReport(src, r))
		}
		g := index - 1
		if g >= len(pl.loss)*len(pl.fail) {
			return nil, fmt.Errorf("jobs: reliability point %d outside the %dx%d grid", index, len(pl.fail), len(pl.loss))
		}
		fail := pl.fail[g/len(pl.loss)]
		loss := pl.loss[g%len(pl.loss)]
		pt, err := mc.RunPoint(ctx, mc.Spec{
			Topology: topo, Protocol: p, Source: src.Coord(), Config: cfg,
			Seed:         sc.Reliability.Seed,
			Replications: sc.Reliability.Replications,
		}, loss, fail)
		if err != nil {
			return nil, err
		}
		return json.Marshal(pt)

	case shapeLifetime:
		if index < 0 || index >= pl.total {
			return nil, fmt.Errorf("jobs: lifetime point %d outside [0, %d)", index, pl.total)
		}
		cell, err := sc.LifetimeCell(ctx, index, ck, ckptEvery)
		if err != nil {
			return nil, err
		}
		return json.Marshal(cell)
	}
	return nil, fmt.Errorf("jobs: unknown shape %d", pl.shape)
}

// merge folds the complete, index-ordered payload set into the final
// response body, byte-identical to the synchronous path.
func merge(kind string, sc scenario.Scenario, pl plan, payloads [][]byte) ([]byte, error) {
	if len(payloads) != pl.total {
		return nil, fmt.Errorf("jobs: merge got %d payloads, want %d", len(payloads), pl.total)
	}
	for i, p := range payloads {
		if p == nil {
			return nil, fmt.Errorf("jobs: merge missing payload %d", i)
		}
	}
	switch pl.shape {
	case shapeWhole:
		return payloads[0], nil

	case shapeSweep:
		_, p, _, err := sc.Compile()
		if err != nil {
			return nil, err
		}
		rep := scenario.Report{Name: sc.Name, Topology: sc.Topology.Kind, Protocol: p.Name()}
		rep.Runs = make([]scenario.RunReport, len(payloads))
		for i, raw := range payloads {
			if err := json.Unmarshal(raw, &rep.Runs[i]); err != nil {
				return nil, fmt.Errorf("jobs: sweep payload %d: %w", i, err)
			}
		}
		scenario.SweepSummary(&rep)
		return store.EncodeBody(rep)

	case shapeReliability:
		_, p, _, err := sc.Compile()
		if err != nil {
			return nil, err
		}
		rep := scenario.Report{Name: sc.Name, Topology: sc.Topology.Kind, Protocol: p.Name()}
		var run scenario.RunReport
		if err := json.Unmarshal(payloads[0], &run); err != nil {
			return nil, fmt.Errorf("jobs: broadcast payload: %w", err)
		}
		rep.Runs = []scenario.RunReport{run}
		rep.Reliability = make([]mc.Point, len(payloads)-1)
		for i, raw := range payloads[1:] {
			if err := json.Unmarshal(raw, &rep.Reliability[i]); err != nil {
				return nil, fmt.Errorf("jobs: reliability payload %d: %w", i+1, err)
			}
		}
		rep.ReliabilitySeed = sc.Reliability.Seed
		return store.EncodeBody(rep)

	case shapeLifetime:
		cells := make([]life.CellReport, len(payloads))
		for i, raw := range payloads {
			if err := json.Unmarshal(raw, &cells[i]); err != nil {
				return nil, fmt.Errorf("jobs: lifetime payload %d: %w", i, err)
			}
		}
		rep, err := sc.LifetimeMerge(cells)
		if err != nil {
			return nil, err
		}
		return store.EncodeBody(rep)
	}
	return nil, fmt.Errorf("jobs: unknown shape %d", pl.shape)
}
