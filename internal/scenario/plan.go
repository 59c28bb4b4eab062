package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"wsnbcast/internal/analysis"
	"wsnbcast/internal/converge"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/life"
	"wsnbcast/internal/mc"
	"wsnbcast/internal/pipeline"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/store"
	"wsnbcast/internal/sweep"
)

// A plan is the one execution of a request, shared by the synchronous
// endpoints, the CLIs and the job subsystem: how a document decomposes
// into independent points, how one point executes, and how the point
// values merge back into the report.
//
// The decomposition is a pure function of the canonical document, so
// every instance sharing a store directory enumerates the same points
// in the same order; each point's value is a pure function of the
// document and the point index (simulation results are deterministic,
// and Monte Carlo and lifetime seeds depend only on the replication
// index, never on the grid shape or the worker layout); and Merge
// consumes values strictly in point-index order. Worker counts,
// work-stealing, retries and process restarts can therefore reorder
// and re-execute points freely without shifting a single output byte.
// A job's payloads are Encode's bytes of the same values, and float64
// survives the JSON round trip exactly, so a job merges to the
// synchronous body; TestPlanGolden checks that round trip per shape.

// Request kinds: one per synchronous endpoint (POST /v1/<kind>) and job
// kind.
const (
	KindRun      = "run"
	KindScenario = "scenario"
	KindSweep    = "sweep"
	KindLifetime = "lifetime"
)

type shape int

const (
	// shapeWhole: one point carrying the whole report (single
	// broadcasts, pipeline/budget/convergecast documents, and the
	// summary-only sweep of a document without sources).
	shapeWhole shape = iota
	// shapeSweep: one RunReport point per source node, merged with the
	// paper's summary statistics.
	shapeSweep
	// shapeReliability: point 0 is the deterministic broadcast, points
	// 1..G are mc.Point grid points in failure-major, loss-minor order.
	shapeReliability
	// shapeLifetime: one life.CellReport point per (strategy, churn
	// rate, replication) cell, in life's strategy-major cell order.
	// Points checkpoint their round loop, so a killed process resumes a
	// half-run cell instead of restarting it.
	shapeLifetime
)

// Plan is a compiled request: the document is validated and its
// topology, protocol and config are built once, then shared by every
// point. A Plan is immutable and safe for concurrent use.
type Plan struct {
	kind  string
	sc    Scenario
	shape shape
	n     int
	topo  grid.Topology
	proto sim.Protocol
	cfg   sim.Config
	life  life.Spec
}

// NewPlan canonicalizes and compiles sc for the request kind.
func NewPlan(kind string, sc Scenario) (*Plan, error) {
	switch kind {
	case KindRun, KindScenario, KindSweep, KindLifetime:
	default:
		return nil, fmt.Errorf("scenario: unknown kind %q (want run, scenario, sweep or lifetime)", kind)
	}
	p := &Plan{kind: kind, sc: sc.Canonical()}
	var err error
	if p.topo, p.proto, p.cfg, err = p.sc.Compile(); err != nil {
		return nil, err
	}
	switch {
	case kind == KindLifetime:
		if p.life, err = p.lifeSpec(); err != nil {
			return nil, err
		}
		p.shape, p.n = shapeLifetime, p.life.NumCells()
	case p.sc.Lifetime != nil:
		return nil, fmt.Errorf("scenario: a lifetime study runs under kind %q, not %q", KindLifetime, kind)
	case kind == KindSweep:
		p.shape, p.n = shapeSweep, p.topo.NumNodes()
	case p.sc.Reliability != nil:
		// The rate axes are canonical: sorted, deduplicated, {0} when empty.
		rel := p.sc.Reliability
		p.shape, p.n = shapeReliability, 1+len(rel.LossRates)*len(rel.FailureRates)
	default:
		p.shape, p.n = shapeWhole, 1
	}
	return p, nil
}

// lifeSpec builds the internal/life study spec of the lifetime section,
// whose defaults Canonical has already made explicit.
func (p *Plan) lifeSpec() (life.Spec, error) {
	l := p.sc.Lifetime
	if l == nil {
		return life.Spec{}, fmt.Errorf("scenario: no lifetime section")
	}
	sts := make([]life.Strategy, len(l.Strategies))
	for i, name := range l.Strategies {
		st, err := life.ParseStrategy(name)
		if err != nil {
			return life.Spec{}, fmt.Errorf("scenario: %w", err)
		}
		sts[i] = st
	}
	return life.Spec{
		Topology: p.topo, Protocol: p.proto, Source: p.sc.Sources[0].Coord(), Config: p.cfg,
		BudgetJ: l.BudgetJ, MaxRounds: l.MaxRounds, Seed: l.Seed, Replications: l.Replications,
		Strategies: sts, PFail: l.ChurnRates, PNew: l.PNew, BurnInRounds: l.BurnInRounds,
	}, nil
}

// Kind returns the request kind the plan was built for.
func (p *Plan) Kind() string { return p.kind }

// Scenario returns the canonical document the plan was built from.
func (p *Plan) Scenario() Scenario { return p.sc }

// Points returns the number of independent points.
func (p *Plan) Points() int { return p.n }

// RoundBound returns a lifetime point's worst-case round count, burn-in
// steps included (they run no broadcast but walk the whole link table),
// saturating at math.MaxInt; it is 0 for the other shapes. Admission
// control sizes lifetime studies with Points() x RoundBound().
func (p *Plan) RoundBound() int {
	if p.shape != shapeLifetime {
		return 0
	}
	if p.life.BurnInRounds > math.MaxInt-p.life.MaxRounds {
		return math.MaxInt
	}
	return p.life.MaxRounds + p.life.BurnInRounds
}

// Exec computes point i: a Report (whole shape), a RunReport (sweep
// points, reliability point 0), an mc.Point or a life.CellReport. A
// lifetime point checkpoints its round loop through ck when non-nil,
// every `every` rounds (<= 0: life.DefaultCheckpointEvery); the cadence
// never changes the value, only how much work a killed process repeats.
func (p *Plan) Exec(ctx context.Context, i int, ck life.Checkpointer, every int) (any, error) {
	return p.exec(ctx, i, ck, every, 0)
}

// exec is Exec with the size of the pool inside one point (<= 0:
// GOMAXPROCS): a reliability point's replications, or the whole shape's
// all-sources sweep. The size never changes the value.
func (p *Plan) exec(ctx context.Context, i int, ck life.Checkpointer, every, inner int) (any, error) {
	if i < 0 || i >= p.n {
		return nil, fmt.Errorf("scenario: point %d outside [0, %d)", i, p.n)
	}
	switch p.shape {
	case shapeSweep:
		return p.broadcast(p.topo.At(i))
	case shapeReliability:
		if i == 0 {
			return p.broadcast(p.sc.Sources[0].Coord())
		}
		rel, g := p.sc.Reliability, i-1
		return mc.RunPoint(ctx, mc.Spec{
			Topology: p.topo, Protocol: p.proto, Source: p.sc.Sources[0].Coord(), Config: p.cfg,
			Seed: rel.Seed, Replications: rel.Replications, Workers: inner,
		}, rel.LossRates[g%len(rel.LossRates)], rel.FailureRates[g/len(rel.LossRates)])
	case shapeLifetime:
		spec := p.life
		spec.CheckpointEvery = every
		return life.RunCell(ctx, spec, i, ck)
	}
	return p.whole(ctx, inner)
}

// broadcast runs one deterministic broadcast from src.
func (p *Plan) broadcast(src grid.Coord) (RunReport, error) {
	r, err := sim.Run(p.topo, p.proto, src, p.cfg)
	if err != nil {
		return RunReport{}, err
	}
	return NewRunReport(Point{X: src.X, Y: src.Y, Z: src.Z}, r), nil
}

// whole runs a whole-shape document, checking ctx between broadcasts
// and between phases; a document without sources runs its summary
// sweep on a pool of workers.
func (p *Plan) whole(ctx context.Context, workers int) (Report, error) {
	rep, s := p.header(), p.sc
	if len(s.Sources) == 0 {
		return p.summarySweep(ctx, rep, workers)
	}
	for _, src := range s.Sources {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		r, err := p.broadcast(src.Coord())
		if err != nil {
			return Report{}, err
		}
		rep.Runs = append(rep.Runs, r)
	}
	first := s.Sources[0].Coord()
	if s.Pipeline != nil {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		interval := s.Pipeline.Interval
		if interval <= 0 {
			var err error
			if interval, err = pipeline.SafeInterval(p.topo, p.proto, first, 4, 8*p.topo.NumNodes()); err != nil {
				return Report{}, err
			}
		}
		snap, _, err := sim.Snapshot(p.topo, p.proto, first, p.cfg)
		if err != nil {
			return Report{}, err
		}
		pr, err := pipeline.Run(p.topo, snap, first, pipeline.Config{Packets: s.Pipeline.Packets, Interval: interval})
		if err != nil {
			return Report{}, err
		}
		rep.PipelineInterval, rep.PipelineSlots, rep.PipelineDelivered = interval, pr.Slots, pr.Delivered
	}
	if s.BudgetJ > 0 {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		lt, err := analysis.Lifetime(p.topo, p.proto, first, p.cfg, s.BudgetJ)
		if err != nil {
			return Report{}, err
		}
		rep.LifetimeRounds, rep.MaxNodeEnergyJ = lt.RoundsOnBudget, lt.MaxNodeEnergyJ
	}
	if s.Convergecast {
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
		cc, err := converge.Run(p.topo, first, converge.Config{})
		if err != nil {
			return Report{}, err
		}
		rep.ConvergeEnergyJ, rep.ConvergeSlots = cc.EnergyJ, cc.Slots
	}
	return rep, nil
}

// summarySweep broadcasts from every node on a pool of workers,
// keeping one RunReport per source, and folds them into rep's best and
// worst energy and max delay. A cancelled ctx stops the pool with at
// most one broadcast per worker in flight. Every broadcast must reach
// the whole mesh; failures are named in source order, in the words of
// the analysis package's sweeps.
func (p *Plan) summarySweep(ctx context.Context, rep Report, workers int) (Report, error) {
	runs := make([]RunReport, p.topo.NumNodes())
	fns := make([]func() error, len(runs))
	for i := range fns {
		fns[i] = func() (err error) {
			runs[i], err = p.broadcast(p.topo.At(i))
			return err
		}
	}
	errs, err := sweep.New(workers).RunFuncs(ctx, fns)
	if err != nil {
		return Report{}, err
	}
	for i, err := range errs {
		if err != nil {
			return Report{}, fmt.Errorf("analysis: source %s: %w", p.topo.At(i), err)
		}
	}
	for i, r := range runs {
		if r.Reached != r.Total {
			return Report{}, fmt.Errorf("analysis: source %s reached only %d/%d nodes", p.topo.At(i), r.Reached, r.Total)
		}
	}
	rep.Runs = runs
	SweepSummary(&rep)
	rep.Runs = nil
	return rep, nil
}

// header is every report's identification: the document name, the
// canonical (lowercase) topology kind and the protocol's name.
func (p *Plan) header() Report {
	return Report{Name: p.sc.Name, Topology: p.sc.Topology.Kind, Protocol: p.proto.Name()}
}

// Merge folds the index-ordered point values into the report.
func (p *Plan) Merge(parts []any) (Report, error) {
	if len(parts) != p.n {
		return Report{}, fmt.Errorf("scenario: merge got %d points, want %d", len(parts), p.n)
	}
	if p.shape == shapeWhole {
		reps, err := collect[Report](parts)
		if err != nil {
			return Report{}, err
		}
		return reps[0], nil
	}
	rep := p.header()
	var err error
	switch p.shape {
	case shapeSweep:
		if rep.Runs, err = collect[RunReport](parts); err != nil {
			return Report{}, err
		}
		SweepSummary(&rep)
	case shapeReliability:
		if rep.Runs, err = collect[RunReport](parts[:1]); err != nil {
			return Report{}, err
		}
		if rep.Reliability, err = collect[mc.Point](parts[1:]); err != nil {
			return Report{}, err
		}
		rep.ReliabilitySeed = p.sc.Reliability.Seed
	case shapeLifetime:
		if rep.Lifetime, err = collect[life.CellReport](parts); err != nil {
			return Report{}, err
		}
		rep.LifetimeSeed = p.life.Seed
	}
	return rep, nil
}

func collect[T any](parts []any) ([]T, error) {
	out := make([]T, len(parts))
	for i, v := range parts {
		t, ok := v.(T)
		if !ok {
			return nil, fmt.Errorf("scenario: merge got a %T point, want %T", v, t)
		}
		out[i] = t
	}
	return out, nil
}

// Encode renders a point's value as its job payload: compact JSON, or
// for the whole shape the response body itself.
func (p *Plan) Encode(v any) ([]byte, error) {
	if p.shape == shapeWhole {
		return store.EncodeBody(v)
	}
	return json.Marshal(v)
}

// Decode parses point i's payload back into the value Exec returned.
func (p *Plan) Decode(i int, raw []byte) (any, error) {
	switch {
	case p.shape == shapeWhole:
		return decode[Report](raw)
	case p.shape == shapeLifetime:
		return decode[life.CellReport](raw)
	case p.shape == shapeReliability && i > 0:
		return decode[mc.Point](raw)
	}
	return decode[RunReport](raw)
}

func decode[T any](raw []byte) (any, error) {
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("scenario: payload: %w", err)
	}
	return v, nil
}

// Run executes every point on a pool of workers (<= 0: GOMAXPROCS) and
// merges the values in memory; g, when non-nil, receives pending-point
// deltas. A cancelled ctx stops the pool between points.
//
// The pool is the request's whole concurrency budget: the points in
// flight share it, each running its inner pool (a reliability point's
// replications, the whole shape's summary sweep) on
// workers / min(points, workers) workers, so one request never holds
// more than about `workers` simulations at once.
func (p *Plan) Run(ctx context.Context, workers int, g sweep.Gauge) (Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inner := max(1, workers/min(p.n, workers))
	parts := make([]any, p.n)
	fns := make([]func() error, p.n)
	for i := range fns {
		fns[i] = func() (err error) {
			parts[i], err = p.exec(ctx, i, nil, 0, inner)
			return err
		}
	}
	eng := sweep.New(workers)
	if g != nil {
		eng = eng.WithGauge(g)
	}
	errs, err := eng.RunFuncs(ctx, fns)
	if err != nil {
		return Report{}, err
	}
	for i, err := range errs {
		if err != nil {
			return Report{}, fmt.Errorf("scenario: %s point %d: %w", p.kind, i, err)
		}
	}
	return p.Merge(parts)
}
