// Package scenario runs declaratively described experiments: a JSON
// document names a topology, a protocol, sources and options, and the
// runner produces a JSON report. This is the integration surface for
// scripting studies on top of the simulator without writing Go.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/life"
	"wsnbcast/internal/mc"
	"wsnbcast/internal/radio"
	"wsnbcast/internal/sim"
)

// Point is a JSON-friendly coordinate (Z defaults to 1). Coord
// converts it to the simulator's grid coordinate.
type Point struct {
	X int `json:"x"`
	Y int `json:"y"`
	Z int `json:"z,omitempty"`
}

func (p Point) Coord() grid.Coord {
	z := p.Z
	if z == 0 {
		z = 1
	}
	return grid.C3(p.X, p.Y, z)
}

// TopologySpec selects and sizes the mesh.
type TopologySpec struct {
	// Kind is "2d3", "2d4", "2d8", "3d6" or "irregular".
	Kind string `json:"kind"`
	M    int    `json:"m"`
	N    int    `json:"n"`
	L    int    `json:"l,omitempty"`
	// Irregular-only parameters.
	Jitter float64 `json:"jitter,omitempty"`
	Radius float64 `json:"radius,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
}

// PipelineSpec requests a multi-packet run.
type PipelineSpec struct {
	Packets  int `json:"packets"`
	Interval int `json:"interval"` // 0 = find the safe interval
}

// ReliabilitySpec requests a Monte Carlo reliability study
// (internal/mc): seeded replications of the broadcast at every point
// of the loss-rate x failure-rate grid, aggregated into means with
// 95% confidence intervals. The scenario must name exactly one source.
type ReliabilitySpec struct {
	// Seed is the study seed; identical seeds reproduce the study
	// byte-for-byte at any worker count.
	Seed uint64 `json:"seed"`
	// Replications per grid point (>= 1).
	Replications int `json:"replications"`
	// LossRates and FailureRates span the grid; empty means {0}.
	LossRates    []float64 `json:"loss_rates,omitempty"`
	FailureRates []float64 `json:"failure_rates,omitempty"`
}

// LifetimeSpec requests a multi-round lifetime study (internal/life):
// repeated broadcasts from the (single) source with per-node battery
// depletion, death feedback, per-round link churn and source rotation,
// one cell per (strategy, churn rate, replication). Zero BudgetJ,
// MaxRounds, Replications and empty Strategies take the canonical
// defaults (0.05 J, 4096 rounds, 1 replication, "static").
type LifetimeSpec struct {
	// BudgetJ is the initial per-node battery in Joules.
	BudgetJ float64 `json:"budget_j"`
	// MaxRounds bounds each cell's round loop.
	MaxRounds int `json:"max_rounds"`
	// Seed is the study seed; identical seeds reproduce the study
	// byte-for-byte at any worker count.
	Seed uint64 `json:"seed"`
	// Replications per (strategy, churn rate) cell.
	Replications int `json:"replications"`
	// Strategies are the rotation policies to compare: "static",
	// "round-robin", "residual".
	Strategies []string `json:"strategies"`
	// ChurnRates is the per-round link failure probability grid; empty
	// means {0}. PNew is the per-round recovery probability of a down
	// link (0 = permanent failures).
	ChurnRates []float64 `json:"churn_rates"`
	PNew       float64   `json:"p_new,omitempty"`
	// BurnInRounds steps the link churn chain this many times before
	// round 1, so churn starts at steady state instead of all-up; 0
	// keeps the historical all-up start byte-for-byte.
	BurnInRounds int `json:"burnin_rounds,omitempty"`
}

// Scenario is one declarative experiment.
type Scenario struct {
	Name     string       `json:"name"`
	Topology TopologySpec `json:"topology"`
	// Protocol is "paper" (default), "flooding" or "flooding-jitter".
	Protocol string `json:"protocol,omitempty"`
	// JitterSlots is the flooding-jitter window (default 8).
	JitterSlots int `json:"jitter_slots,omitempty"`
	// Sources to broadcast from; empty means every node (a sweep).
	Sources []Point `json:"sources,omitempty"`
	// PacketBits and SpacingM override the radio parameters.
	PacketBits int     `json:"packet_bits,omitempty"`
	SpacingM   float64 `json:"spacing_m,omitempty"`
	// Down lists failed nodes.
	Down []Point `json:"down,omitempty"`
	// Pipeline, when present, runs a multi-packet dissemination from
	// the first source instead of single broadcasts.
	Pipeline *PipelineSpec `json:"pipeline,omitempty"`
	// BudgetJ, when positive, adds a lifetime estimate for the first
	// source.
	BudgetJ float64 `json:"budget_j,omitempty"`
	// Convergecast, when true, also runs a data-collection round to the
	// first source.
	Convergecast bool `json:"convergecast,omitempty"`
	// DisableRepair turns off the scheduler's repair pass, reporting
	// whatever reachability the protocol rules achieve on their own —
	// the setting reliability studies usually want.
	DisableRepair bool `json:"disable_repair,omitempty"`
	// Reliability, when present, runs a Monte Carlo reliability study
	// from the (single) source after the deterministic broadcast.
	Reliability *ReliabilitySpec `json:"reliability,omitempty"`
	// Lifetime, when present, makes the scenario a multi-round lifetime
	// study; it runs through the lifetime endpoint (POST /v1/lifetime,
	// the lifetime job kind, or wsnlife) rather than the scenario
	// runner, and does not combine with the other study sections.
	Lifetime *LifetimeSpec `json:"lifetime,omitempty"`
}

// RunReport is one broadcast's metrics.
type RunReport struct {
	Source     Point   `json:"source"`
	Tx         int     `json:"tx"`
	Rx         int     `json:"rx"`
	EnergyJ    float64 `json:"energy_j"`
	Delay      int     `json:"delay"`
	Reached    int     `json:"reached"`
	Total      int     `json:"total"`
	Collisions int     `json:"collisions"`
	Duplicates int     `json:"duplicates"`
	Repairs    int     `json:"repairs"`
}

// NewRunReport reports one broadcast from src.
func NewRunReport(src Point, r *sim.Result) RunReport {
	return RunReport{
		Source: src, Tx: r.Tx, Rx: r.Rx, EnergyJ: r.EnergyJ, Delay: r.Delay,
		Reached: r.Reached, Total: r.Total, Collisions: r.Collisions,
		Duplicates: r.Duplicates, Repairs: r.Repairs,
	}
}

// Report is the runner's output.
type Report struct {
	Name     string      `json:"name"`
	Topology string      `json:"topology"`
	Protocol string      `json:"protocol"`
	Runs     []RunReport `json:"runs,omitempty"`

	// Sweep summary (present when Sources was empty).
	BestEnergyJ  float64 `json:"best_energy_j,omitempty"`
	WorstEnergyJ float64 `json:"worst_energy_j,omitempty"`
	MaxDelay     int     `json:"max_delay,omitempty"`

	// Pipeline results.
	PipelineInterval  int  `json:"pipeline_interval,omitempty"`
	PipelineSlots     int  `json:"pipeline_slots,omitempty"`
	PipelineDelivered bool `json:"pipeline_delivered,omitempty"`

	// Lifetime estimate.
	LifetimeRounds int     `json:"lifetime_rounds,omitempty"`
	MaxNodeEnergyJ float64 `json:"max_node_energy_j,omitempty"`

	// Convergecast results.
	ConvergeEnergyJ float64 `json:"converge_energy_j,omitempty"`
	ConvergeSlots   int     `json:"converge_slots,omitempty"`

	// Reliability study results: one aggregated point per (loss rate,
	// failure rate), failure-rate major, loss rate minor.
	Reliability []mc.Point `json:"reliability,omitempty"`
	// ReliabilitySeed echoes the study seed the points were produced
	// under.
	ReliabilitySeed uint64 `json:"reliability_seed,omitempty"`

	// Lifetime study results: one cell per (strategy, churn rate,
	// replication), strategy-major, churn-rate middle, replication
	// minor. LifetimeSeed echoes the study seed.
	Lifetime     []life.CellReport `json:"lifetime,omitempty"`
	LifetimeSeed uint64            `json:"lifetime_seed,omitempty"`
}

// Load parses a scenario document. Unknown fields anywhere in the
// document are rejected by name (with a did-you-mean hint for near
// misses), and so is trailing content after the document: a typo like
// "lossrate" must fail loudly rather than silently canonicalize into
// — and serve the cached result of — the default configuration.
func Load(r io.Reader) (Scenario, error) {
	var s Scenario
	err := decodeStrict(r, &s)
	return s, err
}

// maxIrregularReach bounds radius + 2*jitter of an irregular mesh, in
// grid spacings. The mesh's construction scans
// (2*ceil(radius + 2*jitter) + 1)^2 cells per node, so an unbounded
// radius is an unbounded CPU cost before anything is admitted; every
// irregular study in this repository uses radius <= 1.6 and
// jitter <= 0.45.
const maxIrregularReach = 4

func (s Scenario) topology() (grid.Topology, error) {
	t := s.Topology
	if t.M < 1 || t.N < 1 {
		return nil, fmt.Errorf("scenario: topology needs m, n >= 1")
	}
	kind, l := strings.ToLower(t.Kind), 1
	if kind == "3d6" {
		l = max(t.L, 1)
	}
	// Node indices are int32 throughout the engine; reject a mesh whose
	// node count wraps int or leaves that index space, before any
	// constructor sees it.
	if t.M > math.MaxInt32/t.N || t.M*t.N > math.MaxInt32/l {
		return nil, fmt.Errorf("scenario: a %d x %d x %d mesh exceeds the engine's %d-node index space",
			t.M, t.N, l, math.MaxInt32)
	}
	switch kind {
	case "2d3":
		return grid.NewMesh2D3(t.M, t.N), nil
	case "2d4":
		return grid.NewMesh2D4(t.M, t.N), nil
	case "2d8":
		return grid.NewMesh2D8(t.M, t.N), nil
	case "3d6":
		return grid.NewMesh3D6(t.M, t.N, l), nil
	case "irregular":
		if t.Radius <= 0 {
			return nil, fmt.Errorf("scenario: irregular topology needs radius > 0")
		}
		if t.Jitter < 0 {
			return nil, fmt.Errorf("scenario: irregular topology needs jitter >= 0 (got %g)", t.Jitter)
		}
		if t.Radius+2*t.Jitter > maxIrregularReach {
			return nil, fmt.Errorf("scenario: irregular radius + 2*jitter is %g; the limit is %d grid spacings",
				t.Radius+2*t.Jitter, maxIrregularReach)
		}
		return grid.NewIrregular(t.M, t.N, t.Jitter, t.Radius, t.Seed), nil
	default:
		return nil, fmt.Errorf("scenario: unknown topology kind %q", t.Kind)
	}
}

func (s Scenario) protocol(t grid.Topology) (sim.Protocol, error) {
	switch strings.ToLower(s.Protocol) {
	case "", "paper":
		if t.Kind() == grid.Irregular {
			return nil, fmt.Errorf("scenario: the paper protocols need a regular topology; use flooding")
		}
		return core.ForTopology(t.Kind()), nil
	case "flooding":
		return core.NewFlooding(), nil
	case "flooding-jitter":
		j := s.JitterSlots
		if j <= 0 {
			j = 8
		}
		return core.NewJitteredFlooding(j), nil
	default:
		return nil, fmt.Errorf("scenario: unknown protocol %q", s.Protocol)
	}
}

func (s Scenario) simConfig() (sim.Config, error) {
	cfg := sim.Config{}
	if s.PacketBits < 0 || s.SpacingM < 0 {
		return cfg, fmt.Errorf("scenario: packet_bits and spacing_m must be positive")
	}
	if s.PacketBits > 0 || s.SpacingM > 0 {
		p := radio.CanonicalPacket()
		if s.PacketBits > 0 {
			p.Bits = s.PacketBits
		}
		if s.SpacingM > 0 {
			p.NeighborDistM = s.SpacingM
		}
		if err := p.Validate(); err != nil {
			return cfg, err
		}
		cfg.Packet = p
	}
	for _, d := range s.Down {
		cfg.Down = append(cfg.Down, d.Coord())
	}
	cfg.DisableRepair = s.DisableRepair
	return cfg, nil
}

// Canonical returns the scenario in a normalized form: topology and
// protocol names lowercased, defaulted fields made explicit (protocol
// "paper", jitter window 8, z coordinates 1) and fields the selected
// topology or protocol ignores zeroed. Two scenarios that are
// byte-different on the wire but describe the same experiment
// canonicalize to the same value, so the canonical JSON encoding is a
// stable identity for result caching.
func (s Scenario) Canonical() Scenario {
	c := s
	c.Topology.Kind = strings.ToLower(s.Topology.Kind)
	c.Protocol = strings.ToLower(s.Protocol)
	if c.Protocol == "" {
		c.Protocol = "paper"
	}
	if c.Protocol == "flooding-jitter" {
		if c.JitterSlots <= 0 {
			c.JitterSlots = 8
		}
	} else {
		c.JitterSlots = 0
	}
	switch c.Topology.Kind {
	case "3d6":
		if c.Topology.L < 1 {
			c.Topology.L = 1
		}
		c.Topology.Jitter, c.Topology.Radius, c.Topology.Seed = 0, 0, 0
	case "irregular":
		c.Topology.L = 0
	default:
		c.Topology.L = 0
		c.Topology.Jitter, c.Topology.Radius, c.Topology.Seed = 0, 0, 0
	}
	pkt := radio.CanonicalPacket()
	if c.PacketBits == pkt.Bits {
		c.PacketBits = 0
	}
	if c.SpacingM == pkt.NeighborDistM {
		c.SpacingM = 0
	}
	c.Sources = canonicalPoints(s.Sources)
	c.Down = canonicalPoints(s.Down)
	if s.Pipeline != nil {
		p := *s.Pipeline
		if p.Interval < 0 {
			p.Interval = 0
		}
		c.Pipeline = &p
	}
	if s.Reliability != nil {
		// The rate grids canonicalize exactly as mc.Run consumes them
		// (sorted, deduplicated, {0} when empty), so byte-different but
		// equivalent studies share one cache identity.
		r := *s.Reliability
		r.LossRates = mc.CanonicalRates(s.Reliability.LossRates)
		r.FailureRates = mc.CanonicalRates(s.Reliability.FailureRates)
		c.Reliability = &r
	}
	if s.Lifetime != nil {
		l := canonicalLifetime(*s.Lifetime)
		c.Lifetime = &l
	}
	return c
}

// canonicalLifetime makes the lifetime section's defaults explicit —
// the canonical battery of 0.05 J (a few hundred rounds for the
// busiest canonical-mesh relay), a 4096-round cap, one replication,
// the static strategy — and normalizes strategy names and the churn
// grid, so equivalent studies share one cache identity.
func canonicalLifetime(l LifetimeSpec) LifetimeSpec {
	if l.BudgetJ <= 0 {
		l.BudgetJ = 0.05
	}
	if l.MaxRounds <= 0 {
		l.MaxRounds = 4096
	}
	if l.Replications <= 0 {
		l.Replications = 1
	}
	if len(l.Strategies) == 0 {
		l.Strategies = []string{string(life.Static)}
	} else {
		sts := make([]string, len(l.Strategies))
		for i, s := range l.Strategies {
			sts[i] = strings.ToLower(s)
		}
		l.Strategies = sts
	}
	l.ChurnRates = mc.CanonicalRates(l.ChurnRates)
	return l
}

func canonicalPoints(ps []Point) []Point {
	if ps == nil {
		return nil
	}
	out := make([]Point, len(ps))
	for i, p := range ps {
		if p.Z == 0 {
			p.Z = 1
		}
		out[i] = p
	}
	return out
}

// Compile validates the scenario and builds its topology, protocol and
// simulation config without running anything. Beyond what Run would
// reject lazily, it checks that every source and down node lies inside
// the mesh, that the down list conflicts with no source (see
// checkDown) and that a pipeline request asks for at least one packet,
// so a caller (the HTTP service) can refuse a bad document before
// committing worker time to it. Mesh sizes are checked before the
// topology is built: the node count must fit the engine's int32
// indices, and an irregular mesh's reach is bounded.
func (s Scenario) Compile() (grid.Topology, sim.Protocol, sim.Config, error) {
	topo, err := s.topology()
	if err != nil {
		return nil, nil, sim.Config{}, err
	}
	p, err := s.protocol(topo)
	if err != nil {
		return nil, nil, sim.Config{}, err
	}
	cfg, err := s.simConfig()
	if err != nil {
		return nil, nil, sim.Config{}, err
	}
	for _, src := range s.Sources {
		if !topo.Contains(src.Coord()) {
			return nil, nil, sim.Config{}, fmt.Errorf("scenario: source %s outside the %s mesh", src.Coord(), topo.Kind())
		}
	}
	for _, d := range cfg.Down {
		if !topo.Contains(d) {
			return nil, nil, sim.Config{}, fmt.Errorf("scenario: down node %s outside the %s mesh", d, topo.Kind())
		}
	}
	if err := s.checkDown(); err != nil {
		return nil, nil, sim.Config{}, err
	}
	if s.Pipeline != nil && s.Pipeline.Packets < 1 {
		return nil, nil, sim.Config{}, fmt.Errorf("scenario: pipeline needs packets >= 1")
	}
	if r := s.Reliability; r != nil {
		if len(s.Sources) != 1 {
			return nil, nil, sim.Config{}, fmt.Errorf("scenario: a reliability study needs exactly one source (got %d)", len(s.Sources))
		}
		if s.Pipeline != nil || s.BudgetJ > 0 || s.Convergecast {
			return nil, nil, sim.Config{}, fmt.Errorf("scenario: reliability does not combine with pipeline, budget or convergecast")
		}
		if r.Replications < 1 {
			return nil, nil, sim.Config{}, fmt.Errorf("scenario: reliability needs replications >= 1 (got %d)", r.Replications)
		}
		for _, rate := range r.LossRates {
			if rate < 0 || rate > 1 {
				return nil, nil, sim.Config{}, fmt.Errorf("scenario: loss rate %g outside [0, 1]", rate)
			}
		}
		for _, rate := range r.FailureRates {
			if rate < 0 || rate > 1 {
				return nil, nil, sim.Config{}, fmt.Errorf("scenario: failure rate %g outside [0, 1]", rate)
			}
		}
	}
	if l := s.Lifetime; l != nil {
		if len(s.Sources) != 1 {
			return nil, nil, sim.Config{}, fmt.Errorf("scenario: a lifetime study needs exactly one source (got %d)", len(s.Sources))
		}
		if s.Pipeline != nil || s.BudgetJ > 0 || s.Convergecast || s.Reliability != nil {
			return nil, nil, sim.Config{}, fmt.Errorf("scenario: lifetime does not combine with pipeline, budget, convergecast or reliability")
		}
		cl := canonicalLifetime(*l)
		for _, st := range cl.Strategies {
			if _, err := life.ParseStrategy(st); err != nil {
				if hint := Suggest(st, strategyNames()); hint != "" {
					return nil, nil, sim.Config{}, fmt.Errorf("scenario: unknown lifetime strategy %q (did you mean %q?)", st, hint)
				}
				return nil, nil, sim.Config{}, fmt.Errorf("scenario: unknown lifetime strategy %q", st)
			}
		}
		for _, rate := range cl.ChurnRates {
			if rate < 0 || rate > 1 {
				return nil, nil, sim.Config{}, fmt.Errorf("scenario: churn rate %g outside [0, 1]", rate)
			}
		}
		if cl.PNew < 0 || cl.PNew > 1 {
			return nil, nil, sim.Config{}, fmt.Errorf("scenario: p_new %g outside [0, 1]", cl.PNew)
		}
		if cl.BurnInRounds < 0 {
			return nil, nil, sim.Config{}, fmt.Errorf("scenario: burn-in rounds must be >= 0 (got %d)", cl.BurnInRounds)
		}
	}
	return topo, p, cfg, nil
}

// checkDown rejects the down lists no run could honour: a source that
// is itself down, a down node in an all-sources sweep (the sweep would
// broadcast from it), and down nodes in a lifetime study, whose round
// loop owns node failures.
func (s Scenario) checkDown() error {
	if len(s.Down) == 0 {
		return nil
	}
	if s.Lifetime != nil {
		return fmt.Errorf("scenario: a lifetime study owns node failures; drop the down list")
	}
	if len(s.Sources) == 0 {
		return fmt.Errorf("scenario: an all-sources sweep broadcasts from every node, so it cannot have down nodes; list the sources")
	}
	down := make(map[grid.Coord]bool, len(s.Down))
	for _, d := range s.Down {
		down[d.Coord()] = true
	}
	for _, src := range s.Sources {
		if down[src.Coord()] {
			return fmt.Errorf("scenario: source %s is in the down list", src.Coord())
		}
	}
	return nil
}

// strategyNames lists the valid lifetime strategies for hints.
func strategyNames() []string {
	var out []string
	for _, s := range life.Strategies() {
		out = append(out, string(s))
	}
	return out
}

// Validate checks the scenario without running it.
func (s Scenario) Validate() error {
	_, _, _, err := s.Compile()
	return err
}

// Run executes the scenario.
func (s Scenario) Run() (Report, error) {
	return s.RunContext(context.Background())
}

// RunContext executes the scenario as a KindScenario plan on
// GOMAXPROCS workers; once ctx is cancelled it returns the context's
// error promptly without starting further simulations.
func (s Scenario) RunContext(ctx context.Context) (Report, error) {
	p, err := NewPlan(KindScenario, s)
	if err != nil {
		return Report{}, err
	}
	return p.Run(ctx, 0, nil)
}

// LifetimeCellCount returns the lifetime study's cell count. Only the
// perfbench replay calls it; it goes when that replay does.
func (s Scenario) LifetimeCellCount() (int, error) {
	p, err := NewPlan(KindLifetime, s)
	if err != nil {
		return 0, err
	}
	return p.Points(), nil
}

// LifetimeMaxRounds returns the lifetime study's per-cell round bound
// (Plan.RoundBound). Only the perfbench replay calls it; it goes when
// that replay does.
func (s Scenario) LifetimeMaxRounds() (int, error) {
	p, err := NewPlan(KindLifetime, s)
	if err != nil {
		return 0, err
	}
	return p.RoundBound(), nil
}

// LifetimeMerge assembles a lifetime report from its cells in study
// order (Plan.Merge). Only the perfbench replay calls it; it goes when
// that replay does.
func (s Scenario) LifetimeMerge(cells []life.CellReport) (Report, error) {
	p, err := NewPlan(KindLifetime, s)
	if err != nil {
		return Report{}, err
	}
	parts := make([]any, len(cells))
	for i, c := range cells {
		parts[i] = c
	}
	return p.Merge(parts)
}

// SweepSummary computes a sweep report's best/worst/max-delay summary
// from its per-source rows, in row order.
func SweepSummary(rep *Report) {
	for i, r := range rep.Runs {
		if i == 0 || r.EnergyJ < rep.BestEnergyJ {
			rep.BestEnergyJ = r.EnergyJ
		}
		if i == 0 || r.EnergyJ > rep.WorstEnergyJ {
			rep.WorstEnergyJ = r.EnergyJ
		}
		if r.Delay > rep.MaxDelay {
			rep.MaxDelay = r.Delay
		}
	}
}

// Write renders the report as indented JSON.
func (r Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadAll parses either a single scenario object or a JSON array of
// scenarios.
func LoadAll(r io.Reader) ([]Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimLeftFunc(string(data), func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	if strings.HasPrefix(trimmed, "[") {
		var list []Scenario
		if err := decodeStrict(strings.NewReader(string(data)), &list); err != nil {
			return nil, err
		}
		return list, nil
	}
	s, err := Load(strings.NewReader(string(data)))
	if err != nil {
		return nil, err
	}
	return []Scenario{s}, nil
}

// RunAll executes scenarios in parallel (bounded by GOMAXPROCS) and
// returns the reports in input order; the first error aborts.
func RunAll(scenarios []Scenario) ([]Report, error) {
	return RunAllContext(context.Background(), scenarios)
}

// RunAllContext is RunAll under a context: scenarios run in parallel
// (bounded by GOMAXPROCS) and the reports come back in input order.
// When ctx is cancelled mid-batch the call returns promptly — no new
// scenario starts and running ones stop at their next checkpoint —
// with the reports completed so far (index-aligned; unrun slots are
// zero) and an error stating how many of the scenarios finished,
// wrapping the context's error.
func RunAllContext(ctx context.Context, scenarios []Scenario) ([]Report, error) {
	reports := make([]Report, len(scenarios))
	errs := make([]error, len(scenarios))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	if workers < 1 {
		workers = 1
	}
	var completed atomic.Int64
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				reports[i], errs[i] = scenarios[i].RunContext(ctx)
				if errs[i] == nil {
					completed.Add(1)
				}
			}
		}()
	}
feed:
	for i := range scenarios {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return reports, fmt.Errorf("scenario: cancelled after %d/%d scenarios: %w",
			completed.Load(), len(scenarios), err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario %d (%q): %w", i, scenarios[i].Name, err)
		}
	}
	return reports, nil
}

// WriteAll renders reports as an indented JSON array.
func WriteAll(w io.Writer, reports []Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
