// Command wsnlife measures network lifetime by actually living it: a
// multi-round study (internal/life) that broadcasts round after round,
// drains each relay's battery by its true per-round radio cost, kills
// nodes whose budget hits zero, optionally churns links up and down
// between rounds, and compares source-rotation strategies. It prints
// one table per topology — rounds survived, first-death round, death
// milestones, partition round, delivered fraction, total energy — per
// (strategy, churn rate, replication) cell.
//
// Identical seeds reproduce the study byte-for-byte at any -workers
// value, and -json emits exactly the bytes wsnserved serves for the
// equivalent POST /v1/lifetime document.
//
// Usage:
//
//	wsnlife                                   # four canonical meshes, all strategies
//	wsnlife -topo 2d4 -m 12 -n 12             # one custom mesh
//	wsnlife -budget-j 0.01 -rounds 1024       # bigger batteries, longer cap
//	wsnlife -churn 0,0.01,0.05 -pnew 0.25     # link churn grid
//	wsnlife -churn 0.05 -pnew 0.25 -burnin 64 # churn starts at steady state
//	wsnlife -cpuprofile life.pprof            # profile the round loop
//	wsnlife -strategies static,residual       # compare a strategy subset
//	wsnlife -seed 7 -reps 5                   # replicated, reproducible
//	wsnlife -topo 2d4 -json                   # the /v1/lifetime report body
//	wsnlife -static                           # the closed-form estimate (no round loop)
//
// The -static flag keeps the original closed-form estimator: per-node
// energy of one broadcast scaled up to the budget, plus the idealized
// rotation-gain bound. It answers "how many rounds would the battery
// sustain if nothing ever changed" in microseconds; the default
// multi-round engine answers what actually happens as relays die.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"wsnbcast/internal/analysis"
	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/life"
	"wsnbcast/internal/profiling"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/store"
	"wsnbcast/internal/table"
)

type options struct {
	topo       string
	m, n, l    int
	source     string
	budgetJ    float64
	rounds     int
	burnin     int
	seed       uint64
	reps       int
	strategies string
	churn      string
	pnew       float64
	workers    int
	jsonOut    bool
	static     bool
}

func main() {
	var o options
	flag.StringVar(&o.topo, "topo", "", "topology (2d3, 2d4, 2d8, 3d6); empty means all four")
	flag.IntVar(&o.m, "m", 0, "mesh width (0 = canonical)")
	flag.IntVar(&o.n, "n", 0, "mesh height")
	flag.IntVar(&o.l, "l", 0, "mesh depth (3d6)")
	flag.StringVar(&o.source, "source", "", `round-1 source "x,y" or "x,y,z" (default: mesh center)`)
	flag.Float64Var(&o.budgetJ, "budget-j", 0.05, "per-node battery budget in Joules")
	flag.IntVar(&o.rounds, "rounds", 512, "round cap per cell")
	flag.IntVar(&o.burnin, "burnin", 0, "link-churn burn-in steps before round 1 (0 = start all-up)")
	flag.Uint64Var(&o.seed, "seed", 1, "study seed; identical seeds reproduce the study byte-for-byte")
	flag.IntVar(&o.reps, "reps", 1, "replications per (strategy, churn rate) cell")
	flag.StringVar(&o.strategies, "strategies", "static,round-robin,residual", "comma-separated rotation strategies to compare")
	flag.StringVar(&o.churn, "churn", "0", "comma-separated per-round link failure probabilities")
	flag.Float64Var(&o.pnew, "pnew", 0, "per-round recovery probability of a down link (0 = permanent failures)")
	flag.IntVar(&o.workers, "workers", 0, "cell worker pool size (0 = GOMAXPROCS)")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the lifetime report as JSON (the POST /v1/lifetime body)")
	flag.BoolVar(&o.static, "static", false, "print the closed-form single-round estimate instead of running the multi-round engine")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsnlife:", err)
		os.Exit(1)
	}
	runErr := run(o, os.Stdout)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "wsnlife:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "wsnlife:", runErr)
		os.Exit(1)
	}
}

// topoNames is the accepted -topo spelling set, in display order.
var topoNames = []string{"2d3", "2d4", "2d8", "3d6"}

// topoKinds resolves -topo; empty means all four canonical meshes.
func topoKinds(name string) ([]grid.Kind, error) {
	switch strings.ToLower(name) {
	case "":
		return grid.Kinds(), nil
	case "2d3":
		return []grid.Kind{grid.Mesh2D3}, nil
	case "2d4":
		return []grid.Kind{grid.Mesh2D4}, nil
	case "2d8":
		return []grid.Kind{grid.Mesh2D8}, nil
	case "3d6":
		return []grid.Kind{grid.Mesh3D6}, nil
	default:
		msg := fmt.Sprintf("unknown topology %q", name)
		if s := scenario.Suggest(name, topoNames); s != "" {
			msg += fmt.Sprintf(" — did you mean %q?", s)
		} else {
			msg += " (want 2d3, 2d4, 2d8 or 3d6)"
		}
		return nil, fmt.Errorf("%s", msg)
	}
}

// topology sizes one mesh: canonical unless -m/-n name a custom size.
func topology(o options, k grid.Kind) (grid.Topology, error) {
	if o.m == 0 && o.n == 0 {
		return grid.Canonical(k), nil
	}
	if o.m < 1 || o.n < 1 {
		return nil, fmt.Errorf("mesh needs -m and -n >= 1")
	}
	depth := 1
	if k == grid.Mesh3D6 && o.l > 0 {
		depth = o.l
	}
	return grid.New(k, o.m, o.n, depth), nil
}

func parseSource(s string, t grid.Topology) (grid.Coord, error) {
	if s == "" {
		m, n, l := t.Size()
		return grid.C3((m+1)/2, (n+1)/2, (l+1)/2), nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 2 && len(parts) != 3 {
		return grid.Coord{}, fmt.Errorf(`invalid -source %q: need "x,y" or "x,y,z"`, s)
	}
	vals := make([]int, 3)
	vals[2] = 1
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return grid.Coord{}, fmt.Errorf("invalid -source %q: %v", s, err)
		}
		vals[i] = v
	}
	c := grid.C3(vals[0], vals[1], vals[2])
	if !t.Contains(c) {
		return grid.Coord{}, fmt.Errorf("source %s outside the %s mesh", c, t.Kind())
	}
	return c, nil
}

func parseChurn(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid -churn rate %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-churn needs at least one rate")
	}
	return out, nil
}

func parseStrategies(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(o options, w io.Writer) error {
	kinds, err := topoKinds(o.topo)
	if err != nil {
		return err
	}
	if o.static {
		return runStatic(o, w, kinds)
	}
	return runStudy(o, w, kinds)
}

// runStudy runs the multi-round lifetime engine on each requested
// topology through the scenario layer, so the CLI, POST /v1/lifetime
// and async lifetime jobs all render the same report for the same
// inputs.
func runStudy(o options, w io.Writer, kinds []grid.Kind) error {
	if o.workers < 0 {
		return fmt.Errorf("invalid -workers %d: must be >= 0 (0 means GOMAXPROCS)", o.workers)
	}
	churn, err := parseChurn(o.churn)
	if err != nil {
		return err
	}
	reports := make([]scenario.Report, 0, len(kinds))
	for _, k := range kinds {
		topo, err := topology(o, k)
		if err != nil {
			return err
		}
		src, err := parseSource(o.source, topo)
		if err != nil {
			return err
		}
		sc := scenario.Scenario{
			Name:     "wsnlife",
			Topology: topologySpec(topo),
			Sources:  []scenario.Point{{X: src.X, Y: src.Y, Z: src.Z}},
			Lifetime: &scenario.LifetimeSpec{
				BudgetJ:      o.budgetJ,
				MaxRounds:    o.rounds,
				Seed:         o.seed,
				Replications: o.reps,
				Strategies:   parseStrategies(o.strategies),
				ChurnRates:   churn,
				PNew:         o.pnew,
				BurnInRounds: o.burnin,
			},
		}
		pl, err := scenario.NewPlan(scenario.KindLifetime, sc)
		if err != nil {
			return err
		}
		rep, err := pl.Run(context.Background(), o.workers, nil)
		if err != nil {
			return err
		}
		reports = append(reports, rep)
	}
	if o.jsonOut {
		return writeJSON(w, reports)
	}
	for i, rep := range reports {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := printStudy(w, o, rep); err != nil {
			return err
		}
	}
	return nil
}

// writeJSON emits a single report exactly as wsnserved would serve it
// for the equivalent POST /v1/lifetime document; multiple topologies
// become a JSON array of those bodies.
func writeJSON(w io.Writer, reports []scenario.Report) error {
	if len(reports) == 1 {
		body, err := store.EncodeBody(reports[0])
		if err != nil {
			return err
		}
		_, err = w.Write(body)
		return err
	}
	body, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	_, err = w.Write(body)
	return err
}

func printStudy(w io.Writer, o options, rep scenario.Report) error {
	t := &table.Table{
		Title: fmt.Sprintf("%s %s lifetime: %s/node, <=%d rounds, seed %d",
			rep.Topology, rep.Protocol, table.FormatJ(o.budgetJ), o.rounds, rep.LifetimeSeed),
		Headers: []string{"Strategy", "Churn", "Rep", "Rounds", "First death",
			"50% dead", "Partition", "Delivered", "Energy"},
	}
	for _, c := range rep.Lifetime {
		t.AddRow(c.Strategy, fmt.Sprintf("%g", c.PFail), c.Rep, c.Rounds,
			fmtRound(c.FirstDeathRound), fmtRound(milestoneRound(c, 0.50)),
			fmtRound(c.PartitionRound),
			fmt.Sprintf("%d/%d", c.DeliveredRounds, c.Rounds),
			table.FormatJ(c.TotalEnergyJ))
	}
	return t.Render(w)
}

// fmtRound renders a 1-based round number; zero means the event never
// happened within the run.
func fmtRound(r int) string {
	if r == 0 {
		return "-"
	}
	return strconv.Itoa(r)
}

// milestoneRound returns the round by which the given fraction of
// nodes had died, or 0 when the run never got there.
func milestoneRound(c life.CellReport, frac float64) int {
	for _, m := range c.DeadMilestones {
		if m.Frac == frac {
			return m.Round
		}
	}
	return 0
}

// topologySpec maps a compiled topology back to its scenario document
// form.
func topologySpec(t grid.Topology) scenario.TopologySpec {
	m, n, l := t.Size()
	spec := scenario.TopologySpec{Kind: kindDoc(t.Kind()), M: m, N: n}
	if l > 1 {
		spec.L = l
	}
	return spec
}

// kindDoc is the scenario-document spelling of a topology kind.
func kindDoc(k grid.Kind) string {
	switch k {
	case grid.Mesh2D3:
		return "2d3"
	case grid.Mesh2D8:
		return "2d8"
	case grid.Mesh3D6:
		return "3d6"
	default:
		return "2d4"
	}
}

// runStatic prints the original closed-form estimate: the per-node
// energy profile of a single broadcast scaled up to the budget, and
// the idealized gain bound from rotating the source.
func runStatic(o options, w io.Writer, kinds []grid.Kind) error {
	t := &table.Table{
		Title: fmt.Sprintf("Network lifetime estimate on a %s per-node budget (center source)", table.FormatJ(o.budgetJ)),
		Headers: []string{"Topology", "Max node J/bcast", "Mean node J/bcast",
			"Imbalance", "Rounds (fixed)", "Rounds (rotated)", "Gain"},
	}
	for _, k := range kinds {
		topo, err := topology(o, k)
		if err != nil {
			return err
		}
		center, err := parseSource(o.source, topo)
		if err != nil {
			return err
		}
		p := core.ForTopology(k)
		est, err := analysis.Lifetime(topo, p, center, sim.Config{}, o.budgetJ)
		if err != nil {
			return err
		}
		rot, err := analysis.CompareRotation(topo, p, center, sim.Config{}, o.budgetJ, 1<<22)
		if err != nil {
			return err
		}
		t.AddRow(k.String(),
			table.FormatJ(est.MaxNodeEnergyJ), table.FormatJ(est.MeanNodeEnergyJ),
			fmt.Sprintf("%.1fx", est.ImbalanceRatio),
			rot.FixedRounds, rot.RotatedRounds, fmt.Sprintf("%.2fx", rot.Gain))
	}
	return t.Render(w)
}
