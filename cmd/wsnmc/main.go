// Command wsnmc runs Monte Carlo reliability studies: N seeded
// replications of one broadcast configuration at every point of a
// loss-rate x failure-rate grid, fanned across the parallel sweep
// engine. It prints one curve table per failure rate — reachability,
// delay, energy and transmissions as mean ± 95% CI over the loss
// rates — and optionally writes every replication as one JSON line.
//
// Every replication is one seeded sim.Run; identical seeds produce
// byte-identical output at any -workers value.
//
// Usage:
//
//	wsnmc                                  # canonical 2d4 mesh, paper protocol
//	wsnmc -topo 3d6 -reps 200 -seed 7      # more replications, fixed seed
//	wsnmc -loss 0,0.05,0.1,0.2             # the loss grid
//	wsnmc -failure 0,0.05 -disable-repair  # failure grid, raw protocol rules
//	wsnmc -jsonl runs.jsonl                # per-replication records
//	wsnmc -source 16,8 -m 32 -n 16         # custom mesh and source
//	wsnmc -store /var/lib/wsn/store        # share wsnserved's result store
//
// With -store, the flags compile to the equivalent canonical scenario
// document and the study is served from (and written to) the same
// durable content-addressed store wsnserved uses: a study the service
// already answered prints without simulating, and vice versa.
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
	"text/tabwriter"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/mc"
	"wsnbcast/internal/profiling"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/store"
)

type options struct {
	topo          string
	proto         string
	m, n, l       int
	source        string
	seed          uint64
	reps          int
	loss          string
	failure       string
	workers       int
	disableRepair bool
	jsonl         string
	storeDir      string
	cpuprofile    string
	memprofile    string
}

func main() {
	var o options
	flag.StringVar(&o.topo, "topo", "2d4", "topology: 2d3, 2d4, 2d8, 3d6")
	flag.StringVar(&o.proto, "proto", "paper", "protocol: paper, flooding, flooding-jitter")
	flag.IntVar(&o.m, "m", 0, "mesh width (0 = canonical)")
	flag.IntVar(&o.n, "n", 0, "mesh height")
	flag.IntVar(&o.l, "l", 0, "mesh depth (3d6)")
	flag.StringVar(&o.source, "source", "", `source "x,y" or "x,y,z" (default: mesh center)`)
	flag.Uint64Var(&o.seed, "seed", 1, "study seed")
	flag.IntVar(&o.reps, "reps", 100, "replications per grid point (>= 1)")
	flag.StringVar(&o.loss, "loss", "0,0.05,0.1,0.2", "comma-separated loss rates in [0, 1]")
	flag.StringVar(&o.failure, "failure", "0", "comma-separated failure rates in [0, 1]")
	flag.IntVar(&o.workers, "workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	flag.BoolVar(&o.disableRepair, "disable-repair", false, "turn off the scheduler's repair pass")
	flag.StringVar(&o.jsonl, "jsonl", "", "write per-replication records to this file as JSON lines")
	flag.StringVar(&o.storeDir, "store", "", "durable result store directory shared with wsnserved (serves repeats without simulating; incompatible with -jsonl)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiles, err := profiling.Start(o.cpuprofile, o.memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsnmc:", err)
		os.Exit(1)
	}
	runErr := run(o, os.Stdout)
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "wsnmc:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "wsnmc:", runErr)
		os.Exit(1)
	}
}

func topology(o options) (grid.Topology, error) {
	var k grid.Kind
	switch strings.ToLower(o.topo) {
	case "2d3":
		k = grid.Mesh2D3
	case "2d4":
		k = grid.Mesh2D4
	case "2d8":
		k = grid.Mesh2D8
	case "3d6":
		k = grid.Mesh3D6
	default:
		return nil, fmt.Errorf("unknown topology %q", o.topo)
	}
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

func protocol(name string, k grid.Kind) (sim.Protocol, error) {
	switch strings.ToLower(name) {
	case "paper", "":
		return core.ForTopology(k), nil
	case "flooding":
		return core.NewFlooding(), nil
	case "flooding-jitter":
		return core.NewJitteredFlooding(8), nil
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
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

func parseRates(flagName, s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid %s rate %q", flagName, p)
		}
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("%s rate %g outside [0, 1]", flagName, v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s needs at least one rate", flagName)
	}
	return out, nil
}

func run(o options, w io.Writer) error {
	if o.reps < 1 {
		return fmt.Errorf("invalid -reps %d: need >= 1 replications", o.reps)
	}
	if o.workers < 0 {
		return fmt.Errorf("invalid -workers %d: must be >= 0 (0 means GOMAXPROCS)", o.workers)
	}
	topo, err := topology(o)
	if err != nil {
		return err
	}
	p, err := protocol(o.proto, topo.Kind())
	if err != nil {
		return err
	}
	src, err := parseSource(o.source, topo)
	if err != nil {
		return err
	}
	lossRates, err := parseRates("-loss", o.loss)
	if err != nil {
		return err
	}
	failRates, err := parseRates("-failure", o.failure)
	if err != nil {
		return err
	}
	if o.storeDir != "" {
		if o.jsonl != "" {
			return fmt.Errorf("-store serves aggregated results and has no per-replication records; drop -jsonl")
		}
		return runStored(o, w, topo, p, src, lossRates, failRates)
	}

	rep, err := mc.Run(context.Background(), mc.Spec{
		Topology: topo, Protocol: p, Source: src,
		Config:       sim.Config{DisableRepair: o.disableRepair},
		Seed:         o.seed,
		Replications: o.reps,
		LossRates:    lossRates,
		FailureRates: failRates,
		Workers:      o.workers,
	})
	if err != nil {
		return err
	}

	if o.jsonl != "" {
		if err := writeJSONL(o.jsonl, rep.Records); err != nil {
			return err
		}
	}
	return printReport(w, rep)
}

// runStored serves the study through the durable content-addressed
// store shared with wsnserved: the flags compile to the equivalent
// canonical /v1/run scenario document, so a study the service (or a
// previous wsnmc invocation) already answered prints without
// simulating, and a fresh study is stored for both to reuse. Results
// are identical either way — the study is a pure function of the
// canonical document.
func runStored(o options, w io.Writer, topo grid.Topology, p sim.Protocol, src grid.Coord, lossRates, failRates []float64) error {
	sc := scenario.Scenario{
		Topology:      topologySpec(topo),
		Protocol:      strings.ToLower(o.proto),
		Sources:       []scenario.Point{{X: src.X, Y: src.Y, Z: src.Z}},
		DisableRepair: o.disableRepair,
		Reliability: &scenario.ReliabilitySpec{
			Seed:         o.seed,
			Replications: o.reps,
			LossRates:    lossRates,
			FailureRates: failRates,
		},
	}.Canonical()
	key, err := store.Key("run", sc)
	if err != nil {
		return err
	}
	st, err := store.Open(o.storeDir)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer st.Close()
	body, ok := st.Get(key)
	if !ok {
		rep, err := sc.RunContext(context.Background())
		if err != nil {
			return err
		}
		if body, err = store.EncodeBody(rep); err != nil {
			return err
		}
		// A write failure degrades the store to pass-through; the
		// freshly computed body still prints.
		st.Put(key, body)
	}
	var rep scenario.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("stored result for %s: %w", key, err)
	}
	return printReport(w, &mc.Report{
		Topology:     topo.Kind().String(),
		Nodes:        topo.NumNodes(),
		Protocol:     p.Name(),
		Source:       src.String(),
		Seed:         o.seed,
		Replications: o.reps,
		Points:       rep.Reliability,
	})
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

func writeJSONL(path string, records []mc.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// printReport renders one curve table per failure rate: loss rate rows
// against mean ± 95% CI columns.
func printReport(w io.Writer, rep *mc.Report) error {
	fmt.Fprintf(w, "%s %s src=%s nodes=%d seed=%d replications=%d\n",
		rep.Topology, rep.Protocol, rep.Source, rep.Nodes, rep.Seed, rep.Replications)
	seen := map[float64]bool{}
	for _, pt := range rep.Points {
		if seen[pt.FailureRate] {
			continue
		}
		seen[pt.FailureRate] = true
		fmt.Fprintf(w, "\nfailure rate %g\n", pt.FailureRate)
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "loss\treachability\tfull\tdelay\tenergy (J)\ttx\trepairs")
		for _, c := range rep.Curve(pt.FailureRate) {
			fmt.Fprintf(tw, "%g\t%.4f ± %.4f\t%d/%d\t%.1f ± %.1f\t%.4e ± %.1e\t%.1f ± %.1f\t%.1f ± %.1f\n",
				c.LossRate,
				c.Reachability.Mean, c.Reachability.CI95,
				c.FullyReached, c.Replications,
				c.Delay.Mean, c.Delay.CI95,
				c.EnergyJ.Mean, c.EnergyJ.CI95,
				c.Tx.Mean, c.Tx.CI95,
				c.Repairs.Mean, c.Repairs.CI95)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}
