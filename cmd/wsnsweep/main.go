// Command wsnsweep runs full source-position sweeps and emits one CSV
// row per (topology, source) for external plotting: Tx, Rx, energy,
// delay, collisions and repairs. This is the raw data behind Tables
// 3-5.
//
// The sweeps run on the parallel sweep engine (internal/sweep); rows
// are gathered in job order, so the CSV is byte-identical for every
// -workers value.
//
// Usage:
//
//	wsnsweep                       # canonical meshes, paper protocols
//	wsnsweep -topo 2d8             # one topology
//	wsnsweep -proto flooding       # a baseline protocol
//	wsnsweep -m 20 -n 12 -l 1      # custom mesh size
//	wsnsweep -workers 4            # bound the worker pool (0 = GOMAXPROCS)
//	wsnsweep -store DIR            # share wsnserved's durable result store
//
// With -store, each topology's sweep is served from (and written to)
// the same content-addressed store wsnserved uses, so sweeps the
// service already answered emit their CSV without simulating — and
// sweeps computed here serve later /v1/sweep requests.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/store"
	"wsnbcast/internal/sweep"
)

func main() {
	topoName := flag.String("topo", "", "topology (2d3, 2d4, 2d8, 3d6); empty means all four")
	protoName := flag.String("proto", "paper", "protocol: paper, flooding, flooding-jitter")
	m := flag.Int("m", 0, "mesh width (0 = canonical)")
	n := flag.Int("n", 0, "mesh height")
	l := flag.Int("l", 0, "mesh depth (3d6)")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	storeDir := flag.String("store", "", "durable result store directory shared with wsnserved (serves repeats without simulating)")
	flag.Parse()

	if err := run(*topoName, *protoName, *m, *n, *l, *workers, *storeDir); err != nil {
		fmt.Fprintln(os.Stderr, "wsnsweep:", err)
		os.Exit(1)
	}
}

func kinds(topoName string) ([]grid.Kind, error) {
	if topoName == "" {
		return grid.Kinds(), nil
	}
	switch strings.ToLower(topoName) {
	case "2d3":
		return []grid.Kind{grid.Mesh2D3}, nil
	case "2d4":
		return []grid.Kind{grid.Mesh2D4}, nil
	case "2d8":
		return []grid.Kind{grid.Mesh2D8}, nil
	case "3d6":
		return []grid.Kind{grid.Mesh3D6}, nil
	default:
		return nil, fmt.Errorf("unknown topology %q", topoName)
	}
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

// jobs builds the full job list: every source of every selected
// topology, in topology-then-source order. The engine's outcome order
// matches, so the CSV rows below come out identical to a serial loop.
func jobs(topoName, protoName string, m, n, l int) ([]sweep.Job, error) {
	ks, err := kinds(topoName)
	if err != nil {
		return nil, err
	}
	var out []sweep.Job
	for _, k := range ks {
		topo := grid.Canonical(k)
		if m > 0 && n > 0 {
			depth := 1
			if k == grid.Mesh3D6 {
				depth = l
				if depth <= 0 {
					depth = 1
				}
			}
			topo = grid.New(k, m, n, depth)
		}
		p, err := protocol(protoName, k)
		if err != nil {
			return nil, err
		}
		out = append(out, sweep.SourceJobs(topo, p, sim.Config{})...)
	}
	return out, nil
}

func row(j sweep.Job, r *sim.Result) []string {
	return []string{
		j.Topology.Kind().String(), j.Protocol.Name(),
		strconv.Itoa(j.Source.X), strconv.Itoa(j.Source.Y), strconv.Itoa(j.Source.Z),
		strconv.Itoa(r.Tx), strconv.Itoa(r.Rx),
		strconv.FormatFloat(r.EnergyJ, 'e', 6, 64),
		strconv.Itoa(r.Delay), strconv.Itoa(r.Collisions),
		strconv.Itoa(r.Duplicates), strconv.Itoa(r.Repairs),
		strconv.Itoa(r.Reached), strconv.Itoa(r.Total),
	}
}

func run(topoName, protoName string, m, n, l, workers int, storeDir string) error {
	if workers < 0 {
		return fmt.Errorf("invalid -workers %d: must be >= 0 (0 means GOMAXPROCS)", workers)
	}
	// Validate the selection before the header hits stdout, so bad
	// flags fail with a clean message and no partial CSV.
	ks, err := kinds(topoName)
	if err != nil {
		return err
	}
	if _, err := protocol(protoName, ks[0]); err != nil {
		return err
	}
	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	header := []string{"topology", "protocol", "src_x", "src_y", "src_z",
		"tx", "rx", "energy_j", "delay", "collisions", "duplicates", "repairs", "reached", "total"}
	if err := w.Write(header); err != nil {
		return err
	}
	if storeDir != "" {
		return runStored(w, ks, protoName, m, n, l, workers, storeDir)
	}
	js, err := jobs(topoName, protoName, m, n, l)
	if err != nil {
		return err
	}
	outs, err := sweep.New(workers).Run(context.Background(), js)
	if err != nil {
		return err
	}
	for _, o := range outs {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.Job, o.Err)
		}
		if err := w.Write(row(o.Job, o.Result)); err != nil {
			return err
		}
	}
	return nil
}

// runStored serves each topology's sweep through the durable
// content-addressed store shared with wsnserved: the flags compile to
// the canonical /v1/sweep scenario document per topology, so a sweep
// the service (or a previous invocation) already computed prints
// without simulating, and fresh sweeps are stored for both to reuse.
// The CSV is byte-identical to the direct path — rows reconstruct from
// the stored report's runs, which round-trip float64 exactly.
func runStored(w *csv.Writer, ks []grid.Kind, protoName string, m, n, l, workers int, storeDir string) error {
	st, err := store.Open(storeDir)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer st.Close()
	for _, k := range ks {
		topo := grid.Canonical(k)
		if m > 0 && n > 0 {
			depth := 1
			if k == grid.Mesh3D6 {
				depth = l
				if depth <= 0 {
					depth = 1
				}
			}
			topo = grid.New(k, m, n, depth)
		}
		p, err := protocol(protoName, k)
		if err != nil {
			return err
		}
		tm, tn, tl := topo.Size()
		spec := scenario.TopologySpec{Kind: kindDoc(k), M: tm, N: tn}
		if tl > 1 {
			spec.L = tl
		}
		sc := scenario.Scenario{Topology: spec, Protocol: strings.ToLower(protoName)}.Canonical()
		key, err := store.Key("sweep", sc)
		if err != nil {
			return err
		}
		body, ok := st.Get(key)
		if !ok {
			pl, err := scenario.NewPlan(scenario.KindSweep, sc)
			if err != nil {
				return err
			}
			rep, err := pl.Run(context.Background(), workers, nil)
			if err != nil {
				return err
			}
			if body, err = store.EncodeBody(rep); err != nil {
				return err
			}
			st.Put(key, body)
		}
		var rep scenario.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			return fmt.Errorf("stored result for %s: %w", key, err)
		}
		for i := range rep.Runs {
			if err := w.Write(storedRow(k, p, &rep.Runs[i])); err != nil {
				return err
			}
		}
	}
	return nil
}

// storedRow renders one stored run as the same CSV row the direct
// path produces.
func storedRow(k grid.Kind, p sim.Protocol, r *scenario.RunReport) []string {
	return []string{
		k.String(), p.Name(),
		strconv.Itoa(r.Source.X), strconv.Itoa(r.Source.Y), strconv.Itoa(r.Source.Z),
		strconv.Itoa(r.Tx), strconv.Itoa(r.Rx),
		strconv.FormatFloat(r.EnergyJ, 'e', 6, 64),
		strconv.Itoa(r.Delay), strconv.Itoa(r.Collisions),
		strconv.Itoa(r.Duplicates), strconv.Itoa(r.Repairs),
		strconv.Itoa(r.Reached), strconv.Itoa(r.Total),
	}
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
