// Command wsnsweep runs full source-position sweeps and emits one CSV
// row per (topology, source) for external plotting: Tx, Rx, energy,
// delay, collisions and repairs. This is the raw data behind Tables
// 3-5.
//
// Each topology runs the same plan as wsnserved's /v1/sweep for that
// mesh (scenario.Plan, one point per source on a -workers pool); rows
// come out in source order, so the CSV is byte-identical for every
// -workers value and with or without -store.
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
// the same content-addressed store wsnserved uses, under the same key,
// so sweeps the service already answered emit their CSV without
// simulating — and sweeps computed here serve later /v1/sweep
// requests.
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

// topology sizes one mesh: canonical unless -m/-n name a custom size.
func topology(k grid.Kind, m, n, l int) (grid.Topology, error) {
	if m == 0 && n == 0 {
		return grid.Canonical(k), nil
	}
	if m < 1 || n < 1 {
		return nil, fmt.Errorf("mesh needs -m and -n >= 1")
	}
	depth := 1
	if k == grid.Mesh3D6 && l > 0 {
		depth = l
	}
	return grid.New(k, m, n, depth), nil
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
	if _, err := topology(ks[0], m, n, l); err != nil {
		return err
	}
	var st *store.Store
	if storeDir != "" {
		if st, err = store.Open(storeDir); err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		defer st.Close()
	}
	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	header := []string{"topology", "protocol", "src_x", "src_y", "src_z",
		"tx", "rx", "energy_j", "delay", "collisions", "duplicates", "repairs", "reached", "total"}
	if err := w.Write(header); err != nil {
		return err
	}
	for _, k := range ks {
		topo, err := topology(k, m, n, l)
		if err != nil {
			return err
		}
		rep, err := sweepReport(topo, protoName, workers, st)
		if err != nil {
			return err
		}
		for i := range rep.Runs {
			if err := w.Write(row(k, rep.Protocol, &rep.Runs[i])); err != nil {
				return err
			}
		}
	}
	return nil
}

// sweepReport runs the canonical /v1/sweep plan of one topology on a
// pool of workers. With a store (non-nil st), a sweep the service or a
// previous invocation already computed is served without simulating,
// and a fresh one is stored for both to reuse; the stored body
// round-trips float64 exactly, so the CSV does not depend on where the
// report came from.
func sweepReport(topo grid.Topology, protoName string, workers int, st *store.Store) (scenario.Report, error) {
	tm, tn, tl := topo.Size()
	spec := scenario.TopologySpec{Kind: kindDoc(topo.Kind()), M: tm, N: tn}
	if tl > 1 {
		spec.L = tl
	}
	sc := scenario.Scenario{Topology: spec, Protocol: strings.ToLower(protoName)}.Canonical()
	var key string
	if st != nil {
		var err error
		if key, err = store.Key(scenario.KindSweep, sc); err != nil {
			return scenario.Report{}, err
		}
		if body, ok := st.Get(key); ok {
			var rep scenario.Report
			if err := json.Unmarshal(body, &rep); err != nil {
				return scenario.Report{}, fmt.Errorf("stored result for %s: %w", key, err)
			}
			return rep, nil
		}
	}
	pl, err := scenario.NewPlan(scenario.KindSweep, sc)
	if err != nil {
		return scenario.Report{}, err
	}
	rep, err := pl.Run(context.Background(), workers, nil)
	if err != nil {
		return scenario.Report{}, err
	}
	if st != nil {
		body, err := store.EncodeBody(rep)
		if err != nil {
			return scenario.Report{}, err
		}
		st.Put(key, body)
	}
	return rep, nil
}

// row renders one source's broadcast as a CSV row.
func row(k grid.Kind, proto string, r *scenario.RunReport) []string {
	return []string{
		k.String(), proto,
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
