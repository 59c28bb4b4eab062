// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4) from the simulator, side by side with
// the values the paper reports. It is the single source of truth for
// the wsnbench/wsnviz tools, the benchmark harness and EXPERIMENTS.md.
//
// The source-position sweeps behind Tables 3-5 run through
// analysis.SweepWorkers, one worker pool per topology; Config.Workers
// bounds the pool. Results aggregate in source order, so the tables
// are identical for every pool size.
//
// The deterministic tables and figures are pinned by golden files
// under testdata/; regenerate them after an intended output change
// with:
//
//	go test ./internal/experiments -run Golden -update
package experiments

import (
	"fmt"

	"wsnbcast/internal/analysis"
	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/radio"
	"wsnbcast/internal/render"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/table"
)

// PaperRow holds the values printed in the paper for one topology.
type PaperRow struct {
	Tx, Rx int
	PowerJ float64
}

// The paper's reported values (Tables 2-5), used for the comparison
// columns.
var (
	PaperTable2 = map[grid.Kind]PaperRow{
		grid.Mesh2D3: {255, 765, 2.61e-2},
		grid.Mesh2D4: {170, 680, 2.18e-2},
		grid.Mesh2D8: {102, 816, 2.35e-2},
		grid.Mesh3D6: {124, 744, 2.22e-2},
	}
	PaperTable3 = map[grid.Kind]PaperRow{
		grid.Mesh2D3: {301, 798, 2.81e-2},
		grid.Mesh2D4: {208, 714, 2.36e-2},
		grid.Mesh2D8: {143, 895, 2.66e-2},
		grid.Mesh3D6: {167, 815, 2.51e-2},
	}
	PaperTable4 = map[grid.Kind]PaperRow{
		grid.Mesh2D3: {308, 816, 2.88e-2},
		grid.Mesh2D4: {223, 778, 2.56e-2},
		grid.Mesh2D8: {147, 924, 2.74e-2},
		grid.Mesh3D6: {187, 923, 2.84e-2},
	}
	PaperTable5 = map[grid.Kind]int{
		grid.Mesh2D3: 46,
		grid.Mesh2D4: 45,
		grid.Mesh2D8: 31,
		grid.Mesh3D6: 20,
	}
)

// Config parameterizes the experiment harness; the zero value uses the
// paper's canonical setup.
type Config struct {
	Model  radio.Model
	Packet radio.Packet
	// Workers bounds each topology sweep's worker pool; <= 0 means
	// GOMAXPROCS. The tables are identical for every value (results
	// aggregate by source, not by completion).
	Workers int
}

func (c Config) fill() Config {
	if c.Model == (radio.Model{}) {
		c.Model = radio.Default()
	}
	if c.Packet == (radio.Packet{}) {
		c.Packet = radio.CanonicalPacket()
	}
	return c
}

func (c Config) simConfig() sim.Config {
	return sim.Config{Model: c.Model, Packet: c.Packet}
}

// Table1 regenerates Table 1: the optimal ETRs of the four topologies.
func Table1() *table.Table {
	t := &table.Table{
		Title:   "Table 1. Optimal ETRs of the four topologies",
		Headers: []string{"Topology", "Optimal ETR"},
	}
	for _, k := range grid.Kinds() {
		num, den := core.OptimalETR(k)
		t.AddRow(k.String(), table.FormatFraction(num, den))
	}
	return t
}

// Table2 regenerates Table 2: the ideal case.
func Table2(cfg Config) *table.Table {
	cfg = cfg.fill()
	t := &table.Table{
		Title:   "Table 2. The performance of the ideal case",
		Headers: []string{"Topology", "Tx", "Rx", "Power (J)", "paper Tx", "paper Rx", "paper Power"},
	}
	for _, k := range grid.Kinds() {
		ideal := core.IdealCase(grid.Canonical(k), cfg.Model, cfg.Packet)
		p := PaperTable2[k]
		t.AddRow(k.String(), ideal.Tx, ideal.Rx, ideal.EnergyJ, p.Tx, p.Rx, p.PowerJ)
	}
	return t
}

// sweepAll runs the full source sweep for every topology's paper
// protocol, one analysis.SweepWorkers pool per topology, and returns
// the summaries keyed by kind.
func sweepAll(cfg Config) (map[grid.Kind]analysis.Summary, error) {
	out := make(map[grid.Kind]analysis.Summary, 4)
	for _, k := range grid.Kinds() {
		s, err := analysis.SweepWorkers(grid.Canonical(k), core.ForTopology(k), cfg.simConfig(), cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: %v sweep: %w", k, err)
		}
		out[k] = s
	}
	return out, nil
}

// Table3 regenerates Table 3: the best case of the broadcasting
// protocols over all source positions.
func Table3(cfg Config) (*table.Table, error) {
	sums, err := sweepAll(cfg.fill())
	if err != nil {
		return nil, err
	}
	return table3From(sums), nil
}

func table3From(sums map[grid.Kind]analysis.Summary) *table.Table {
	t := &table.Table{
		Title:   "Table 3. The performance of the broadcasting protocols (best case)",
		Headers: []string{"Topology", "Tx", "Rx", "Power (J)", "paper Tx", "paper Rx", "paper Power"},
	}
	for _, k := range grid.Kinds() {
		s := sums[k]
		p := PaperTable3[k]
		t.AddRow(k.String(), s.Best.Tx, s.Best.Rx, s.Best.EnergyJ, p.Tx, p.Rx, p.PowerJ)
	}
	return t
}

// Table4 regenerates Table 4: the worst case.
func Table4(cfg Config) (*table.Table, error) {
	sums, err := sweepAll(cfg.fill())
	if err != nil {
		return nil, err
	}
	return table4From(sums), nil
}

func table4From(sums map[grid.Kind]analysis.Summary) *table.Table {
	t := &table.Table{
		Title:   "Table 4. The performance of the broadcasting protocols (worst case)",
		Headers: []string{"Topology", "Tx", "Rx", "Power (J)", "paper Tx", "paper Rx", "paper Power"},
	}
	for _, k := range grid.Kinds() {
		s := sums[k]
		p := PaperTable4[k]
		t.AddRow(k.String(), s.Worst.Tx, s.Worst.Rx, s.Worst.EnergyJ, p.Tx, p.Rx, p.PowerJ)
	}
	return t
}

// Table5 regenerates Table 5: the maximum delay times of the ideal
// case and the broadcasting protocols.
func Table5(cfg Config) (*table.Table, error) {
	cfg = cfg.fill()
	sums, err := sweepAll(cfg)
	if err != nil {
		return nil, err
	}
	return table5From(cfg, sums), nil
}

func table5From(cfg Config, sums map[grid.Kind]analysis.Summary) *table.Table {
	t := &table.Table{
		Title:   "Table 5. The maximum delay times of the ideal case and the protocols",
		Headers: []string{"Topology", "Ideal", "Ours", "paper (both)"},
	}
	for _, k := range grid.Kinds() {
		ideal := core.IdealCase(grid.Canonical(k), cfg.Model, cfg.Packet)
		t.AddRow(k.String(), ideal.MaxDelay, sums[k].MaxDelay, PaperTable5[k])
	}
	return t
}

// AllTables renders Tables 1-5 in order. The full source sweep behind
// Tables 3-5 runs once and is shared by all three.
func AllTables(cfg Config) ([]*table.Table, error) {
	cfg = cfg.fill()
	sums, err := sweepAll(cfg)
	if err != nil {
		return nil, err
	}
	return []*table.Table{
		Table1(), Table2(cfg),
		table3From(sums), table4From(sums), table5From(cfg, sums),
	}, nil
}

// Figure renders figure n of the paper (1-9) as ASCII.
func Figure(n int, cfg Config) (string, error) {
	cfg = cfg.fill()
	switch n {
	case 1:
		return render.Topology(grid.NewMesh2D3(8, 5)), nil
	case 2:
		return render.Topology(grid.NewMesh2D4(8, 5)), nil
	case 3:
		return render.Topology(grid.NewMesh2D8(8, 5)), nil
	case 4:
		return render.Topology(grid.NewMesh3D6(5, 4, 3)), nil
	case 5:
		return broadcastFigure(grid.NewMesh2D4(16, 16), core.NewMesh4Protocol(), grid.C2(6, 8), cfg)
	case 6:
		return figure6(), nil
	case 7:
		return broadcastFigure(grid.NewMesh2D8(14, 14), core.NewMesh8Protocol(), grid.C2(5, 9), cfg)
	case 8:
		return broadcastFigure(grid.NewMesh2D3(20, 14), core.NewMesh3Protocol(), grid.C2(10, 7), cfg)
	case 9:
		topo := grid.NewMesh3D6(16, 16, 8)
		return render.ZRelayPattern(topo, grid.C3(6, 8, 4), core.IsZRelayColumn, core.IsBorderZColumn), nil
	default:
		return "", fmt.Errorf("experiments: no figure %d (the paper has figures 1-9)", n)
	}
}

func broadcastFigure(topo grid.Topology, p sim.Protocol, src grid.Coord, cfg Config) (string, error) {
	r, err := sim.Run(topo, p, src, cfg.simConfig())
	if err != nil {
		return "", err
	}
	return render.BroadcastMap(topo, r, src.Z) +
		render.SequenceMap(topo, r, src.Z) +
		render.Summary(r) + "\n", nil
}

// figure6 reproduces Fig. 6: the ETR of a diagonal forward vs an
// X-axis forward in the 2D mesh with 8 neighbors.
func figure6() string {
	topo := grid.NewMesh2D8(6, 6)
	dm, dn := core.ForwardETR(topo, grid.C2(2, 3), grid.C2(3, 2))
	am, an := core.ForwardETR(topo, grid.C2(2, 2), grid.C2(3, 2))
	t := &table.Table{
		Title:   "Fig. 6. Transmit along the diagonal vs the X axis (2D-8)",
		Headers: []string{"Forward", "ETR"},
	}
	t.AddRow("(2,3) -> (3,2)  diagonal", table.FormatFraction(dm, dn))
	t.AddRow("(2,2) -> (3,2)  X axis", table.FormatFraction(am, an))
	return t.String()
}
