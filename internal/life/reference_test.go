package life

// The frozen per-round oracle of the lifetime engine. It drives the
// same cell loop as RunCell — cellState.begin and cellState.account —
// but replaces the session's memo-or-Session.Run middle with a one-shot
// sim.Run whose config is rebuilt every round from the cell's dead
// nodes and down links. The two paths are byte-identical; the
// differential tests and the Reference benchmarks compare against it.
// Because begin and account keep the cell's session in step, the
// reference still builds that session and pays its upkeep, but never
// runs it: every Result comes from sim.Run.

import (
	"context"
	"fmt"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// refCell is a cell run on the reference path, with the per-round
// scratch roundConfig rebuilds.
type refCell struct {
	*cellState
	downCoords []grid.Coord
	cutLinks   []sim.Link
}

// newRefCell validates spec, as RunCell does, and builds its cell index.
func newRefCell(spec Spec, index int) (*refCell, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	st, err := newCellState(spec, spec.CellAt(index))
	if err != nil {
		return nil, err
	}
	return &refCell{cellState: st}, nil
}

// roundConfig assembles the sim config of one reference round: the
// base config plus the current dead nodes and down links, both in
// deterministic dense order. The session path never builds it — that
// rebuild is exactly the per-round cost sessions eliminate.
func (rc *refCell) roundConfig() sim.Config {
	st := rc.cellState
	cfg := st.spec.Config
	if st.deadN > 0 {
		rc.downCoords = rc.downCoords[:0]
		for i := 0; i < st.v; i++ {
			if st.dead[i] {
				rc.downCoords = append(rc.downCoords, st.spec.Topology.At(i))
			}
		}
		cfg.Down = rc.downCoords
	}
	if st.linkDown != nil {
		rc.cutLinks = rc.cutLinks[:0]
		for id, d := range st.linkDown {
			if d {
				lk := st.links[id]
				rc.cutLinks = append(rc.cutLinks, sim.Link{
					A: st.spec.Topology.At(int(lk.A)),
					B: st.spec.Topology.At(int(lk.B)),
				})
			}
		}
		cfg.DownLinks = rc.cutLinks
	}
	return cfg
}

// round is cellState.round with sim.Run(roundConfig()) as its middle.
func (rc *refCell) round() error {
	src, err := rc.begin()
	if err != nil {
		return err
	}
	topo := rc.spec.Topology
	res, err := sim.Run(topo, rc.spec.Protocol, topo.At(int(src)), rc.roundConfig())
	if err != nil {
		return fmt.Errorf("life: round %d: %w", rc.rep.Rounds+1, err)
	}
	rc.account(src, res)
	return nil
}

// referenceCell is RunCell on the reference path, without checkpoints.
func referenceCell(spec Spec, index int) (CellReport, error) {
	rc, err := newRefCell(spec, index)
	if err != nil {
		return CellReport{}, err
	}
	for !rc.stopped() {
		if err := rc.round(); err != nil {
			return CellReport{}, err
		}
	}
	return rc.finish(), nil
}

// referenceRun is runStudy on the reference path: every cell,
// serially, in cell-index order. Its signature matches runStudy's so
// benchmarks can take either.
func referenceRun(ctx context.Context, spec Spec) ([]CellReport, error) {
	cells := make([]CellReport, spec.NumCells())
	for i := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := referenceCell(spec, i)
		if err != nil {
			return nil, err
		}
		cells[i] = rep
	}
	return cells, nil
}
