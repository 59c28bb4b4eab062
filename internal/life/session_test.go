package life

// Differential matrix locking the round-persistent session path to
// the frozen per-round reference (reference_test.go): whole-study reports
// must be byte-identical across every canonical topology, every
// rotation strategy, churn on and off, and every worker count —
// including runs resumed from mid-study checkpoints. This is the
// contract that let the hot loop move onto sim.Session at all.

import (
	"bytes"
	"context"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
)

// matrixSpec is one small-but-busy study per topology kind: batteries
// sized to cause deaths within the round budget, all three strategies,
// and three churn rates with recovery — none, 0.2% (most rounds flip
// nothing, so round-memo hits interleave with mutated rounds) and 5%.
func matrixSpec(k grid.Kind) Spec {
	topo := grid.New(k, 8, 8, 4)
	return Spec{
		Topology:     topo,
		Protocol:     core.ForTopology(k),
		Source:       topo.At(topo.NumNodes() / 2),
		BudgetJ:      0.003,
		MaxRounds:    48,
		Seed:         11,
		Replications: 1,
		Strategies:   []Strategy{Static, RoundRobin, Residual},
		PFail:        []float64{0, 0.002, 0.05},
		PNew:         0.25,
	}
}

// TestSessionDifferentialMatrix is the byte-identity matrix: for every
// canonical topology and worker count, the session-driven study equals
// the reference study exactly.
func TestSessionDifferentialMatrix(t *testing.T) {
	for _, k := range grid.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			want, err := referenceRun(context.Background(), matrixSpec(k))
			if err != nil {
				t.Fatal(err)
			}
			wantJSON := mustJSON(t, want)
			for _, workers := range []int{1, 2, 8} {
				spec := matrixSpec(k)
				spec.Workers = workers
				got, err := runStudy(context.Background(), spec)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if gotJSON := mustJSON(t, got); !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("workers=%d: session report differs from reference:\n got %s\nwant %s",
						workers, gotJSON, wantJSON)
				}
			}
		})
	}
}

// A session-driven cell resumed from any mid-run checkpoint finishes
// with the byte-identical report of an uninterrupted reference run.
// Two cells: the static churn-free one, where resumes land inside a
// round-memo stretch, and the churned residual-rotation one with
// burn-in, whose restored state includes down links and dead nodes
// the session must reconstruct.
func TestSessionCheckpointResumeMatchesReference(t *testing.T) {
	spec := matrixSpec(grid.Mesh2D4)
	spec.BurnInRounds = 16
	spec.CheckpointEvery = 8
	for _, index := range []int{0, spec.NumCells() - 1} {
		base, err := referenceCell(spec, index)
		if err != nil {
			t.Fatal(err)
		}
		want := mustJSON(t, base)
		rec := &memCkpt{}
		full, err := RunCell(context.Background(), spec, index, rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustJSON(t, full); !bytes.Equal(got, want) {
			t.Fatalf("cell %d: uninterrupted session run differs from reference:\n got %s\nwant %s", index, got, want)
		}
		if len(rec.saves) == 0 {
			t.Fatalf("cell %d: no checkpoints taken over %d rounds", index, full.Rounds)
		}
		for si, save := range rec.saves {
			resumed, err := RunCell(context.Background(), spec, index, &memCkpt{loaded: save})
			if err != nil {
				t.Fatalf("cell %d: resume from save %d: %v", index, si, err)
			}
			if got := mustJSON(t, resumed); !bytes.Equal(got, want) {
				t.Errorf("cell %d: resume from save %d differs from reference:\n got %s\nwant %s", index, si, got, want)
			}
		}
	}
}

// Restoring a checkpoint into a live cell must drop the round memo: a
// static cell whose memo holds a post-death Result, rewound to a
// pre-death checkpoint, has to recompute on the restored graph and
// still finish byte-identical to the reference.
func TestRestoreDropsRoundMemo(t *testing.T) {
	spec := matrixSpec(grid.Mesh2D4)
	spec.Strategies = []Strategy{Static}
	spec.PFail = nil
	want, err := referenceCell(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := newCellState(spec, spec.CellAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.round(); err != nil {
		t.Fatal(err)
	}
	snap, err := st.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for st.deadN == 0 || st.last == nil {
		if st.stopped() {
			t.Fatalf("no memo armed after a death in %d rounds", st.rep.Rounds)
		}
		if err := st.round(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.restore(snap); err != nil {
		t.Fatal(err)
	}
	for !st.stopped() {
		if err := st.round(); err != nil {
			t.Fatal(err)
		}
	}
	if got := mustJSON(t, st.finish()); !bytes.Equal(got, mustJSON(t, want)) {
		t.Errorf("restored cell differs from reference:\n got %s\nwant %s", got, mustJSON(t, want))
	}
}

// Burn-in shifts the churn chain, not the round loop: zero burn-in
// reproduces the un-burned study, positive burn-in changes churned
// cells (the chain starts at steady state) but leaves churn-free cells
// untouched, and the session and reference paths agree under both.
func TestBurnInSemantics(t *testing.T) {
	base := matrixSpec(grid.Mesh2D4)
	baseRep, err := runStudy(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	zero := base
	zero.BurnInRounds = 0
	zeroRep, err := runStudy(context.Background(), zero)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, baseRep), mustJSON(t, zeroRep)) {
		t.Error("BurnInRounds=0 changed the report")
	}
	burned := base
	burned.BurnInRounds = 32
	burnedRep, err := runStudy(context.Background(), burned)
	if err != nil {
		t.Fatal(err)
	}
	burnedRefRep, err := referenceRun(context.Background(), burned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, burnedRep), mustJSON(t, burnedRefRep)) {
		t.Error("burned-in session report differs from burned-in reference")
	}
	for i := range burnedRep {
		bj, zj := mustJSON(t, burnedRep[i]), mustJSON(t, zeroRep[i])
		if burnedRep[i].PFail == 0 {
			if !bytes.Equal(bj, zj) {
				t.Errorf("cell %d (no churn): burn-in changed the report", i)
			}
		} else if bytes.Equal(bj, zj) {
			t.Errorf("cell %d (p_fail %g): 32 burn-in steps left the chain untouched",
				i, burnedRep[i].PFail)
		}
	}
}

// With p_new=0 every burn-in step only removes links, so enough
// burn-in starts round 1 partitioned: the chain really does advance
// before the first broadcast, without consuming round budget.
func TestBurnInStartsAtChainState(t *testing.T) {
	topo := grid.NewMesh2D4(16, 1)
	spec := Spec{
		Topology:     topo,
		Protocol:     core.NewFlooding(),
		Source:       grid.C2(1, 1),
		BudgetJ:      1,
		MaxRounds:    4,
		Seed:         3,
		Replications: 1,
		Strategies:   []Strategy{Static},
		PFail:        []float64{0.3},
		PNew:         0,
		BurnInRounds: 64,
	}
	cells, err := runStudy(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	if c.PartitionRound != 1 {
		t.Errorf("PartitionRound = %d, want 1: 64 burn-in steps at p_fail 0.3 / p_new 0 must partition the line before round 1", c.PartitionRound)
	}
	if c.Rounds != spec.MaxRounds {
		t.Errorf("Rounds = %d, want %d: burn-in must not consume round budget", c.Rounds, spec.MaxRounds)
	}
}

func TestBurnInValidation(t *testing.T) {
	spec := matrixSpec(grid.Mesh2D4)
	spec.BurnInRounds = -1
	if _, err := runStudy(context.Background(), spec); err == nil {
		t.Error("negative burn-in accepted")
	}
}

// The lifetime hot loop's allocation budget: once a cell's session is
// warm, a steady-state round — churn step, broadcast, battery
// accounting — stays within a handful of allocations (curve samples
// and milestone appends are amortized). Measured by differencing two
// run lengths so setup cost cancels out.
func TestRoundAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse and allocates for instrumentation; budget holds only in normal builds")
	}
	spec := matrixSpec(grid.Mesh2D4)
	spec.Strategies = []Strategy{RoundRobin}
	spec.PFail = []float64{0.05}
	spec.BudgetJ = 1e6 // nobody dies: round count is exactly MaxRounds
	run := func(rounds int) float64 {
		s := spec
		s.MaxRounds = rounds
		if _, err := RunCell(context.Background(), s, 0, nil); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := RunCell(context.Background(), s, 0, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := run(64), run(256)
	perRound := (long - short) / 192
	if perRound > 4 {
		t.Errorf("steady-state lifetime round allocates %.2f/round (%.0f @64 rounds, %.0f @256), budget is 4",
			perRound, short, long)
	}
}
