package life

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/sweep"
)

// testSpec is a small study that dies well within its round budget:
// on the 12x12 2d4 mesh the busiest paper-protocol relay burns on the
// order of 1e-4 J per round, so a 3 mJ battery lasts a few dozen
// rounds.
func testSpec() Spec {
	topo := grid.NewMesh2D4(12, 12)
	return Spec{
		Topology:     topo,
		Protocol:     core.ForTopology(topo.Kind()),
		Source:       grid.C2(6, 6),
		BudgetJ:      0.003,
		MaxRounds:    128,
		Seed:         7,
		Replications: 2,
		Strategies:   []Strategy{Static, RoundRobin, Residual},
		PFail:        []float64{0, 0.02},
		PNew:         0.25,
	}
}

// runStudy runs every cell of a study, sharding cells across a pool of
// spec.Workers and merging them in cell-index order, the way
// scenario.Plan.Run drives a lifetime study.
func runStudy(ctx context.Context, spec Spec) ([]CellReport, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	cells := make([]CellReport, spec.NumCells())
	fns := make([]func() error, len(cells))
	for i := range fns {
		fns[i] = func() (err error) {
			cells[i], err = RunCell(ctx, spec, i, nil)
			return err
		}
	}
	errs, err := sweep.New(spec.Workers).RunFuncs(ctx, fns)
	if err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return cells, nil
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The whole-study report must be byte-identical at any worker count:
// cells write index-ordered slots and are internally sequential, so
// scheduling cannot move a float.
func TestLifetimeWorkersIdentical(t *testing.T) {
	spec := testSpec()
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		spec.Workers = workers
		cells, err := runStudy(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := mustJSON(t, cells)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: report differs from workers=1", workers)
		}
	}
}

// Cell order is strategy-major, churn-rate middle, replication minor,
// and replication seeds ignore strategy and churn rate (common random
// numbers).
func TestCellLayout(t *testing.T) {
	spec := testSpec()
	if got, want := spec.NumCells(), 3*2*2; got != want {
		t.Fatalf("NumCells = %d, want %d", got, want)
	}
	huge := spec
	huge.Replications = 1 << 62 // 3 x 2 x 2^62 wraps a 64-bit int
	if got := huge.NumCells(); got != math.MaxInt {
		t.Errorf("NumCells with 2^62 replications = %d, want math.MaxInt", got)
	}
	c0 := spec.CellAt(0)
	if c0.Strategy != Static || c0.PFail != 0 || c0.Rep != 0 {
		t.Errorf("cell 0 = %+v", c0)
	}
	last := spec.CellAt(spec.NumCells() - 1)
	if last.Strategy != Residual || last.PFail != 0.02 || last.Rep != 1 {
		t.Errorf("last cell = %+v", last)
	}
	// Same rep index -> same seed across every (strategy, churn) pair.
	for i := 0; i < spec.NumCells(); i++ {
		c := spec.CellAt(i)
		if c.Seed != spec.CellAt(c.Rep).Seed {
			t.Errorf("cell %d (rep %d) seed %#x not shared", i, c.Rep, c.Seed)
		}
	}
}

// Residual-energy rotation must outlive the static paper source: the
// static origin re-burns the same relay set every round, rotation
// spreads the load.
func TestResidualExtendsFirstDeath(t *testing.T) {
	spec := testSpec()
	spec.Strategies = []Strategy{Static, Residual}
	spec.PFail = []float64{0}
	spec.Replications = 1
	cells, err := runStudy(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	static, residual := cells[0], cells[1]
	if static.FirstDeathRound == 0 || residual.FirstDeathRound == 0 {
		t.Fatalf("no deaths within %d rounds: static %d, residual %d",
			spec.MaxRounds, static.FirstDeathRound, residual.FirstDeathRound)
	}
	if residual.FirstDeathRound <= static.FirstDeathRound {
		t.Errorf("residual rotation first death at round %d, static at %d — rotation should extend it",
			residual.FirstDeathRound, static.FirstDeathRound)
	}
}

// The static strategy stops when its source dies; rotation strategies
// keep broadcasting from survivors.
func TestStaticStopsAtSourceDeath(t *testing.T) {
	spec := testSpec()
	spec.Strategies = []Strategy{Static}
	spec.PFail = []float64{0}
	spec.Replications = 1
	spec.MaxRounds = 4096
	cells, err := runStudy(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	if c.SourceDeathRound == 0 {
		t.Fatalf("static source survived %d rounds on a 3 mJ battery", c.Rounds)
	}
	if c.Rounds != c.SourceDeathRound {
		t.Errorf("static cell ran %d rounds past source death at %d", c.Rounds, c.SourceDeathRound)
	}
}

func TestRoundRobinOutlivesDeaths(t *testing.T) {
	spec := testSpec()
	spec.Strategies = []Strategy{RoundRobin}
	spec.PFail = []float64{0}
	spec.Replications = 1
	cells, err := runStudy(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	if c.FirstDeathRound == 0 || c.Deaths == 0 {
		t.Fatalf("no deaths: %+v", c)
	}
	if c.Rounds <= c.FirstDeathRound {
		t.Errorf("round-robin stopped at round %d, first death %d — it should rotate past dead nodes",
			c.Rounds, c.FirstDeathRound)
	}
}

// Permanent link churn (p_new = 0) on a line partitions the broadcast
// long before any battery dies.
func TestChurnPartitionsLine(t *testing.T) {
	topo := grid.NewMesh2D4(16, 1)
	spec := Spec{
		Topology:     topo,
		Protocol:     core.NewFlooding(),
		Source:       grid.C2(1, 1),
		BudgetJ:      1,
		MaxRounds:    32,
		Seed:         3,
		Replications: 1,
		Strategies:   []Strategy{Static},
		PFail:        []float64{0.3},
		PNew:         0,
	}
	cells, err := runStudy(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	if c.PartitionRound == 0 {
		t.Fatalf("15 links at p_fail 0.3 never partitioned in %d rounds", c.Rounds)
	}
	if c.FirstDeathRound != 0 {
		t.Errorf("a 1 J battery died at round %d", c.FirstDeathRound)
	}
	// Once a line link is permanently down, reachability never recovers.
	if c.DeliveredRounds >= c.Rounds {
		t.Errorf("DeliveredRounds %d not below Rounds %d despite partition", c.DeliveredRounds, c.Rounds)
	}
}

// With p_new > 0 churned links come back: the same line heals and
// delivers full reachability again after partition rounds.
func TestChurnRecovery(t *testing.T) {
	topo := grid.NewMesh2D4(16, 1)
	spec := Spec{
		Topology:     topo,
		Protocol:     core.NewFlooding(),
		Source:       grid.C2(1, 1),
		BudgetJ:      1,
		MaxRounds:    64,
		Seed:         3,
		Replications: 1,
		Strategies:   []Strategy{Static},
		PFail:        []float64{0.3},
		PNew:         1, // every down link recovers next round
	}
	cells, err := runStudy(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	if c.PartitionRound == 0 {
		t.Fatalf("line never partitioned in %d rounds", c.Rounds)
	}
	if c.DeliveredRounds == 0 {
		t.Errorf("no round delivered fully despite p_new = 1")
	}
}

type memCkpt struct {
	loaded []byte
	saves  [][]byte
}

func (c *memCkpt) Load() ([]byte, bool) {
	if c.loaded == nil {
		return nil, false
	}
	return c.loaded, true
}

func (c *memCkpt) Save(b []byte) error {
	c.saves = append(c.saves, append([]byte(nil), b...))
	return nil
}

// A cell resumed from any mid-run checkpoint must finish with the
// byte-identical report of an uninterrupted run.
func TestCheckpointResumeIdentical(t *testing.T) {
	spec := testSpec()
	spec.CheckpointEvery = 8
	for _, index := range []int{0, spec.NumCells() - 1} {
		rec := &memCkpt{}
		base, err := RunCell(context.Background(), spec, index, rec)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.saves) == 0 {
			t.Fatalf("cell %d: no checkpoints taken over %d rounds", index, base.Rounds)
		}
		want := mustJSON(t, base)
		for si, save := range rec.saves {
			resumed, err := RunCell(context.Background(), spec, index, &memCkpt{loaded: save})
			if err != nil {
				t.Fatalf("cell %d resume from save %d: %v", index, si, err)
			}
			if got := mustJSON(t, resumed); !bytes.Equal(got, want) {
				t.Errorf("cell %d resumed from save %d differs:\n got %s\nwant %s", index, si, got, want)
			}
		}
	}
}

// A checkpoint from a different mesh size is rejected, not silently
// misapplied.
func TestCheckpointMismatchRejected(t *testing.T) {
	spec := testSpec()
	spec.CheckpointEvery = 8
	rec := &memCkpt{}
	if _, err := RunCell(context.Background(), spec, 0, rec); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Topology = grid.NewMesh2D4(8, 8)
	other.Source = grid.C2(4, 4)
	if _, err := RunCell(context.Background(), other, 0, &memCkpt{loaded: rec.saves[0]}); err == nil {
		t.Error("checkpoint from a 12x12 study accepted by an 8x8 study")
	}
}

// RunCell hands its session back on every return: a finished cell, a
// cancelled one and one whose checkpoint is rejected. Sessions are
// counted through sim's session hook, so a cell that kept its session
// leaves the count above 0.
func TestRunCellReleasesSession(t *testing.T) {
	spec := testSpec()
	spec.CheckpointEvery = 8
	held := 0
	defer sim.SetSessionHook(sim.SetSessionHook(func(d int) { held += d }))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name    string
		ctx     context.Context
		ck      Checkpointer
		wantErr bool
	}{
		{"finished", context.Background(), &memCkpt{}, false},
		{"cancelled", cancelled, nil, true},
		{"bad checkpoint", context.Background(), &memCkpt{loaded: []byte(`{"round": -1}`)}, true},
	} {
		_, err := RunCell(c.ctx, spec, 0, c.ck)
		if (err != nil) != c.wantErr {
			t.Fatalf("%s: error %v, want error %v", c.name, err, c.wantErr)
		}
		if held != 0 {
			t.Errorf("%s: RunCell returned with %d sessions held, want 0", c.name, held)
		}
	}
}

// A checkpoint whose prev_source lies outside the mesh is rejected
// like an out-of-range dead index: a negative value must not panic
// round-robin's pickSource, and an oversized one must not silently
// pick some other source.
func TestCheckpointPrevSourceRejected(t *testing.T) {
	spec := testSpec()
	spec.Strategies = []Strategy{RoundRobin}
	spec.PFail = nil
	spec.CheckpointEvery = 8
	rec := &memCkpt{}
	if _, err := RunCell(context.Background(), spec, 0, rec); err != nil {
		t.Fatal(err)
	}
	for _, prev := range []int32{-7, 1 << 20} {
		var s ckptState
		if err := json.Unmarshal(rec.saves[0], &s); err != nil {
			t.Fatal(err)
		}
		s.PrevSource = prev
		if _, err := RunCell(context.Background(), spec, 0, &memCkpt{loaded: mustJSON(t, s)}); err == nil {
			t.Errorf("checkpoint with prev_source %d accepted", prev)
		}
	}
}

// With p_fail == 0 and p_new == 0 the churn sweep is skipped entirely.
// The report must stay byte-identical to the frozen reference path,
// and burn-in — which only advances the (empty) chain — must change
// nothing.
func TestChurnZeroSweepSkipByteIdentity(t *testing.T) {
	spec := matrixSpec(grid.Mesh2D4)
	spec.PFail = []float64{0}
	spec.PNew = 0

	want, err := referenceRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runStudy(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("churn-0 session report differs from reference")
	}

	burned := spec
	burned.BurnInRounds = 32
	burnedRep, err := runStudy(context.Background(), burned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, burnedRep), mustJSON(t, want)) {
		t.Error("burn-in on a churn-0 study changed the report")
	}
}

// Permanent failures (p_new == 0, p_fail > 0) take the skip-the-
// recovery-draw branch; the report must still match the reference.
func TestPermanentFailureChurnByteIdentity(t *testing.T) {
	spec := matrixSpec(grid.Mesh2D4)
	spec.PFail = []float64{0.05}
	spec.PNew = 0

	want, err := referenceRun(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runStudy(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("permanent-failure session report differs from reference")
	}
}

// Rotation edge case: a round whose own source dies during that round.
// pickSource only ever returns alive nodes, so a dead prevSrc after
// round() means the source died while sourcing; the loop must carry on
// (round-robin skips the corpse) and the session path must agree with
// the reference byte for byte.
func TestRotationSourceDiesSameRound(t *testing.T) {
	topo := grid.New(grid.Mesh2D4, 8, 8, 1)
	spec := Spec{
		Topology:     topo,
		Protocol:     core.ForTopology(grid.Mesh2D4),
		Source:       topo.At(topo.NumNodes() / 2),
		BudgetJ:      0.003,
		MaxRounds:    96,
		Seed:         11,
		Replications: 1,
		Strategies:   []Strategy{RoundRobin},
	}
	st, err := newRefCell(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	occurred := false
	for !st.stopped() {
		if err := st.round(); err != nil {
			t.Fatal(err)
		}
		if st.dead[st.prevSrc] {
			occurred = true
		}
	}
	if !occurred {
		t.Fatalf("no source died during its own round in %d rounds; retune the budget", st.rep.Rounds)
	}

	want, err := referenceCell(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCell(context.Background(), spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
		t.Error("session report differs from reference after a same-round source death")
	}
}

func TestSpecValidation(t *testing.T) {
	base := testSpec()
	for name, mut := range map[string]func(*Spec){
		"no budget":        func(s *Spec) { s.BudgetJ = 0 },
		"no rounds":        func(s *Spec) { s.MaxRounds = 0 },
		"no reps":          func(s *Spec) { s.Replications = 0 },
		"no strategies":    func(s *Spec) { s.Strategies = nil },
		"bad strategy":     func(s *Spec) { s.Strategies = []Strategy{"eternal"} },
		"bad churn":        func(s *Spec) { s.PFail = []float64{1.5} },
		"bad p_new":        func(s *Spec) { s.PNew = -0.1 },
		"source outside":   func(s *Spec) { s.Source = grid.C2(99, 99) },
		"down owned":       func(s *Spec) { s.Config.Down = []grid.Coord{grid.C2(1, 1)} },
		"down links owned": func(s *Spec) { s.Config.DownLinks = []sim.Link{{A: grid.C2(1, 1), B: grid.C2(2, 1)}} },
	} {
		s := base
		mut(&s)
		if _, err := runStudy(context.Background(), s); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

func TestRunCellIndexBounds(t *testing.T) {
	spec := testSpec()
	if _, err := RunCell(context.Background(), spec, -1, nil); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := RunCell(context.Background(), spec, spec.NumCells(), nil); err == nil {
		t.Error("out-of-range index accepted")
	}
}
