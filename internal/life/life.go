// Package life is the multi-round lifetime engine: it layers battery
// depletion, node death, link churn and source rotation on top of the
// single-broadcast simulator. The paper's premise is that sensor nodes
// are battery-bound — a broadcast protocol is only as good as the
// rounds a network survives under it — so this package runs the
// broadcast round after round, carrying per-node battery state (seeded
// from the first-order radio model) across rounds, feeding depleted
// nodes back as sim.Config.Down, flipping links up and down with a
// counter-based Markov churn chain, and rotating the source between
// rounds under a pluggable strategy. It reports network-lifetime
// metrics — rounds to first death, to X% dead, to source-partition —
// as curves, one cell per (strategy, churn rate, replication). RunCell
// runs one cell; callers shard a study's cells across their own worker
// pools and merge them in cell-index order, so the study is
// byte-identical at any worker count.
package life

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// Strategy names a between-round source rotation policy.
type Strategy string

const (
	// Static keeps the configured source every round — the paper's
	// fixed-origin broadcast. The run stops when the source dies.
	Static Strategy = "static"
	// RoundRobin hands the source role to the next alive node in dense
	// index order each round, spreading the origin load mechanically.
	RoundRobin Strategy = "round-robin"
	// Residual picks the alive node with the most remaining battery
	// (ties to the lowest index) — LEACH-style rotation by residual
	// energy.
	Residual Strategy = "residual"
)

// Strategies lists every valid strategy, in canonical report order.
func Strategies() []Strategy { return []Strategy{Static, RoundRobin, Residual} }

// ParseStrategy validates a strategy name.
func ParseStrategy(name string) (Strategy, error) {
	s := Strategy(name)
	for _, v := range Strategies() {
		if s == v {
			return s, nil
		}
	}
	return "", fmt.Errorf("life: unknown strategy %q", name)
}

// Milestone fractions reported per cell: the round by which 10%, 25%
// and 50% of the nodes have died.
var milestoneFracs = []float64{0.10, 0.25, 0.50}

// DefaultCheckpointEvery is the checkpoint cadence when
// Spec.CheckpointEvery is zero.
const DefaultCheckpointEvery = 256

// Spec describes one lifetime study: the cross product of Strategies x
// PFail x Replications, each cell an independent multi-round run.
type Spec struct {
	Topology grid.Topology
	Protocol sim.Protocol
	// Source is the round-1 origin of every cell; rotation strategies
	// take over from round 2.
	Source grid.Coord
	// Config is the per-round base configuration. Down, DownLinks and
	// Trace must be empty: the engine owns them across rounds.
	Config sim.Config
	// BudgetJ is the initial per-node battery in Joules (> 0).
	BudgetJ float64
	// MaxRounds bounds each cell's round loop (>= 1).
	MaxRounds int
	// Seed is the study seed; replication r of every cell draws from
	// sim.ReplicationSeed(Seed, r), so cells that differ only in
	// strategy or churn rate share their uniforms (common random
	// numbers) and compare under coupled noise.
	Seed uint64
	// Replications per (strategy, churn rate) cell (>= 1).
	Replications int
	// Strategies to run; must be non-empty and valid.
	Strategies []Strategy
	// PFail is the per-round, per-link failure probability grid; empty
	// means {0}. PNew is the per-round recovery probability of a down
	// link, shared across the grid.
	PFail []float64
	PNew  float64
	// BurnInRounds steps the link churn Markov chain this many times
	// before round 1, so churn starts at (or near) its stationary
	// distribution instead of all-up. Burn-in consumes chain steps
	// 1..BurnInRounds; live round r then draws step BurnInRounds+r, so
	// BurnInRounds=0 reproduces the un-burned byte stream exactly.
	// Burn-in is free of simulation work — only the chain advances.
	BurnInRounds int
	// Workers is not read by this package: RunCell runs one cell, and
	// callers shard cells on their own pools (scenario.Plan.Run, the
	// job manager). It stays because existing callers set it.
	Workers int
	// CheckpointEvery is the round cadence of Checkpointer saves in
	// RunCell; 0 means DefaultCheckpointEvery.
	CheckpointEvery int
}

// Cell identifies one (strategy, churn rate, replication) cell of a
// study.
type Cell struct {
	Strategy Strategy
	PFail    float64
	Rep      int
	Seed     uint64
}

// NumCells returns the study's cell count, saturating at math.MaxInt
// so admission control never sees a wrapped count.
func (s Spec) NumCells() int {
	pf := len(s.PFail)
	if pf == 0 {
		pf = 1
	}
	per := len(s.Strategies) * pf
	if per > 0 && s.Replications > math.MaxInt/per {
		return math.MaxInt
	}
	return per * s.Replications
}

// CellAt maps a cell index (strategy-major, churn-rate middle,
// replication minor) to its parameters.
func (s Spec) CellAt(index int) Cell {
	pfail := s.PFail
	if len(pfail) == 0 {
		pfail = []float64{0}
	}
	per := len(pfail) * s.Replications
	rep := index % s.Replications
	pi := index / s.Replications % len(pfail)
	si := index / per
	return Cell{
		Strategy: s.Strategies[si],
		PFail:    pfail[pi],
		Rep:      rep,
		Seed:     sim.ReplicationSeed(s.Seed, rep),
	}
}

func (s Spec) validate() error {
	if s.Topology == nil || s.Protocol == nil {
		return fmt.Errorf("life: spec needs a topology and a protocol")
	}
	if !s.Topology.Contains(s.Source) {
		return fmt.Errorf("life: source %s outside %s mesh", s.Source, s.Topology.Kind())
	}
	if s.BudgetJ <= 0 {
		return fmt.Errorf("life: battery budget must be positive (got %g)", s.BudgetJ)
	}
	if s.MaxRounds < 1 {
		return fmt.Errorf("life: max rounds must be >= 1 (got %d)", s.MaxRounds)
	}
	if s.Replications < 1 {
		return fmt.Errorf("life: replications must be >= 1 (got %d)", s.Replications)
	}
	if len(s.Strategies) == 0 {
		return fmt.Errorf("life: spec needs at least one strategy")
	}
	for _, st := range s.Strategies {
		if _, err := ParseStrategy(string(st)); err != nil {
			return err
		}
	}
	for _, p := range s.PFail {
		if p < 0 || p > 1 {
			return fmt.Errorf("life: churn rate %g outside [0, 1]", p)
		}
	}
	if s.PNew < 0 || s.PNew > 1 {
		return fmt.Errorf("life: p_new %g outside [0, 1]", s.PNew)
	}
	if s.BurnInRounds < 0 {
		return fmt.Errorf("life: burn-in rounds must be >= 0 (got %d)", s.BurnInRounds)
	}
	if len(s.Config.Down) > 0 || len(s.Config.DownLinks) > 0 || s.Config.Trace != nil {
		return fmt.Errorf("life: Config.Down, DownLinks and Trace are owned by the round loop")
	}
	return nil
}

// CurvePoint is one sample of a cell's lifetime curve.
type CurvePoint struct {
	Round int `json:"round"`
	// Alive is the node count still above zero battery after the round.
	Alive int `json:"alive"`
	// Reachability is the fraction of alive nodes the round's broadcast
	// reached.
	Reachability float64 `json:"reachability"`
	// MeanResidualJ is the mean remaining battery over all nodes (dead
	// nodes count as zero).
	MeanResidualJ float64 `json:"mean_residual_j"`
}

// Milestone records the first round by which the given fraction of
// nodes had died.
type Milestone struct {
	Frac  float64 `json:"frac"`
	Round int     `json:"round"`
}

// CellReport is one cell's lifetime metrics. Round numbers are 1-based;
// a zero round field means the event never happened within the run.
type CellReport struct {
	Strategy string  `json:"strategy"`
	PFail    float64 `json:"p_fail"`
	PNew     float64 `json:"p_new,omitempty"`
	Rep      int     `json:"rep"`
	Seed     uint64  `json:"seed"`
	// Rounds is how many broadcast rounds completed before the run
	// stopped (budget exhaustion path, MaxRounds, or a dead static
	// source).
	Rounds int `json:"rounds"`
	// FirstDeathRound is the network-lifetime headline: the round in
	// which the first node depleted its battery.
	FirstDeathRound int `json:"first_death_round,omitempty"`
	// DeadMilestones records the rounds by which 10/25/50% of the nodes
	// had died.
	DeadMilestones []Milestone `json:"dead_milestones,omitempty"`
	// PartitionRound is the first round whose broadcast failed to reach
	// every alive node (source partition).
	PartitionRound int `json:"partition_round,omitempty"`
	// SourceDeathRound is the round in which the configured round-1
	// source node died.
	SourceDeathRound int `json:"source_death_round,omitempty"`
	// Deaths counts dead nodes at the end of the run.
	Deaths int `json:"deaths"`
	// DeliveredRounds counts rounds whose broadcast reached every alive
	// node.
	DeliveredRounds int `json:"delivered_rounds"`
	// TotalEnergyJ is the cumulative radio energy of all rounds.
	TotalEnergyJ float64      `json:"total_energy_j"`
	Curve        []CurvePoint `json:"curve,omitempty"`
}

// Checkpointer persists a cell's round-loop state between calls, so an
// interrupted RunCell resumes instead of restarting. Load returns the
// last saved state (ok=false when none); Save replaces it. The state
// is opaque JSON produced by the engine; resumed runs are
// byte-identical to uninterrupted ones because encoding/json
// round-trips float64 exactly.
type Checkpointer interface {
	Load() ([]byte, bool)
	Save([]byte) error
}

// ckptState is the serialized round-loop state. Dead nodes and down
// links are stored as dense/link indices; everything else the loop
// needs is recomputable from (spec, cell, Round).
type ckptState struct {
	Round      int        `json:"round"`
	Battery    []float64  `json:"battery"`
	Dead       []int32    `json:"dead,omitempty"`
	LinkDown   []int32    `json:"link_down,omitempty"`
	PrevSource int32      `json:"prev_source"`
	Report     CellReport `json:"report"`
	EnergyJ    float64    `json:"energy_j"`
}

// RunCell executes one cell's round loop. ck, when non-nil, is
// consulted for a previous checkpoint to resume from and receives a
// fresh checkpoint every Spec.CheckpointEvery rounds; the final report
// is byte-identical whether or not the run was interrupted.
func RunCell(ctx context.Context, spec Spec, index int, ck Checkpointer) (CellReport, error) {
	if err := spec.validate(); err != nil {
		return CellReport{}, err
	}
	if index < 0 || index >= spec.NumCells() {
		return CellReport{}, fmt.Errorf("life: cell index %d outside study of %d cells", index, spec.NumCells())
	}
	cell := spec.CellAt(index)
	st, err := newCellState(spec, cell)
	if err != nil {
		return CellReport{}, fmt.Errorf("life: cell %d: %w", index, err)
	}
	if ck != nil {
		if raw, ok := ck.Load(); ok {
			if err := st.restore(raw); err != nil {
				return CellReport{}, fmt.Errorf("life: cell %d checkpoint: %w", index, err)
			}
		}
	}
	every := spec.CheckpointEvery
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	for !st.stopped() {
		if err := ctx.Err(); err != nil {
			return CellReport{}, err
		}
		if err := st.round(); err != nil {
			return CellReport{}, err
		}
		if ck != nil && st.rep.Rounds%every == 0 && !st.stopped() {
			raw, err := st.snapshot()
			if err != nil {
				return CellReport{}, err
			}
			if err := ck.Save(raw); err != nil {
				return CellReport{}, fmt.Errorf("life: cell %d checkpoint save: %w", index, err)
			}
		}
		st.quiet(every)
	}
	return st.finish(), nil
}

// cellState is one cell's mutable round-loop state.
type cellState struct {
	spec Spec
	cell Cell

	v        int       // node count
	srcIdx   int32     // the configured round-1 source
	battery  []float64 // remaining Joules per dense index
	dead     []bool
	deadN    int
	links    []sim.IndexLink // the full link table, id = slice position
	linkDown []bool          // per link id
	prevSrc  int32           // source of the previous round (dense index)
	energyJ  float64
	rep      CellReport

	// sess is the round-persistent simulation session the round loop
	// drives: deaths and link flips are applied to it incrementally,
	// once, as they happen.
	sess *sim.Session
	// last memoizes the session's previous Result (valid until the next
	// Run, Reset or mutation) and lastSrc its source. The protocols are
	// deterministic and the round config is fixed — validate rejects
	// Trace, and Config.Channel is a pure function of (slot, tx, rx) —
	// so a round on an unchanged graph from the same source repeats
	// the previous broadcast exactly. Every graph mutation clears last.
	last    *sim.Result
	lastSrc int32
}

// newCellState builds the initial state of a cell: full batteries,
// every link up, the configured source as "previous" so round-robin
// starts right after it. The churn chain is burned in here — before
// round 1 — so both checkpointed and fresh runs see the same chain.
func newCellState(spec Spec, cell Cell) (*cellState, error) {
	sess, err := sim.NewSession(spec.Topology, spec.Protocol, spec.Config)
	if err != nil {
		return nil, err
	}
	v := spec.Topology.NumNodes()
	st := &cellState{
		spec:    spec,
		cell:    cell,
		v:       v,
		srcIdx:  int32(spec.Topology.Index(spec.Source)),
		battery: make([]float64, v),
		dead:    make([]bool, v),
		sess:    sess,
	}
	for i := range st.battery {
		st.battery[i] = spec.BudgetJ
	}
	st.prevSrc = st.srcIdx
	if cell.PFail > 0 {
		st.links = sim.LinksOf(spec.Topology)
		st.linkDown = make([]bool, len(st.links))
		for b := 1; b <= spec.BurnInRounds; b++ {
			st.churnStep(b)
		}
	}
	st.rep = CellReport{
		Strategy: string(cell.Strategy),
		PFail:    cell.PFail,
		PNew:     spec.PNew,
		Rep:      cell.Rep,
		Seed:     cell.Seed,
	}
	return st, nil
}

// stopped reports whether the round loop has reached a terminal state:
// the round budget, fewer than two alive nodes, or — under the static
// strategy — a dead source.
func (st *cellState) stopped() bool {
	if st.rep.Rounds >= st.spec.MaxRounds {
		return true
	}
	if st.v-st.deadN <= 1 {
		return true
	}
	if st.cell.Strategy == Static && st.dead[st.srcIdx] {
		return true
	}
	return false
}

// pickSource chooses the round's broadcast origin under the cell's
// strategy. Round 1 always originates at the configured source.
func (st *cellState) pickSource() int32 {
	if st.rep.Rounds == 0 {
		return st.srcIdx
	}
	switch st.cell.Strategy {
	case RoundRobin:
		for off := 1; off <= st.v; off++ {
			i := (int(st.prevSrc) + off) % st.v
			if !st.dead[i] {
				return int32(i)
			}
		}
	case Residual:
		best := int32(-1)
		for i := 0; i < st.v; i++ {
			if st.dead[i] {
				continue
			}
			if best < 0 || st.battery[i] > st.battery[best] {
				best = int32(i)
			}
		}
		return best
	}
	return st.srcIdx
}

// churn advances the link Markov chain for live round r, which is
// chain step BurnInRounds+r: burn-in consumed the earlier steps.
func (st *cellState) churn(round int) {
	if st.cell.PFail == 0 {
		return
	}
	st.churnStep(st.spec.BurnInRounds + round)
}

// churnStep advances the chain one step: an up link fails with
// probability PFail, a down link recovers with probability PNew, both
// decided by the same counter-based uniform sim.ChurnUnit(cellSeed,
// step, linkID) — keyed by what is being decided, so replays, resume
// and worker count cannot shift a draw. Flips are mirrored into the
// session as they happen.
//
// Draws a state transition cannot use are skipped entirely: with
// p_fail == 0 and p_new == 0 the whole sweep is dead weight, and with
// p_new == 0 (permanent failures) down links need no uniform. Skipping
// is byte-identical because ChurnUnit is keyed by (seed, step, id) —
// an unconsumed draw can never shift another link's uniform — and a
// threshold of zero rejects every u in [0, 1) anyway; the churn-zero
// pin tests lock this.
func (st *cellState) churnStep(step int) {
	pf, pn := st.cell.PFail, st.spec.PNew
	if pf == 0 && pn == 0 {
		return
	}
	// One hoisted key per step: each link's draw is one absorb and an
	// integer compare, the verdict ChurnUnit(seed, step, id) < p gives.
	key := sim.NewChurnKey(st.cell.Seed, step)
	fail, heal := sim.NewChurnCut(pf), sim.NewChurnCut(pn)
	for id := range st.links {
		if st.linkDown[id] {
			if pn > 0 && key.Fires(int32(id), heal) {
				st.setLink(id, false)
			}
		} else if pf > 0 && key.Fires(int32(id), fail) {
			st.setLink(id, true)
		}
	}
}

// setLink records one link state change, forwarding it to the session
// (the ids are valid by construction: st.links and the session share
// the LinksOf enumeration).
func (st *cellState) setLink(id int, down bool) {
	st.linkDown[id] = down
	st.last = nil
	if down {
		_ = st.sess.SetLinkDown(id)
	} else {
		_ = st.sess.SetLinkUp(id)
	}
}

// round executes one broadcast round: rotate and churn (begin), run
// the broadcast — or reuse the memoized one — on the session, then
// account for it.
func (st *cellState) round() error {
	src, err := st.begin()
	if err != nil {
		return err
	}
	res := st.last
	if res == nil || src != st.lastSrc {
		if res, err = st.sess.Run(st.spec.Topology.At(int(src))); err != nil {
			return fmt.Errorf("life: round %d: %w", st.rep.Rounds+1, err)
		}
		st.last, st.lastSrc = res, src
	}
	st.account(src, res)
	return nil
}

// begin opens the next round: it picks the round's source under the
// cell's strategy and advances the link churn chain.
func (st *cellState) begin() (int32, error) {
	r := st.rep.Rounds + 1
	src := st.pickSource()
	if src < 0 || st.dead[src] {
		return 0, fmt.Errorf("life: round %d has no alive source", r)
	}
	st.churn(r)
	return src, nil
}

// account closes the round that begin opened from src, given its
// broadcast: it debits batteries, marks deaths, and records the
// round's report fields and curve sample.
func (st *cellState) account(src int32, res *sim.Result) {
	r := st.rep.Rounds + 1
	st.prevSrc = src
	st.rep.Rounds = r
	st.energyJ += res.EnergyJ

	reach := res.Reachability()
	if res.FullyReached() {
		st.rep.DeliveredRounds++
	} else if st.rep.PartitionRound == 0 {
		st.rep.PartitionRound = r
	}

	// Deplete batteries and mark deaths. PerNodeEnergyJ is dense-index
	// sized with zeros for down nodes, so one pass covers everyone.
	battery, dead := st.battery, st.dead
	for i, e := range res.PerNodeEnergyJ {
		if e == 0 || dead[i] {
			continue
		}
		battery[i] -= e
		if battery[i] <= 0 {
			battery[i] = 0
			dead[i] = true
			st.deadN++
			st.last = nil
			_ = st.sess.SetNodeDown(i) // i ranges over PerNodeEnergyJ: always in-mesh
			if st.rep.FirstDeathRound == 0 {
				st.rep.FirstDeathRound = r
			}
			if int32(i) == st.srcIdx && st.rep.SourceDeathRound == 0 {
				st.rep.SourceDeathRound = r
			}
		}
	}
	for _, frac := range milestoneFracs {
		if float64(st.deadN) >= frac*float64(st.v) && !st.hasMilestone(frac) {
			st.rep.DeadMilestones = append(st.rep.DeadMilestones, Milestone{Frac: frac, Round: r})
		}
	}

	if st.sampleAt(r) || st.stopped() {
		st.rep.Curve = append(st.rep.Curve, CurvePoint{
			Round:         r,
			Alive:         st.v - st.deadN,
			Reachability:  reach,
			MeanResidualJ: st.meanResidual(),
		})
	}
}

func (st *cellState) hasMilestone(frac float64) bool {
	for _, m := range st.rep.DeadMilestones {
		if m.Frac == frac {
			return true
		}
	}
	return false
}

// sampleAt reports whether round r is a regular curve sample: at most
// ~64 evenly spaced samples per cell, plus the final round.
func (st *cellState) sampleAt(r int) bool { return r%st.sampleEvery() == 0 }

// sampleEvery is the curve's sampling cadence in rounds.
func (st *cellState) sampleEvery() int { return max(st.spec.MaxRounds/64, 1) }

func (st *cellState) meanResidual() float64 {
	sum := 0.0
	for _, b := range st.battery {
		sum += b
	}
	return sum / float64(st.v)
}

// snapshot serializes the loop state for a Checkpointer.
func (st *cellState) snapshot() ([]byte, error) {
	s := ckptState{
		Round:      st.rep.Rounds,
		Battery:    st.battery,
		PrevSource: st.prevSrc,
		Report:     st.rep,
		EnergyJ:    st.energyJ,
	}
	for i, d := range st.dead {
		if d {
			s.Dead = append(s.Dead, int32(i))
		}
	}
	for id, d := range st.linkDown {
		if d {
			s.LinkDown = append(s.LinkDown, int32(id))
		}
	}
	return json.Marshal(s)
}

// restore rewinds the state to a snapshot taken by the same (spec,
// cell) pair.
func (st *cellState) restore(raw []byte) error {
	var s ckptState
	if err := json.Unmarshal(raw, &s); err != nil {
		return err
	}
	if len(s.Battery) != st.v {
		return fmt.Errorf("checkpoint is for a %d-node mesh, study has %d", len(s.Battery), st.v)
	}
	if s.Round != s.Report.Rounds {
		return fmt.Errorf("checkpoint round %d disagrees with its report (%d)", s.Round, s.Report.Rounds)
	}
	copy(st.battery, s.Battery)
	for i := range st.dead {
		st.dead[i] = false
	}
	st.deadN = 0
	for _, i := range s.Dead {
		if int(i) < 0 || int(i) >= st.v {
			return fmt.Errorf("checkpoint dead index %d outside mesh", i)
		}
		st.dead[i] = true
		st.deadN++
	}
	if st.linkDown != nil {
		for i := range st.linkDown {
			st.linkDown[i] = false
		}
		for _, id := range s.LinkDown {
			if int(id) < 0 || int(id) >= len(st.linkDown) {
				return fmt.Errorf("checkpoint link id %d outside table", id)
			}
			st.linkDown[id] = true
		}
	} else if len(s.LinkDown) > 0 {
		return fmt.Errorf("checkpoint has down links but the cell has no churn")
	}
	if s.PrevSource < 0 || int(s.PrevSource) >= st.v {
		return fmt.Errorf("checkpoint prev_source %d outside mesh", s.PrevSource)
	}
	st.prevSrc = s.PrevSource
	st.rep = s.Report
	st.energyJ = s.EnergyJ
	st.syncSession()
	return nil
}

// syncSession deterministically reconstructs the session's live graph
// from the restored dead/linkDown state: reset to pristine, then
// replay every failure. The resulting adjacency rows are identical to
// the ones an uninterrupted session would hold (each row is a pure
// filter of the pristine row by the current node/link state, whatever
// mutation order produced it), so resumed runs stay byte-identical.
func (st *cellState) syncSession() {
	st.last = nil
	st.sess.Reset()
	for i, d := range st.dead {
		if d {
			_ = st.sess.SetNodeDown(i)
		}
	}
	for id, d := range st.linkDown {
		if d {
			_ = st.sess.SetLinkDown(id)
		}
	}
}

// finish seals the report.
func (st *cellState) finish() CellReport {
	st.rep.Deaths = st.deadN
	st.rep.TotalEnergyJ = st.energyJ
	return st.rep
}
