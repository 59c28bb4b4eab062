// Package mc is the Monte Carlo reliability engine: it replays one
// broadcast configuration many times under sampled packet loss and
// node failures and aggregates the replications into reliability
// curves — reachability, delay, energy and transmission counts as
// means with 95% confidence intervals per (loss rate, failure rate)
// grid point.
//
// # Determinism
//
// A replication is a pure function of its derived seed: packet loss
// and node failures come from counter-based draws (internal/sim's
// keyed PRNG), never from shared stateful generators, so neither the
// worker count nor completion order can shift a draw. Each replication
// is one broadcast on a reused sim.Session (see Sessions below), fanned
// across the internal/sweep worker pool as its own task and written
// into its own slot; every aggregate is accumulated afterwards in
// (point, replication) order, so an mc report is byte-identical for any
// -workers value — the stochastic extension of the sweep engine's
// parallel==serial contract, proven by the differential tests and
// pinned by the golden studies in this package. Replication seeds are shared across grid points (common
// random numbers), which couples the curves: per seed, raising the
// loss rate can only remove deliveries.
//
// # Sessions
//
// A study keeps one sim.Session per busy pool worker, bound to the
// study's topology, protocol and base config, with the base Down and
// DownLinks lists applied once. A replication fails its sampled nodes
// with SetNodeDown, runs under its seeded loss channel, copies the
// Record counters out of the session's Result arena and revives the
// nodes with SetNodeUp. A replication thus allocates no Result and
// copies no adjacency, and the session graph equals the one sim.Run
// builds for the merged Down list, so the records are the one-shot
// path's byte for byte.
package mc

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/stats"
	"wsnbcast/internal/sweep"
)

// Spec describes one reliability study: N seeded replications of a
// (topology, protocol, source, config) broadcast at every point of the
// loss-rate x failure-rate grid.
type Spec struct {
	Topology grid.Topology
	Protocol sim.Protocol
	Source   grid.Coord
	// Config is the base simulation config; sampled failures are merged
	// into its Down list and the loss channel replaces its Channel.
	Config sim.Config
	// Seed is the study seed; replication r of every grid point runs
	// under sim.ReplicationSeed(Seed, r).
	Seed uint64
	// Replications is the number of seeded replications per grid point
	// (>= 1).
	Replications int
	// LossRates and FailureRates span the study grid; nil means {0}.
	// Rates must lie in [0, 1].
	LossRates    []float64
	FailureRates []float64
	// Workers bounds the sweep worker pool (<= 0: GOMAXPROCS).
	Workers int
}

func (s Spec) validate() error {
	if s.Topology == nil || s.Protocol == nil {
		return fmt.Errorf("mc: spec needs a topology and a protocol")
	}
	if !s.Topology.Contains(s.Source) {
		return fmt.Errorf("mc: source %s outside the %s mesh", s.Source, s.Topology.Kind())
	}
	if s.Replications < 1 {
		return fmt.Errorf("mc: replications must be >= 1 (got %d)", s.Replications)
	}
	for _, r := range s.LossRates {
		if r < 0 || r > 1 || math.IsNaN(r) {
			return fmt.Errorf("mc: loss rate %g outside [0, 1]", r)
		}
	}
	for _, r := range s.FailureRates {
		if r < 0 || r > 1 || math.IsNaN(r) {
			return fmt.Errorf("mc: failure rate %g outside [0, 1]", r)
		}
	}
	return nil
}

// Record is one replication's outcome — the JSONL row the wsnmc CLI
// emits, and the raw material of the per-point aggregates.
type Record struct {
	LossRate     float64 `json:"loss_rate"`
	FailureRate  float64 `json:"failure_rate"`
	Rep          int     `json:"rep"`
	Seed         uint64  `json:"seed"` // derived replication seed
	Reached      int     `json:"reached"`
	Total        int     `json:"total"`
	Down         int     `json:"down"`
	Reachability float64 `json:"reachability"`
	Delay        int     `json:"delay"`
	Tx           int     `json:"tx"`
	Rx           int     `json:"rx"`
	Lost         int     `json:"lost"`
	Collisions   int     `json:"collisions"`
	Repairs      int     `json:"repairs"`
	EnergyJ      float64 `json:"energy_j"`
}

// Metric summarizes one quantity over a point's replications: the mean
// with its normal-approximation 95% confidence half-width, plus the
// observed extremes.
type Metric struct {
	Mean float64 `json:"mean"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func metric(r *stats.Running) Metric {
	return Metric{Mean: r.Mean(), CI95: r.CI95(), Min: r.Min(), Max: r.Max()}
}

// Point aggregates the replications of one (loss rate, failure rate)
// grid point.
type Point struct {
	LossRate     float64 `json:"loss_rate"`
	FailureRate  float64 `json:"failure_rate"`
	Replications int     `json:"replications"`
	// FullyReached counts replications in which every live node decoded
	// the message.
	FullyReached int    `json:"fully_reached"`
	Reachability Metric `json:"reachability"`
	Delay        Metric `json:"delay"`
	EnergyJ      Metric `json:"energy_j"`
	Tx           Metric `json:"tx"`
	Repairs      Metric `json:"repairs"`
}

// Report is the aggregated study. Points are ordered failure-rate
// major, loss rate minor, both ascending — each failure rate's run of
// points is one reachability-vs-loss-rate curve, and fixing a loss
// rate across runs reads out the reachability-vs-failure-rate curve.
type Report struct {
	Topology     string  `json:"topology"`
	Nodes        int     `json:"nodes"`
	Protocol     string  `json:"protocol"`
	Source       string  `json:"source"`
	Seed         uint64  `json:"seed"`
	Replications int     `json:"replications"`
	Points       []Point `json:"points"`
	// Records carries every replication (point-major, replication
	// minor); the CLI writes them out as JSONL.
	Records []Record `json:"-"`
}

// Curve returns the report's points at the given failure rate, in
// ascending loss-rate order: one reachability-vs-loss-rate curve.
func (r *Report) Curve(failureRate float64) []Point {
	var out []Point
	for _, p := range r.Points {
		if p.FailureRate == failureRate {
			out = append(out, p)
		}
	}
	return out
}

// CanonicalRates returns the canonical form of a grid axis: the input
// sorted ascending and deduplicated, or {0} when empty. Run applies it
// to both axes, and the scenario layer applies the same function when
// canonicalizing documents so that equivalent rate lists share one
// cache identity.
func CanonicalRates(in []float64) []float64 {
	if len(in) == 0 {
		return []float64{0}
	}
	out := append([]float64(nil), in...)
	sort.Float64s(out)
	dedup := out[:1]
	for _, r := range out[1:] {
		if r != dedup[len(dedup)-1] {
			dedup = append(dedup, r)
		}
	}
	return dedup
}

// RunPoint runs the study restricted to a single (loss, failure) grid
// point and returns that point's aggregate. Replication seeds depend
// only on the replication index — never on the grid shape — and every
// point aggregates its own replications independently, so the returned
// Point is byte-identical to the corresponding entry of a full-grid
// Run. This is the decomposition the distributed job coordinator
// shards on: one RunPoint per grid point, merged in (failure-major,
// loss-minor) order, reproduces the serial study exactly.
func RunPoint(ctx context.Context, spec Spec, loss, failure float64) (Point, error) {
	spec.LossRates = []float64{loss}
	spec.FailureRates = []float64{failure}
	rep, err := Run(ctx, spec)
	if err != nil {
		return Point{}, err
	}
	return rep.Points[0], nil
}

// worker is one pool worker's replication context: a session holding
// the study's base graph, and the scratch list of the nodes the
// current replication failed.
type worker struct {
	sess   *sim.Session
	failed []int32
}

// newWorker binds a session to the spec and applies the base
// Config.Down and Config.DownLinks, checking them in sim.Run's order
// and with its messages so a bad list fails every replication exactly
// as the one-shot path did.
func newWorker(spec Spec) (*worker, error) {
	t := spec.Topology
	cfg := spec.Config
	cfg.Down, cfg.DownLinks = nil, nil
	sess, err := sim.NewSession(t, spec.Protocol, cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range spec.Config.Down {
		if !t.Contains(c) {
			return nil, fmt.Errorf("sim: down node %s outside mesh", c)
		}
		_ = sess.SetNodeDown(t.Index(c)) // in the mesh: checked above
	}
	if sess.NodeDown(t.Index(spec.Source)) {
		return nil, fmt.Errorf("sim: source %s is down", spec.Source)
	}
	if len(spec.Config.DownLinks) > 0 {
		cut := make(map[sim.IndexLink]bool, len(spec.Config.DownLinks))
		for _, lk := range spec.Config.DownLinks {
			if !t.Contains(lk.A) || !t.Contains(lk.B) {
				return nil, fmt.Errorf("sim: down link %s-%s outside %s mesh", lk.A, lk.B, t.Kind())
			}
			a, b := int32(t.Index(lk.A)), int32(t.Index(lk.B))
			cut[sim.IndexLink{A: min(a, b), B: max(a, b)}] = true
		}
		// Pairs that are not lattice links match no id: no-ops, as in
		// sim.Run.
		for id := 0; id < sess.NumLinks(); id++ {
			if cut[sess.Link(id)] {
				_ = sess.SetLinkDown(id) // id < NumLinks
			}
		}
	}
	return &worker{sess: sess}, nil
}

// replicate runs replication rep of one grid point on the worker's
// session: the sampled failures that are not already down join the
// base graph, the seeded Bernoulli loss channel replaces the base
// Channel, and once the counters are copied out the failed nodes are
// revived, restoring the base graph for the next replication.
func (w *worker) replicate(spec Spec, loss, fail float64, rep int, seed uint64) (Record, error) {
	w.failed = sim.AppendFailures(w.failed[:0], spec.Topology, spec.Source, seed, fail)
	n := 0
	for _, i := range w.failed {
		if !w.sess.NodeDown(int(i)) { // base-down nodes stay down
			_ = w.sess.SetNodeDown(int(i)) // sampled indices are in the mesh
			w.failed[n] = i
			n++
		}
	}
	w.failed = w.failed[:n]
	defer func() {
		for _, i := range w.failed {
			_ = w.sess.SetNodeUp(int(i))
		}
	}()
	w.sess.SetChannel(sim.NewBernoulliLoss(seed, loss))
	res, err := w.sess.Run(spec.Source)
	if err != nil {
		return Record{}, err
	}
	return Record{
		LossRate: loss, FailureRate: fail,
		Rep: rep, Seed: seed,
		Reached: res.Reached, Total: res.Total, Down: res.Down,
		Reachability: res.Reachability(), Delay: res.Delay,
		Tx: res.Tx, Rx: res.Rx, Lost: res.Lost,
		Collisions: res.Collisions, Repairs: res.Repairs,
		EnergyJ: res.EnergyJ,
	}, nil
}

// workerList is a study's free list of worker sessions. A task takes one,
// or builds one when all are busy, and returns it when done, so a
// study builds at most one session per busy pool worker and every
// session serves every grid point.
type workerList struct {
	spec Spec
	mu   sync.Mutex
	free []*worker
}

func (ws *workerList) get() (*worker, error) {
	ws.mu.Lock()
	if n := len(ws.free); n > 0 {
		w := ws.free[n-1]
		ws.free = ws.free[:n-1]
		ws.mu.Unlock()
		return w, nil
	}
	ws.mu.Unlock()
	return newWorker(ws.spec)
}

func (ws *workerList) put(w *worker) {
	ws.mu.Lock()
	ws.free = append(ws.free, w)
	ws.mu.Unlock()
}

// Run executes the study: Replications seeded replications per grid
// point, one sweep-pool task each, gathered and aggregated in (point,
// replication) order. The first failed replication, in that order,
// aborts with its identity; a cancelled context aborts with a
// partial-report error naming how many replications had completed.
func Run(ctx context.Context, spec Spec) (*Report, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	lossRates := CanonicalRates(spec.LossRates)
	failRates := CanonicalRates(spec.FailureRates)

	type gridPoint struct {
		loss, fail float64
	}
	var points []gridPoint
	for _, fr := range failRates {
		for _, lr := range lossRates {
			points = append(points, gridPoint{loss: lr, fail: fr})
		}
	}

	// The replication seed depends only on the replication index, so
	// grid points share uniforms (common random numbers).
	seeds := make([]uint64, spec.Replications)
	for r := range seeds {
		seeds[r] = sim.ReplicationSeed(spec.Seed, r)
	}

	// One task per (point, replication), each writing only its own
	// record slot; the slots are already in point-major, replication-
	// minor order, so they become the report's Records as they stand.
	recs := make([]Record, len(points)*spec.Replications)
	ws := &workerList{spec: spec}
	fns := make([]func() error, len(recs))
	for i := range fns {
		fns[i] = func() error {
			w, err := ws.get()
			if err != nil {
				return err
			}
			defer ws.put(w)
			pt, r := points[i/spec.Replications], i%spec.Replications
			recs[i], err = w.replicate(spec, pt.loss, pt.fail, r, seeds[r])
			return err
		}
	}
	errs, err := sweep.New(spec.Workers).RunFuncs(ctx, fns)
	if err != nil {
		// RunFuncs hands its own context error to exactly the tasks the
		// cancellation kept from starting.
		done := 0
		for _, e := range errs {
			if e != err {
				done++
			}
		}
		return nil, fmt.Errorf("mc: cancelled after %d/%d replications: %w",
			done, len(recs), err)
	}

	rep := &Report{
		Topology:     spec.Topology.Kind().String(),
		Nodes:        spec.Topology.NumNodes(),
		Protocol:     spec.Protocol.Name(),
		Source:       spec.Source.String(),
		Seed:         spec.Seed,
		Replications: spec.Replications,
		Points:       make([]Point, 0, len(points)),
		Records:      recs,
	}
	for pi, pt := range points {
		var reach, delay, energy, tx, repairs stats.Running
		p := Point{LossRate: pt.loss, FailureRate: pt.fail, Replications: spec.Replications}
		for r := 0; r < spec.Replications; r++ {
			i := pi*spec.Replications + r
			if errs[i] != nil {
				return nil, fmt.Errorf("mc: replication %d at loss=%g failure=%g: %w",
					r, pt.loss, pt.fail, errs[i])
			}
			rec := recs[i]
			reach.Add(rec.Reachability)
			delay.Add(float64(rec.Delay))
			energy.Add(rec.EnergyJ)
			tx.Add(float64(rec.Tx))
			repairs.Add(float64(rec.Repairs))
			if rec.Reached == rec.Total {
				p.FullyReached++
			}
		}
		p.Reachability = metric(&reach)
		p.Delay = metric(&delay)
		p.EnergyJ = metric(&energy)
		p.Tx = metric(&tx)
		p.Repairs = metric(&repairs)
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}
