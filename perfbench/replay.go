package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/life"
	"wsnbcast/internal/mc"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/sim"
	"wsnbcast/internal/store"
	"wsnbcast/internal/sweep"
)

// The traced run replays each served request by calling the layers'
// public functions in the order the serving path calls them, each call
// wrapped in a span, against a private store. The replay's body must
// be byte-identical to the served one, which shows that the replayed
// calls are the work the server did.

type replayer struct {
	st *store.Store

	mu                         sync.Mutex
	simRuns, simTx, simRepairs int
	rounds, mcReps             int
	sessionProbe               []float64 // one Session.Run on a built session, us
	// runs are the replayed request's sim.Run results, checked after
	// its span closes so the check costs no traced time.
	runs []*sim.Result
}

func newReplayer(dir string) (*replayer, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &replayer{st: st}, nil
}

// checkRuns counts the request's lossless sim.Run results and holds
// each to Rx + Lost = the degree sum over its transmissions, with
// degrees from the paper's mesh definitions rather than from the grid
// package.
func (rp *replayer) checkRuns(t topoSpec) error {
	runs := rp.runs
	rp.runs = nil
	deg := make(map[grid.Coord]int)
	for _, r := range runs {
		sum := 0
		for i, slots := range r.TxSlots {
			if len(slots) == 0 {
				continue
			}
			c := coordOf(t, i)
			d, ok := deg[c]
			if !ok {
				d = degree(t, point{X: c.X, Y: c.Y, Z: c.Z})
				deg[c] = d
			}
			sum += len(slots) * d
		}
		if r.Rx+r.Lost != sum {
			return fmt.Errorf("source %v: rx %d + lost %d, degree sum over transmissions %d", r.Source, r.Rx, r.Lost, sum)
		}
		rp.simRuns++
		rp.simTx += r.Tx
		rp.simRepairs += r.Repairs
	}
	return nil
}

// coordOf maps a dense node index to its coordinate, x fastest, then
// y, then z: the order every report lists its sources in.
func coordOf(t topoSpec, i int) grid.Coord {
	return grid.C3(1+i%t.M, 1+(i/t.M)%t.N, 1+i/(t.M*t.N))
}

// replay re-runs one request under a tracer and checks its body
// against the served one.
func (rp *replayer) replay(kind string, req request, hit bool, served []byte) (*tracer, error) {
	tr := newTracer()
	body, err := rp.replayRequest(tr, kind, req, hit)
	tr.finish()
	if err == nil {
		err = rp.checkRuns(req.topo)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: replay: %w", req.name, err)
	}
	if !hit && !bytes.Equal(body, served) {
		return nil, fmt.Errorf("%s: replayed body differs from the served body", req.name)
	}
	return tr, nil
}

func (rp *replayer) replayRequest(tr *tracer, kind string, req request, hit bool) ([]byte, error) {
	ctx := context.Background()
	endpoint := kind
	if kind == "job" {
		endpoint = "scenario"
		if err := tr.run(0, "service.decode", func(int) error {
			var sub struct {
				Kind     string          `json:"kind"`
				Scenario json.RawMessage `json:"scenario"`
			}
			return json.Unmarshal(req.body, &sub)
		}); err != nil {
			return nil, err
		}
	}
	var sc scenario.Scenario
	if err := tr.run(0, "scenario.decode", func(int) (err error) {
		sc, err = scenario.Load(bytes.NewReader(req.scenario))
		return err
	}); err != nil {
		return nil, err
	}
	tr.run(0, "scenario.canonical", func(int) error { sc = sc.Canonical(); return nil })
	// The admission limits compile the document (and size a lifetime
	// study) before anything is cached or run.
	if err := tr.run(0, "scenario.compile", func(int) error {
		if _, _, _, err := sc.Compile(); err != nil {
			return err
		}
		if sc.Lifetime != nil {
			if _, err := sc.LifetimeCellCount(); err != nil {
				return err
			}
			_, err := sc.LifetimeMaxRounds()
			return err
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if kind == "job" {
		return rp.replayJob(ctx, tr, sc, hit)
	}
	var key string
	if err := tr.run(0, "store.key", func(int) (err error) {
		key, err = store.Key(endpoint, sc)
		return err
	}); err != nil {
		return nil, err
	}
	if hit {
		return nil, nil // the server answered from its LRU
	}
	tr.run(0, "store.get", func(int) error { rp.st.Get(key); return nil })
	var rep scenario.Report
	var err error
	switch kind {
	case "sweep":
		rep, err = rp.sweep(ctx, tr, sc)
	case "lifetime":
		rep, err = rp.lifetime(ctx, tr, sc)
	}
	if err != nil {
		return nil, err
	}
	var body []byte
	if err := tr.run(0, "service.marshal", func(int) (err error) {
		body, err = json.MarshalIndent(rep, "", "  ")
		body = append(body, '\n')
		return err
	}); err != nil {
		return nil, err
	}
	return body, tr.run(0, "store.put", func(int) error { return rp.st.Put(key, body) })
}

// sweep replays Scenario.SweepReport: one sim.Run per source on the
// sweep engine's pool, then the report rows and summary.
func (rp *replayer) sweep(ctx context.Context, tr *tracer, sc scenario.Scenario) (scenario.Report, error) {
	var topo grid.Topology
	var p sim.Protocol
	var cfg sim.Config
	if err := tr.run(0, "scenario.compile", func(int) (err error) {
		topo, p, cfg, err = sc.Compile()
		return err
	}); err != nil {
		return scenario.Report{}, err
	}
	results := make([]*sim.Result, topo.NumNodes())
	if err := tr.run(0, "sweep.report", func(id int) error {
		fns := make([]func() error, len(results))
		for i := range fns {
			i := i
			fns[i] = func() error {
				return tr.run(id, "sim.run", func(int) (err error) {
					results[i], err = sim.Run(topo, p, topo.At(i), cfg)
					return err
				})
			}
		}
		return firstErr(sweep.New(nproc()).RunFuncs(ctx, fns))
	}); err != nil {
		return scenario.Report{}, err
	}
	rep := scenario.Report{Name: sc.Name, Topology: sc.Topology.Kind, Protocol: p.Name()}
	tr.run(0, "scenario.assemble", func(int) error {
		rep.Runs = make([]scenario.RunReport, len(results))
		for i, r := range results {
			rep.Runs[i] = runReport(topo.At(i), r)
		}
		scenario.SweepSummary(&rep)
		return nil
	})
	rp.runs = append(rp.runs, results...)
	return rep, nil
}

func runReport(src grid.Coord, r *sim.Result) scenario.RunReport {
	return scenario.RunReport{
		Source: scenario.Point{X: src.X, Y: src.Y, Z: src.Z},
		Tx:     r.Tx, Rx: r.Rx, EnergyJ: r.EnergyJ, Delay: r.Delay,
		Reached: r.Reached, Total: r.Total, Collisions: r.Collisions,
		Duplicates: r.Duplicates, Repairs: r.Repairs,
	}
}

// lifetime replays Scenario.LifetimeReport: the study's cells, each a
// life.RunCell, on the sweep engine's pool, then the merge.
func (rp *replayer) lifetime(ctx context.Context, tr *tracer, sc scenario.Scenario) (scenario.Report, error) {
	var spec life.Spec
	if err := tr.run(0, "scenario.compile", func(int) (err error) {
		spec, err = lifeSpec(sc)
		return err
	}); err != nil {
		return scenario.Report{}, err
	}
	cells := make([]life.CellReport, spec.NumCells())
	if err := tr.run(0, "sweep.cells", func(id int) error {
		fns := make([]func() error, len(cells))
		for i := range fns {
			i := i
			fns[i] = func() error {
				return tr.run(id, "life.cell", func(int) (err error) {
					cells[i], err = life.RunCell(ctx, spec, i, nil)
					return err
				})
			}
		}
		return firstErr(sweep.New(nproc()).RunFuncs(ctx, fns))
	}); err != nil {
		return scenario.Report{}, err
	}
	var rep scenario.Report
	if err := tr.run(0, "scenario.assemble", func(int) (err error) {
		rep, err = sc.LifetimeMerge(cells)
		return err
	}); err != nil {
		return scenario.Report{}, err
	}
	rounds := 0
	for _, c := range cells {
		rounds += c.Rounds
	}
	// One full pristine broadcast on a built session, outside the
	// request: the per-round engine cost life.self_ms subtracts.
	sess, err := sim.NewSession(spec.Topology, spec.Protocol, spec.Config)
	if err == nil {
		_, err = sess.Run(spec.Source)
	}
	if err != nil {
		return scenario.Report{}, err
	}
	t0 := time.Now()
	if _, err := sess.Run(spec.Source); err != nil {
		return scenario.Report{}, err
	}
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	rp.mu.Lock()
	rp.rounds += rounds
	rp.sessionProbe = append(rp.sessionProbe, us)
	rp.mu.Unlock()
	return rep, nil
}

// lifeSpec builds the life.Spec the scenario layer builds for a
// canonical lifetime document.
func lifeSpec(sc scenario.Scenario) (life.Spec, error) {
	topo, p, cfg, err := sc.Compile()
	if err != nil {
		return life.Spec{}, err
	}
	l := sc.Lifetime
	sts := make([]life.Strategy, len(l.Strategies))
	for i, name := range l.Strategies {
		if sts[i], err = life.ParseStrategy(name); err != nil {
			return life.Spec{}, err
		}
	}
	return life.Spec{
		Topology: topo, Protocol: p, Source: sc.Sources[0].Coord(), Config: cfg,
		BudgetJ: l.BudgetJ, MaxRounds: l.MaxRounds, Seed: l.Seed, Replications: l.Replications,
		Strategies: sts, PFail: l.ChurnRates, PNew: l.PNew, BurnInRounds: l.BurnInRounds,
		Workers: nproc(),
	}, nil
}

// replayJob replays a reliability job: submission (identity, store
// lookup, durable record), the grid points on a worker pool — point 0
// the deterministic sim.Run, the rest one mc.RunPoint each, every
// payload written through the store — and the merge. A repeat only
// re-derives the identity: the server finds the finished job.
func (rp *replayer) replayJob(ctx context.Context, tr *tracer, sc scenario.Scenario, hit bool) ([]byte, error) {
	var key string
	if err := tr.run(0, "jobs.submit", func(int) error {
		c := sc.Canonical()
		if _, _, _, err := c.Compile(); err != nil {
			return err
		}
		doc, err := json.Marshal(c)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(append([]byte("scenario:"), doc...))
		if hit {
			return nil
		}
		if key, err = store.Key("scenario", c); err != nil {
			return err
		}
		rp.st.Get(key)
		return rp.st.PutRecord(hex.EncodeToString(sum[:]), doc)
	}); err != nil || hit {
		return nil, err
	}
	topo, p, cfg, err := sc.Compile()
	if err != nil {
		return nil, err
	}
	rel := sc.Reliability
	src := sc.Sources[0]
	points := make([]mc.Point, len(rel.LossRates)*len(rel.FailureRates))
	var run scenario.RunReport
	put := func(parent, index int, v any) error {
		return tr.run(parent, "store.put", func(int) error {
			b, err := json.Marshal(v)
			if err != nil {
				return err
			}
			k, err := store.Key(fmt.Sprintf("jobpoint/scenario/%d", index), sc)
			if err != nil {
				return err
			}
			return rp.st.Put(k, b)
		})
	}
	if err := tr.run(0, "jobs.points", func(id int) error {
		fns := make([]func() error, 1+len(points))
		fns[0] = func() error {
			var r *sim.Result
			if err := tr.run(id, "sim.run", func(int) (err error) {
				r, err = sim.Run(topo, p, src.Coord(), cfg)
				return err
			}); err != nil {
				return err
			}
			rp.runs = append(rp.runs, r)
			run = runReport(src.Coord(), r)
			run.Source = src
			return put(id, 0, run)
		}
		for g := range points {
			g := g
			fns[1+g] = func() error {
				fail := rel.FailureRates[g/len(rel.LossRates)]
				loss := rel.LossRates[g%len(rel.LossRates)]
				if err := tr.run(id, "mc.point", func(int) (err error) {
					points[g], err = mc.RunPoint(ctx, mc.Spec{
						Topology: topo, Protocol: p, Source: src.Coord(), Config: cfg,
						Seed: rel.Seed, Replications: rel.Replications,
					}, loss, fail)
					return err
				}); err != nil {
					return err
				}
				rp.mu.Lock()
				rp.mcReps += points[g].Replications
				rp.mu.Unlock()
				return put(id, 1+g, points[g])
			}
		}
		return firstErr(sweep.New(nproc()).RunFuncs(ctx, fns))
	}); err != nil {
		return nil, err
	}
	var body []byte
	if err := tr.run(0, "jobs.merge", func(int) (err error) {
		rep := scenario.Report{Name: sc.Name, Topology: sc.Topology.Kind, Protocol: p.Name(),
			Runs: []scenario.RunReport{run}, Reliability: points, ReliabilitySeed: rel.Seed}
		body, err = store.EncodeBody(rep)
		return err
	}); err != nil {
		return nil, err
	}
	return body, tr.run(0, "store.put", func(int) error { return rp.st.Put(key, body) })
}

// firstErr folds a RunFuncs outcome into its first error.
func firstErr(errs []error, err error) error {
	if err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
