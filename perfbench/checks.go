package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// Response checks. Every expected value comes from the generated
// document or from the paper — never from the code under test — except
// where one response is compared with another (hits against misses,
// summaries against rows, the zero-noise Monte Carlo point against the
// deterministic broadcast).

type row struct {
	Source  point   `json:"source"`
	Tx      int     `json:"tx"`
	Rx      int     `json:"rx"`
	EnergyJ float64 `json:"energy_j"`
	Delay   int     `json:"delay"`
	Reached int     `json:"reached"`
	Total   int     `json:"total"`
	Repairs int     `json:"repairs"`
}

type metric struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

type relPoint struct {
	LossRate     float64 `json:"loss_rate"`
	FailureRate  float64 `json:"failure_rate"`
	Replications int     `json:"replications"`
	FullyReached int     `json:"fully_reached"`
	Reachability metric  `json:"reachability"`
	Tx           metric  `json:"tx"`
}

type cell struct {
	Strategy        string  `json:"strategy"`
	PFail           float64 `json:"p_fail"`
	PNew            float64 `json:"p_new"`
	Rounds          int     `json:"rounds"`
	Deaths          int     `json:"deaths"`
	DeliveredRounds int     `json:"delivered_rounds"`
	TotalEnergyJ    float64 `json:"total_energy_j"`
}

type report struct {
	Name            string     `json:"name"`
	Topology        string     `json:"topology"`
	Protocol        string     `json:"protocol"`
	Runs            []row      `json:"runs"`
	BestEnergyJ     float64    `json:"best_energy_j"`
	WorstEnergyJ    float64    `json:"worst_energy_j"`
	MaxDelay        int        `json:"max_delay"`
	Reliability     []relPoint `json:"reliability"`
	ReliabilitySeed uint64     `json:"reliability_seed"`
	Lifetime        []cell     `json:"lifetime"`
	LifetimeSeed    uint64     `json:"lifetime_seed"`
}

// maxDegree is each paper mesh's neighbour count (its name says it).
var maxDegree = map[string]int{"2d3": 3, "2d4": 4, "2d8": 8, "3d6": 6}

// checkBody validates a miss body against its request and returns the
// number of broadcasts it reports: sweep sources, lifetime rounds, or
// Monte Carlo replications plus the deterministic broadcast.
func checkBody(kind string, req request, body []byte) (int, error) {
	var rep report
	if err := json.Unmarshal(body, &rep); err != nil {
		return 0, fmt.Errorf("%s: body is not a report: %v", req.name, err)
	}
	if rep.Name != req.name || rep.Topology != req.topo.Kind {
		return 0, fmt.Errorf("%s: report names %q on %q", req.name, rep.Name, rep.Topology)
	}
	var n int
	var err error
	switch kind {
	case "sweep":
		n, err = checkSweep(req, rep)
	case "lifetime":
		n, err = checkLifetime(req, rep)
	case "job":
		n, err = checkReliability(req, rep)
	default:
		err = fmt.Errorf("unknown kind %q", kind)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", req.name, err)
	}
	return n, nil
}

func checkRow(t topoSpec, r row) error {
	deg := maxDegree[t.Kind]
	switch {
	case r.Total != t.nodes():
		return fmt.Errorf("source %v: total %d, mesh has %d nodes", r.Source, r.Total, t.nodes())
	case r.Reached < 1 || r.Reached > r.Total:
		return fmt.Errorf("source %v: reached %d of %d", r.Source, r.Reached, r.Total)
	case r.Tx < 1 || r.Rx < r.Tx || r.Rx > deg*r.Tx:
		// Every transmission is heard by 1..maxDegree neighbours.
		return fmt.Errorf("source %v: rx %d outside [tx, %d*tx] for tx %d", r.Source, r.Rx, deg, r.Tx)
	case r.Delay < 1 || r.EnergyJ <= 0 || r.Repairs < 0:
		return fmt.Errorf("source %v: delay %d energy %g repairs %d", r.Source, r.Delay, r.EnergyJ, r.Repairs)
	}
	return nil
}

func checkSweep(req request, rep report) (int, error) {
	t := req.topo
	if len(rep.Runs) != t.nodes() {
		return 0, fmt.Errorf("%d rows for %d nodes", len(rep.Runs), t.nodes())
	}
	seen := make(map[point]bool, len(rep.Runs))
	maxDelay, best, worst := 0, math.Inf(1), math.Inf(-1)
	for _, r := range rep.Runs {
		s := r.Source
		if s.Z == 0 {
			s.Z = 1
		}
		l := max(t.L, 1)
		if s.X < 1 || s.X > t.M || s.Y < 1 || s.Y > t.N || s.Z > l || seen[s] {
			return 0, fmt.Errorf("row source %v is off the %dx%dx%d mesh or repeated", r.Source, t.M, t.N, l)
		}
		seen[s] = true
		if err := checkRow(t, r); err != nil {
			return 0, err
		}
		// The paper's protocols reach every node (100% reachability);
		// flooding reaches everyone through the repair pass.
		if r.Reached != r.Total {
			return 0, fmt.Errorf("source %v: reached %d of %d", r.Source, r.Reached, r.Total)
		}
		maxDelay = max(maxDelay, r.Delay)
		best, worst = math.Min(best, r.EnergyJ), math.Max(worst, r.EnergyJ)
	}
	if rep.MaxDelay != maxDelay || rep.BestEnergyJ != best || rep.WorstEnergyJ != worst {
		return 0, fmt.Errorf("summary (%d, %g, %g) disagrees with rows (%d, %g, %g)",
			rep.MaxDelay, rep.BestEnergyJ, rep.WorstEnergyJ, maxDelay, best, worst)
	}
	return len(rep.Runs), nil
}

func checkLifetime(req request, rep report) (int, error) {
	if rep.LifetimeSeed != req.seed {
		return 0, fmt.Errorf("lifetime seed %d, asked %d", rep.LifetimeSeed, req.seed)
	}
	if len(rep.Lifetime) != len(req.strategies)*req.reps {
		return 0, fmt.Errorf("%d cells for %d strategies", len(rep.Lifetime), len(req.strategies))
	}
	rounds := 0
	for i, c := range rep.Lifetime {
		switch {
		case c.Strategy != req.strategies[i/req.reps]:
			return 0, fmt.Errorf("cell %d: strategy %q, asked %q", i, c.Strategy, req.strategies[i/req.reps])
		case c.Rounds < 1 || c.Rounds > req.maxRounds:
			return 0, fmt.Errorf("cell %d: %d rounds outside [1, %d]", i, c.Rounds, req.maxRounds)
		case c.DeliveredRounds > c.Rounds || c.Deaths > req.topo.nodes() || c.TotalEnergyJ <= 0:
			return 0, fmt.Errorf("cell %d: delivered %d of %d rounds, %d deaths, energy %g",
				i, c.DeliveredRounds, c.Rounds, c.Deaths, c.TotalEnergyJ)
		}
		rounds += c.Rounds
	}
	return rounds, nil
}

func checkReliability(req request, rep report) (int, error) {
	if rep.ReliabilitySeed != req.seed {
		return 0, fmt.Errorf("reliability seed %d, asked %d", rep.ReliabilitySeed, req.seed)
	}
	if len(rep.Runs) != 1 {
		return 0, fmt.Errorf("%d deterministic runs, want 1", len(rep.Runs))
	}
	r := rep.Runs[0]
	if err := checkRow(req.topo, r); err != nil {
		return 0, err
	}
	// On a 2D-4 mesh every node has 2..4 neighbours, so the lossless
	// reception count (the degree sum over transmissions) is bounded
	// by 2*Tx and 4*Tx.
	if req.topo.Kind == "2d4" && (r.Rx < 2*r.Tx || r.Reached != r.Total) {
		return 0, fmt.Errorf("deterministic run: rx %d below 2*tx %d or reached %d of %d", r.Rx, 2*r.Tx, r.Reached, r.Total)
	}
	if len(rep.Reliability) != len(req.loss)*len(req.fail) {
		return 0, fmt.Errorf("%d grid points, want %d", len(rep.Reliability), len(req.loss)*len(req.fail))
	}
	reps := 1
	for k, p := range rep.Reliability {
		wantFail, wantLoss := req.fail[k/len(req.loss)], req.loss[k%len(req.loss)]
		switch {
		case p.FailureRate != wantFail || p.LossRate != wantLoss:
			return 0, fmt.Errorf("point %d at (loss %g, fail %g), want (%g, %g)", k, p.LossRate, p.FailureRate, wantLoss, wantFail)
		case p.Replications != req.reps || p.FullyReached > p.Replications:
			return 0, fmt.Errorf("point %d: %d replications, %d fully reached", k, p.Replications, p.FullyReached)
		case p.Reachability.Min < 0 || p.Reachability.Max > 1:
			return 0, fmt.Errorf("point %d: reachability outside [0, 1]", k)
		}
		if wantLoss == 0 && wantFail == 0 {
			// Without noise every replication is the deterministic
			// broadcast.
			if p.FullyReached != p.Replications || p.Tx.Min != float64(r.Tx) || p.Tx.Max != float64(r.Tx) {
				return 0, fmt.Errorf("noise-free point disagrees with the deterministic run (tx %d)", r.Tx)
			}
		}
		reps += p.Replications
	}
	return reps, nil
}

// anchorDoc is the paper's 2D-4 32x16 mesh under its own protocol.
var anchorDoc = mustJSON(map[string]any{
	"name": "anchor-2d4-32x16", "topology": topoSpec{Kind: "2d4", M: 32, N: 16}, "protocol": "paper",
})

// checkAnchor holds the sweep to the paper: Table 3 gives 208
// transmissions for the best source of the 2D-4 32x16 mesh and Table 5
// a worst-case delay of 45 slots.
func checkAnchor(body []byte) error {
	var rep report
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("anchor: %v", err)
	}
	if len(rep.Runs) != 512 {
		return fmt.Errorf("anchor: %d rows, want 512", len(rep.Runs))
	}
	minTx, maxDelay := math.MaxInt, 0
	for _, r := range rep.Runs {
		minTx, maxDelay = min(minTx, r.Tx), max(maxDelay, r.Delay)
	}
	if minTx != 208 || maxDelay != 45 {
		return fmt.Errorf("anchor: min tx %d, max delay %d; the paper reads 208 and 45", minTx, maxDelay)
	}
	return nil
}

// degree is a node's neighbour count in the paper's mesh definitions
// (1-based coordinates; the 2D-3 brick wall links (x, y) up to (x, y+1)
// when x+y is even).
func degree(t topoSpec, c point) int {
	in := func(x, y, z int) bool {
		return x >= 1 && x <= t.M && y >= 1 && y <= t.N && z >= 1 && z <= max(t.L, 1)
	}
	z := max(c.Z, 1)
	d := 0
	count := func(dx, dy, dz int) {
		if in(c.X+dx, c.Y+dy, z+dz) {
			d++
		}
	}
	switch t.Kind {
	case "2d3":
		count(-1, 0, 0)
		count(1, 0, 0)
		if (c.X+c.Y)%2 == 0 {
			count(0, 1, 0)
		} else {
			count(0, -1, 0)
		}
	case "2d4", "3d6":
		count(-1, 0, 0)
		count(1, 0, 0)
		count(0, -1, 0)
		count(0, 1, 0)
		if t.Kind == "3d6" {
			count(0, 0, -1)
			count(0, 0, 1)
		}
	case "2d8":
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				if dx != 0 || dy != 0 {
					count(dx, dy, 0)
				}
			}
		}
	}
	return d
}
