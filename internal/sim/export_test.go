package sim

import (
	"slices"
	"sync/atomic"

	"wsnbcast/internal/grid"
)

// Test-only knob for the large-grid engine threshold. The engine
// selects its neighbor source by node count; forcing the threshold
// lets the differential tests drive both paths — the implicit indexer
// on tiny meshes, the materialized small-grid path on huge ones —
// against the same frozen oracle. The setter returns a restore
// function for defer; the knob is not safe to change concurrently
// with Runs.

// SetLargeGridThresholdForTest overrides largeGridNodes: 0 forces the
// implicit path (and cache gating) at every size, a huge value forces
// the materialized small-grid path everywhere.
func SetLargeGridThresholdForTest(n int) (restore func()) {
	old := largeGridNodes
	largeGridNodes = n
	return func() { largeGridNodes = old }
}

// AdjCacheHas reports whether a materialized adjacency is cached for
// t's (kind, size) — the large-grid tests assert it stays absent.
func AdjCacheHas(t grid.Topology) bool {
	m, n, l := t.Size()
	_, ok := adjCache.Load(adjKey{t.Kind(), m, n, l})
	return ok
}

// PlanCacheHas reports whether the unbounded small-grid plan cache
// holds an entry for (t, p, src) — large grids must use the bounded
// LRU instead.
func PlanCacheHas(t grid.Topology, p Protocol, src grid.Coord) bool {
	m, n, l := t.Size()
	_, ok := planCache.Load(planKey{kind: t.Kind(), m: m, n: n, l: l, src: t.Index(src), proto: p})
	return ok
}

// RunLoopForBenchmark drives the full schedule/repair loop but skips
// Result assembly, isolating the engine's steady-state allocation: the
// per-node DecodeSlot/TxSlots/PerNodeEnergyJ arrays a real Run must
// hand to the caller dominate whole-Run B/op at large N and would mask
// the arena's O(N)-bit claim.
func RunLoopForBenchmark(t grid.Topology, p Protocol, src grid.Coord, cfg Config) error {
	e, err := runLoop(t, p, src, cfg)
	if e != nil {
		e.release()
	}
	return err
}

// resumedReplays counts, across the test binary, every replay that
// resumed at a slot S > 0 instead of restarting from slot 0.
var resumedReplays atomic.Int64

func init() {
	resumeHook = func(S int) {
		if S > 0 {
			resumedReplays.Add(1)
		}
	}
}

// ResumedReplaysForTest returns the running count of replays that
// resumed at S > 0. Tests read it before and after a run; the
// difference is that run's resumed replay count.
func ResumedReplaysForTest() int64 { return resumedReplays.Load() }

// ReuseSessionForTest releases s and binds it again to (p, cfg), the
// way NewSession binds a session it takes from s's pool. A sync.Pool
// may drop what it is given (the race detector drops some on purpose),
// so tests that must exercise reuse go through here. An invalid cfg
// fails as NewSession would and leaves s held.
func ReuseSessionForTest(s *Session, p Protocol, cfg Config) (*Session, error) {
	cfg, err := sessionConfig(s.topo, p, cfg)
	if err != nil {
		return nil, err
	}
	t, pool := s.topo, s.pool
	s.retire()
	return s.bind(t, p, cfg, pool), nil
}

// RetireForTest releases s as Release does, but keeps it out of the
// pool, and reports how many per-source plans it kept and how many of
// those planCache does not hold.
func RetireForTest(s *Session) (kept, uncached int) {
	s.retire()
	for src, pl := range s.plans {
		kept++
		m, n, l := s.topo.Size()
		v, ok := planCache.Load(planKey{kind: s.topo.Kind(), m: m, n: n, l: l, src: int(src), proto: s.proto})
		if !ok || v.(*relayPlan) != pl {
			uncached++
		}
	}
	return kept, uncached
}

// CheckFrontierForTest makes every frontier planning round also run the
// full uncovered scan and compare the two injection lists, until the
// returned restore is called. rounds reports how many frontier rounds
// were checked since the install and mismatches how many planned a
// list the full scan did not. Not safe to call while Runs are in
// flight.
func CheckFrontierForTest() (rounds, mismatches func() int64, restore func()) {
	var n, bad atomic.Int64
	frontierHook = func(full, frontier []injection) {
		n.Add(1)
		if !slices.Equal(full, frontier) {
			bad.Add(1)
		}
	}
	return n.Load, bad.Load, func() { frontierHook = nil }
}
