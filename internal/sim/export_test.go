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
// implicit path (no cached rows) at every size, a huge value forces the
// materialized small-grid path everywhere.
func SetLargeGridThresholdForTest(n int) (restore func()) {
	old := largeGridNodes
	largeGridNodes = n
	return func() { largeGridNodes = old }
}

// SetCacheBytesForTest empties the plans and meshes caches and sets
// each one's byte cap to n; restore empties them again and puts the old
// cap back. Not safe to call while Runs are in flight.
func SetCacheBytesForTest(n int64) (restore func()) {
	old := plans.max
	plans.resetForTest(n)
	meshes.resetForTest(n)
	return func() {
		plans.resetForTest(old)
		meshes.resetForTest(old)
	}
}

func (c *lru[K, V]) resetForTest(max int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max, c.bytes = max, 0
	clear(c.items)
	c.order.Init()
}

// peek returns k's entry without marking it used.
func (c *lru[K, V]) peek(k K) (e lruEntry[K, V], ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		return *el.Value.(*lruEntry[K, V]), true
	}
	return e, false
}

// CacheBytesForTest returns the bytes the plans and the meshes caches
// are charged for the entries they hold.
func CacheBytesForTest() (planBytes, meshBytes int64) {
	plans.mu.Lock()
	planBytes = plans.bytes
	plans.mu.Unlock()
	meshes.mu.Lock()
	defer meshes.mu.Unlock()
	return planBytes, meshes.bytes
}

// AdjCacheHas reports whether the meshes cache holds t's (kind, size)
// rows — the large-grid tests assert it stays without them.
func AdjCacheHas(t grid.Topology) bool {
	m, n, l := t.Size()
	_, ok := meshes.peek(meshKey{t.Kind(), m, n, l})
	return ok
}

// SessionMeshCachedForTest reports whether s reads the mesh entry the
// meshes cache holds now, rather than one it has evicted.
func SessionMeshCachedForTest(s *Session) bool {
	m, n, l := s.topo.Size()
	e, ok := meshes.peek(meshKey{s.topo.Kind(), m, n, l})
	return ok && e.val == s.mesh
}

// buildAdjacency returns t's pristine neighbor rows for the reference
// engine: the mesh's shared cached rows where meshSource keeps them,
// else a fresh build. mutable=true returns a private copy the caller
// may prune.
func buildAdjacency(t grid.Topology, mutable bool) [][]int32 {
	mesh, _ := meshSource(t)
	if mesh == nil {
		rows, _ := buildAdjacencyUncached(t)
		return rows
	}
	if mutable {
		return copyAdjacency(mesh.rows)
	}
	return mesh.rows
}

// PlanCacheEntry reports whether the plans cache holds the plan of
// (t, p, src) and the bytes it is charged for it.
func PlanCacheEntry(t grid.Topology, p Protocol, src grid.Coord) (bytes int64, ok bool) {
	m, n, l := t.Size()
	e, ok := plans.peek(planKey{kind: t.Kind(), m: m, n: n, l: l, src: t.Index(src), proto: p})
	return e.size, ok
}

// RunLoopForBenchmark binds a one-shot session as Run does and drives
// its schedule/repair loop, but skips Result assembly, isolating the
// engine's steady-state allocation: the per-node
// DecodeSlot/TxSlots/PerNodeEnergyJ arrays a real Run must hand to the
// caller dominate whole-Run B/op at large N and would mask the arena's
// O(N)-bit claim.
func RunLoopForBenchmark(t grid.Topology, p Protocol, src grid.Coord, cfg Config) error {
	s, e, err := oneShot(t, p, src, cfg)
	if e != nil {
		e.release()
	}
	if s != nil {
		s.Release()
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
	t := s.topo
	s.retire()
	return s.bind(t, p, cfg, s.mesh, s.ix), nil
}

// SessionOwnsRowsForTest reports whether s holds private rows rather
// than reading its mesh's shared neighbor source.
func SessionOwnsRowsForTest(s *Session) bool { return s.own }

// RetireForTest releases s as Release does, but keeps it out of the
// pool, and reports how many per-source plans it held before and kept
// after.
func RetireForTest(s *Session) (held, kept int) {
	held = len(s.plans)
	s.retire()
	return held, len(s.plans)
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
