package sim

import (
	"math/bits"
	"reflect"
	"slices"
	"sync"

	"wsnbcast/internal/grid"
)

// A relayPlan is the compiled form of a Protocol on one (topology,
// source): the per-node answers of IsRelay, TxDelay (clamped to >= 1)
// and Retransmits (offsets < 1 dropped), which the Protocol interface
// documents as pure functions of (topology, source, node). The engine
// consults the plan on every decode, turning three interface calls —
// and whatever slice Retransmits allocates — into array lookups. A
// plan is built once per Run and, for cacheable keys, shared read-only
// across every Run of the same (kind, size, protocol, source), exactly
// like the meshes map shares rows: across the thousands of runs of a
// sweep or a Monte Carlo grid the rules are compiled exactly once.
type relayPlan struct {
	relay bitset
	delay []int32 // first tx = decode slot + delay[i]; valid when relay set
	// The retransmission index is sparse, because few nodes retransmit
	// (the paper's small set of designated retransmissions; none under
	// flooding). hasRetr flags the nodes with offsets, retrRank[w]
	// counts the flagged nodes in the words of hasRetr before w, and
	// the flagged node of rank j has offsets retr[retrIdx[j]:retrIdx[j+1]].
	// The source is flagged even when it is not a relay (the engine
	// schedules source retransmissions unconditionally).
	hasRetr  bitset
	retrRank []int32
	retr     []int
	retrIdx  []int32
	// span bounds how far past its decode slot a relay's bookings reach:
	// the maximum of delay plus largest retransmit offset over relays.
	// A resumed replay from slot S (engine.rewind) revisits only the
	// decodes in [S-span, S) to rebook their transmissions at >= S.
	span int
}

// isRelay reports the compiled IsRelay answer for node i.
func (pl *relayPlan) isRelay(i int32) bool { return pl.relay.get(i) }

// retransmits returns node i's retransmission offsets (already
// filtered to >= 1). It must stay inlinable: the engine calls it on
// every relay decode.
func (pl *relayPlan) retransmits(i int32) []int {
	w, bit := pl.hasRetr[i>>6], uint64(1)<<(uint32(i)&63)
	if w&bit == 0 {
		return nil
	}
	j := pl.retrRank[i>>6] + int32(bits.OnesCount64(w&(bit-1)))
	return pl.retr[pl.retrIdx[j]:pl.retrIdx[j+1]]
}

// planKey identifies a cached relay plan. The protocol value itself is
// part of the key (dynamic type and value both participate in
// equality), so two configurations of one protocol type — say
// different gossip probabilities — never share a plan.
type planKey struct {
	kind    grid.Kind
	m, n, l int
	src     int // dense source index
	proto   Protocol
}

// planCache memoizes compiled relay plans, keyed like meshes. Only
// regular topologies qualify (an Irregular mesh is not determined by
// its kind and size), and only protocols whose dynamic type is a
// comparable non-pointer value: comparability is required to form the
// key at all, and pointer identity is excluded so short-lived protocol
// instances (e.g. snapshots) cannot grow the cache without bound.
var planCache sync.Map // planKey -> *relayPlan

// planCacheable reports whether p can participate in a planKey.
func planCacheable(p Protocol) bool {
	t := reflect.TypeOf(p)
	return t != nil && t.Kind() != reflect.Pointer && t.Comparable()
}

// bigPlanCache is the large-grid plan cache: a tiny mutex-guarded LRU
// instead of the unbounded sync.Map. A compiled plan for a 1M-node
// mesh is ~4 MiB; pinning one per (size, source, protocol) forever —
// the sync.Map policy, fine below largeGridNodes — would let a source
// sweep hold gigabytes. Caching is still required at scale: protocols
// allocate in Retransmits per relay node, so compiling per Run would
// blow the steady-state allocation budget the engine promises.
const bigPlanCacheCap = 4

var (
	bigPlanMu      sync.Mutex
	bigPlanEntries []bigPlanEntry // least-recently-used first
)

type bigPlanEntry struct {
	key planKey
	pl  *relayPlan
}

func bigPlanFor(key planKey, compile func() *relayPlan) *relayPlan {
	bigPlanMu.Lock()
	for i := range bigPlanEntries {
		if bigPlanEntries[i].key == key {
			e := bigPlanEntries[i]
			bigPlanEntries = append(append(bigPlanEntries[:i], bigPlanEntries[i+1:]...), e)
			bigPlanMu.Unlock()
			return e.pl
		}
	}
	bigPlanMu.Unlock()
	pl := compile() // outside the lock: compilation is O(N) interface calls
	bigPlanMu.Lock()
	defer bigPlanMu.Unlock()
	for i := range bigPlanEntries { // a concurrent compile may have won
		if bigPlanEntries[i].key == key {
			return bigPlanEntries[i].pl
		}
	}
	bigPlanEntries = append(bigPlanEntries, bigPlanEntry{key, pl})
	if len(bigPlanEntries) > bigPlanCacheCap {
		bigPlanEntries = append(bigPlanEntries[:0], bigPlanEntries[1:]...)
	}
	return pl
}

// planFor returns the compiled relay plan for (t, p, src), from the
// cache when the key qualifies.
func planFor(t grid.Topology, p Protocol, src grid.Coord) *relayPlan {
	srcIdx := t.Index(src)
	if t.Kind() == grid.Irregular || !planCacheable(p) {
		return compilePlan(t, p, src, srcIdx)
	}
	m, n, l := t.Size()
	key := planKey{kind: t.Kind(), m: m, n: n, l: l, src: srcIdx, proto: p}
	if t.NumNodes() >= largeGridNodes {
		return bigPlanFor(key, func() *relayPlan { return compilePlan(t, p, src, srcIdx) })
	}
	if v, ok := planCache.Load(key); ok {
		return v.(*relayPlan)
	}
	// Concurrent first access may compile twice; LoadOrStore keeps one.
	v, _ := planCache.LoadOrStore(key, compilePlan(t, p, src, srcIdx))
	return v.(*relayPlan)
}

// compilePlan evaluates the protocol's rules for every node. The call
// pattern matches the engine's: TxDelay and Retransmits are consulted
// only for relays, plus Retransmits for the source (scheduled
// unconditionally at startup).
func compilePlan(t grid.Topology, p Protocol, src grid.Coord, srcIdx int) *relayPlan {
	v := t.NumNodes()
	pl := &relayPlan{
		relay:    newBitset(v),
		delay:    make([]int32, v),
		hasRetr:  newBitset(v),
		retrRank: make([]int32, (v+63)>>6),
		retrIdx:  []int32{0},
	}
	for i := 0; i < v; i++ {
		c := t.At(i)
		var offs []int
		if p.IsRelay(t, src, c) {
			pl.relay.set(int32(i))
			d := p.TxDelay(t, src, c)
			if d < 1 {
				d = 1
			}
			pl.delay[i] = int32(d)
			offs = p.Retransmits(t, src, c)
		} else if i == srcIdx {
			offs = p.Retransmits(t, src, c)
		}
		if i&63 == 0 {
			pl.retrRank[i>>6] = int32(len(pl.retrIdx) - 1)
		}
		reach := int(pl.delay[i])
		for _, off := range offs {
			if off >= 1 {
				pl.retr = append(pl.retr, off)
				reach = max(reach, int(pl.delay[i])+off)
			}
		}
		if pl.relay.get(int32(i)) {
			pl.span = max(pl.span, reach)
		}
		if n := int32(len(pl.retr)); n > pl.retrIdx[len(pl.retrIdx)-1] {
			pl.hasRetr.set(int32(i))
			pl.retrIdx = append(pl.retrIdx, n)
		}
	}
	pl.retr = slices.Clone(pl.retr) // drop append's spare capacity: plans are cached
	pl.retrIdx = slices.Clone(pl.retrIdx)
	return pl
}
