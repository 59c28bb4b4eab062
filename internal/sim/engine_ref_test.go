package sim

import (
	"fmt"
	"sort"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/radio"
)

// This file preserves the pre-optimization broadcast engine — map-based
// slot schedule, per-round state reallocation, per-decode Protocol
// interface calls — verbatim except for renames. It is the
// differential-testing oracle for the optimized engine in engine.go:
// the tests in differential_test.go require Run and RunReference to
// produce byte-identical Results (counters, DecodeSlot, TxSlots,
// PerNodeEnergyJ, trace event sequence) on every topology, protocol
// and channel configuration. Keep its behavior frozen; performance
// work happens in engine.go only.

// RunReference simulates one broadcast exactly like Run, using the
// original (slower) engine implementation. It is test-only: the oracle
// for the package's differential tests and benchmarks.
func RunReference(t grid.Topology, p Protocol, src grid.Coord, cfg Config) (*Result, error) {
	if !t.Contains(src) {
		return nil, fmt.Errorf("sim: source %s outside %s mesh", src, t.Kind())
	}
	cfg = cfg.withDefaults(t.NumNodes())
	if err := cfg.Packet.Validate(); err != nil {
		return nil, err
	}
	var down []bool
	if len(cfg.Down) > 0 {
		down = make([]bool, t.NumNodes())
		for _, c := range cfg.Down {
			if !t.Contains(c) {
				return nil, fmt.Errorf("sim: down node %s outside mesh", c)
			}
			down[t.Index(c)] = true
		}
		if down[t.Index(src)] {
			return nil, fmt.Errorf("sim: source %s is down", src)
		}
	}
	adj := buildAdjacency(t, down != nil)
	if down != nil {
		// Remove the down nodes from the radio graph entirely.
		for i := range adj {
			if down[i] {
				adj[i] = nil
				continue
			}
			kept := adj[i][:0]
			for _, nb := range adj[i] {
				if !down[nb] {
					kept = append(kept, nb)
				}
			}
			adj[i] = kept
		}
	}

	var inj []injection
	var e *refEngine
	for round := 0; ; round++ {
		e = newRefEngine(t, p, src, cfg, adj, down, inj)
		if err := e.run(); err != nil {
			return nil, err
		}
		if cfg.DisableRepair || !e.anyMissing() {
			break
		}
		if round >= cfg.MaxPlanRounds {
			// Fallback: serialized repairs after all other activity.
			if err := e.appendRepair(); err != nil {
				return nil, err
			}
			break
		}
		added := e.planInjections(&inj)
		if added == 0 {
			break // unreached nodes are disconnected from the source
		}
	}
	e.finish()
	e.flushTrace()
	return e.res, nil
}

// refEngine holds the mutable state of one schedule replay
// (pre-optimization layout: maps, per-round allocation).
type refEngine struct {
	topo  grid.Topology
	proto Protocol
	src   grid.Coord
	cfg   Config

	nbr     [][]int32 // dense adjacency (down nodes removed)
	down    []bool    // failed nodes (nil when none)
	decode  []int     // first-decode slot, -1 never; source 0
	txSlots [][]int
	heard   []int // receptions per node
	hit     []int // scratch: transmitters heard this slot

	touched     []int32         // scratch: receivers hit this slot
	pending     map[int][]int32 // slot -> scheduled transmitters
	injAt       map[int][]int32 // slot -> injected repair transmitters
	outstanding int
	maxSched    int // highest slot with scheduled activity so far
	last        int // highest slot processed with activity

	traceBuf []Event
	res      *Result
}

func newRefEngine(t grid.Topology, p Protocol, src grid.Coord, cfg Config, adj [][]int32, down []bool, inj []injection) *refEngine {
	v := t.NumNodes()
	e := &refEngine{
		down:    down,
		topo:    t,
		proto:   p,
		src:     src,
		cfg:     cfg,
		nbr:     adj,
		decode:  make([]int, v),
		txSlots: make([][]int, v),
		heard:   make([]int, v),
		hit:     make([]int, v),
		pending: make(map[int][]int32),
		injAt:   make(map[int][]int32),
		res: &Result{
			Kind:     t.Kind(),
			Source:   src,
			Protocol: p.Name(),
			Total:    v,
		},
	}
	for i := range e.decode {
		e.decode[i] = -1
	}
	for i := range down {
		if down[i] {
			e.res.Down++
		}
	}
	e.res.Total = v - e.res.Down
	srcIdx := t.Index(src)
	e.decode[srcIdx] = 0
	e.res.Reached = 1
	e.schedule(SourceTx, int32(srcIdx))
	for _, off := range p.Retransmits(t, src, src) {
		if off >= 1 {
			e.schedule(SourceTx+off, int32(srcIdx))
		}
	}
	for _, in := range inj {
		e.injAt[in.slot] = append(e.injAt[in.slot], in.node)
		e.outstanding++
		if in.slot > e.maxSched {
			e.maxSched = in.slot
		}
	}
	return e
}

func (e *refEngine) schedule(slot int, node int32) {
	e.pending[slot] = append(e.pending[slot], node)
	e.outstanding++
	if slot > e.maxSched {
		e.maxSched = slot
	}
}

// run processes the whole schedule.
func (e *refEngine) run() error { return e.drain() }

// drain processes slots in order until no transmissions remain
// scheduled.
func (e *refEngine) drain() error {
	slot := e.last
	for e.outstanding > 0 {
		if slot > e.cfg.MaxSlots {
			return fmt.Errorf("sim: %s/%s exceeded %d slots (runaway schedule)",
				e.proto.Name(), e.topo.Kind(), e.cfg.MaxSlots)
		}
		txs, ok := e.pending[slot]
		injs, okInj := e.injAt[slot]
		if !ok && !okInj {
			slot++
			continue
		}
		delete(e.pending, slot)
		delete(e.injAt, slot)
		e.outstanding -= len(txs) + len(injs)
		// An injection fires only if its node decoded in an earlier
		// slot: replays may shift decode times and invalidate it.
		for _, v := range injs {
			if d := e.decode[v]; d >= 0 && d < slot {
				txs = append(txs, v)
				e.res.Repairs++
				e.emit(Event{Slot: slot, Kind: EventRepair, Node: e.topo.At(int(v))})
			}
		}
		if len(txs) == 0 {
			slot++
			continue
		}
		txs = refDedupe(txs)
		e.step(slot, txs)
		e.last = slot
		slot++
	}
	return nil
}

// refDedupe sorts and removes duplicate transmitters using the
// original closure-allocating sort.Slice (the optimized engine sorts
// through a bitset, and only when tracing; see dedupeTxs in sched.go).
func refDedupe(txs []int32) []int32 {
	sort.Slice(txs, func(i, j int) bool { return txs[i] < txs[j] })
	out := txs[:0]
	for i, v := range txs {
		if i == 0 || v != txs[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// step executes one slot with the given transmitters.
func (e *refEngine) step(slot int, txs []int32) {
	touched := e.touched[:0]
	for _, tx := range txs {
		e.txSlots[tx] = append(e.txSlots[tx], slot)
		e.res.Tx++
		e.emit(Event{Slot: slot, Kind: EventTx, Node: e.topo.At(int(tx))})
		for _, nb := range e.nbr[tx] {
			if e.cfg.Channel != (BernoulliLoss{}) && !e.cfg.Channel.Deliver(slot, tx, nb) {
				e.res.Lost++
				e.emit(Event{Slot: slot, Kind: EventLost, Node: e.topo.At(int(nb))})
				continue
			}
			e.heard[nb]++
			e.res.Rx++
			if e.hit[nb] == 0 {
				touched = append(touched, nb)
			}
			e.hit[nb]++
		}
	}
	e.touched = touched
	for _, nb := range touched {
		n := e.hit[nb]
		e.hit[nb] = 0
		if n >= 2 {
			e.res.Collisions++
			e.emit(Event{Slot: slot, Kind: EventCollision, Node: e.topo.At(int(nb))})
			continue
		}
		if e.decode[nb] >= 0 {
			e.res.Duplicates++
			e.emit(Event{Slot: slot, Kind: EventDuplicate, Node: e.topo.At(int(nb))})
			continue
		}
		e.decode[nb] = slot
		e.res.Reached++
		c := e.topo.At(int(nb))
		e.emit(Event{Slot: slot, Kind: EventDecode, Node: c})
		if e.proto.IsRelay(e.topo, e.src, c) {
			d := e.proto.TxDelay(e.topo, e.src, c)
			if d < 1 {
				d = 1
			}
			first := slot + d
			e.schedule(first, nb)
			for _, off := range e.proto.Retransmits(e.topo, e.src, c) {
				if off >= 1 {
					e.schedule(first+off, nb)
				}
			}
		}
	}
}

func (e *refEngine) anyMissing() bool { return e.res.Reached < e.res.Total }

// isDown reports whether node i has failed.
func (e *refEngine) isDown(i int) bool { return e.down != nil && e.down[i] }

// txAt reports whether node transmitted in the given slot of this
// schedule, or is already planned to by pendingInj.
func (e *refEngine) txAt(node int32, slot int, pendingInj []injection) bool {
	for _, s := range e.txSlots[node] {
		if s == slot {
			return true
		}
	}
	for _, in := range pendingInj {
		if in.node == node && in.slot == slot {
			return true
		}
	}
	return false
}

// planInjections extends inj with one repair transmission per missing
// node, each placed at the earliest slot that (a) no other neighbor of
// the missing node transmits in, (b) does not destroy any first decode
// of the donor's neighbors, and (c) does not clash with repairs
// planned in this round. Returns how many injections were added.
func (e *refEngine) planInjections(inj *[]injection) int {
	added := 0
	var round []injection
	for u := range e.decode {
		if e.decode[u] >= 0 || e.isDown(u) {
			continue
		}
		donor := e.pickDonor(u)
		if donor < 0 {
			continue // disconnected from the decoded set
		}
		slot := e.pickSlot(int32(u), donor, round)
		round = append(round, injection{node: donor, slot: slot})
		added++
	}
	*inj = append(*inj, round...)
	return added
}

// pickDonor finds, deterministically, the earliest-decoded neighbor of
// u (ties by index).
func (e *refEngine) pickDonor(u int) int32 {
	best := int32(-1)
	for _, nb := range e.nbr[u] {
		if e.decode[nb] < 0 {
			continue
		}
		if best < 0 || e.decode[nb] < e.decode[best] ||
			(e.decode[nb] == e.decode[best] && nb < best) {
			best = nb
		}
	}
	return best
}

// pickSlot chooses the earliest conflict-free slot for donor to cover
// u, considering this schedule plus the repairs already planned in
// this round.
func (e *refEngine) pickSlot(u, donor int32, round []injection) int {
	for s := e.decode[donor] + 1; ; s++ {
		if e.conflictAt(u, donor, s, round) {
			continue
		}
		return s
	}
}

// conflictAt reports whether donor transmitting in slot s would fail
// to deliver to u or would destroy someone else's first decode.
func (e *refEngine) conflictAt(u, donor int32, s int, round []injection) bool {
	// Another neighbor of u (or donor itself, collided) transmits at s.
	for _, nb := range e.nbr[u] {
		if e.txAt(nb, s, round) {
			return true
		}
	}
	// A neighbor of donor first-decodes at s from a single transmitter;
	// donor's extra transmission would turn it into a collision.
	for _, w := range e.nbr[donor] {
		if e.decode[w] == s {
			return true
		}
	}
	// A repair planned this round delivers to a common neighbor at s.
	for _, in := range round {
		if in.slot != s {
			continue
		}
		for _, w := range e.nbr[donor] {
			if w == in.node {
				return true
			}
			for _, x := range e.nbr[in.node] {
				if x == w && e.decode[w] < 0 {
					return true
				}
			}
		}
	}
	return false
}

// appendRepair is the fallback when planning does not converge:
// serialized retransmissions strictly after all other activity, one
// per round, which cannot collide with anything.
func (e *refEngine) appendRepair() error {
	for e.res.Reached < e.res.Total {
		donor := int32(-1)
		for u := range e.decode {
			if e.decode[u] >= 0 || e.isDown(u) {
				continue
			}
			if d := e.pickDonor(u); d >= 0 {
				donor = d
				break
			}
		}
		if donor < 0 {
			return nil // disconnected topology: nothing more to do
		}
		slot := e.last + 1
		e.injAt[slot] = append(e.injAt[slot], donor)
		e.outstanding++
		if slot > e.maxSched {
			e.maxSched = slot
		}
		if err := e.drain(); err != nil {
			return err
		}
	}
	return nil
}

// finish computes the derived metrics.
func (e *refEngine) finish() {
	r := e.res
	srcIdx := e.topo.Index(e.src)
	for i, d := range e.decode {
		if i != srcIdx && d > r.Delay {
			r.Delay = d
		}
	}
	etx := e.cfg.Model.TxEnergyJ(e.cfg.Packet.Bits, e.cfg.Packet.NeighborDistM)
	erx := e.cfg.Model.RxEnergyJ(e.cfg.Packet.Bits)
	// Sized by dense node index (down nodes hold 0), not by live
	// count: consumers like the energy heatmap index it by t.Index.
	r.PerNodeEnergyJ = make([]float64, len(e.txSlots))
	for i := range r.PerNodeEnergyJ {
		r.PerNodeEnergyJ[i] = float64(len(e.txSlots[i]))*etx + float64(e.heard[i])*erx
	}
	ledger := radio.NewLedger(e.cfg.Model, e.cfg.Packet)
	ledger.AddTx(r.Tx)
	ledger.AddRx(r.Rx)
	r.EnergyJ = ledger.TotalJ()
	r.DecodeSlot = e.decode
	r.TxSlots = e.txSlots
	r.downMask = e.down
}

func (e *refEngine) emit(ev Event) {
	if e.cfg.Trace != nil {
		e.traceBuf = append(e.traceBuf, ev)
	}
}

// flushTrace delivers the final schedule's events. Intermediate
// planning replays are not traced.
func (e *refEngine) flushTrace() {
	if e.cfg.Trace == nil {
		return
	}
	for _, ev := range e.traceBuf {
		e.cfg.Trace(ev)
	}
}
