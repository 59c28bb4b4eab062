package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/radio"
)

// Link names one undirected lattice link by its endpoint coordinates.
// The order of A and B is irrelevant: Config.DownLinks removes both
// directions from the radio graph.
type Link struct {
	A, B grid.Coord
}

// Config parameterizes one simulated broadcast.
type Config struct {
	// Model is the radio energy model; zero value means radio.Default().
	Model radio.Model
	// Packet is the packet length/spacing; zero value means the paper's
	// canonical 512 bits / 0.5 m.
	Packet radio.Packet
	// MaxSlots bounds the simulation; 0 means an automatic generous
	// bound. Exceeding the bound returns an error (runaway protocol).
	MaxSlots int
	// DisableRepair turns off the scheduler's repair pass; the run then
	// reports whatever reachability the protocol rules achieve on
	// their own.
	DisableRepair bool
	// MaxPlanRounds caps the repair planner's fixpoint iterations; 0
	// means an automatic bound. When the cap is hit the engine falls
	// back to serialized end-of-schedule repairs, which always
	// terminate.
	MaxPlanRounds int
	// Trace, when non-nil, receives every engine event of the final
	// schedule in deterministic order.
	Trace TraceFunc
	// Down lists failed nodes: they never transmit, hear, or decode.
	// A broadcast cannot originate at a down node. Reachability and
	// reception accounting cover the live nodes only.
	Down []grid.Coord
	// DownLinks lists failed (churned) undirected links: both directions
	// are removed from the radio graph before the run, exactly as Down
	// removes nodes, so the repair planner sees the true round topology
	// and never chases a donor across a dead link. Entries whose
	// endpoints are not lattice neighbors are no-ops; endpoints outside
	// the mesh are an error. Note that Result.Validate's degree-sum
	// invariant assumes the full lattice adjacency and does not hold
	// when links are removed.
	DownLinks []Link
	// Channel decides per-link reception: a Bernoulli loss draw per
	// (slot, tx, rx), a pure function of its coordinates, so a
	// transmission the repair planner replays receives the same verdict.
	// The zero value (Rate 0) is the error-free channel.
	Channel BernoulliLoss
}

func (c Config) withDefaults(v int) Config {
	if c.Model == (radio.Model{}) {
		c.Model = radio.Default()
	}
	if c.Packet == (radio.Packet{}) {
		c.Packet = radio.CanonicalPacket()
	}
	if c.MaxSlots == 0 {
		c.MaxSlots = 1024 + 64*v
	}
	if c.MaxPlanRounds == 0 {
		c.MaxPlanRounds = 8 + v/4
	}
	return c
}

// largeGridNodes is the node count at (and above) which meshSource
// switches from the mesh's cached materialized rows to implicit
// neighbor indexing. Below it rows cost at most a few MiB; one step
// further (256k nodes and beyond) they reach tens of MiB and the
// implicit path wins on both memory and time. A var, not a const, so
// the differential tests can force either path at any size; production
// code never mutates it.
var largeGridNodes = 1 << 16

// resumeHook, when non-nil, observes the resume slot of every replay
// that rewinds instead of restarting from slot 0. Nil in production;
// the package's tests install a counter to prove resumption happens.
var resumeHook func(S int)

// frontierHook, when non-nil, makes every frontier planning round also
// run the full uncovered scan first and hands it both injection lists.
// Nil in production; the package's tests install a comparator to prove
// the candidate set misses no node the full scan would plan for.
var frontierHook func(full, frontier []injection)

// donorHook, when non-nil, is called once per pickDonor call. Nil in
// production; see SetDonorHook.
var donorHook func()

// SetDonorHook installs f as the observer of the repair planner's
// pickDonor calls (nil removes it) and returns the observer it
// replaced. It is a test hook: tests outside this package count
// through it how much donor search a computation does. It must not be
// called while broadcasts are running.
func SetDonorHook(f func()) (old func()) {
	old, donorHook = donorHook, f
	return old
}

// injection is a repair transmission planned by the scheduler: node
// transmits in the given absolute slot (provided it holds the message
// by then).
type injection struct {
	node int32
	slot int
}

// Run simulates one broadcast of protocol p from src on topology t.
//
// When the protocol's own rules leave nodes unreached (collisions the
// designated retransmissions do not cover), the scheduler repairs the
// broadcast: it deterministically plans extra retransmissions at the
// earliest conflict-free slots and replays the schedule, iterating to
// a fixpoint — the paper's premise that the topology is fixed and
// collisions predictable, applied mechanically. Every repair
// transmission is counted in Result.Repairs.
//
// Run is a one-shot Session: it takes a session (pooled on regular
// meshes below largeGridNodes), applies Config.Down and
// Config.DownLinks to it, runs the schedule on the pooled engine — a
// slot-indexed array schedule, a scratch arena rewound rather than
// reallocated between repair replays, a memoized relay plan — and
// releases it. The Result owns its memory outright, down mask
// included. The package's tests keep the original implementation as a
// frozen oracle and prove every path byte-identical against it.
func Run(t grid.Topology, p Protocol, src grid.Coord, cfg Config) (*Result, error) {
	s, e, err := oneShot(t, p, src, cfg)
	if s != nil {
		defer s.Release()
	}
	if e != nil {
		defer e.release()
	}
	if err != nil {
		return nil, err
	}
	res := e.finish()
	e.flushTrace()
	return res, nil
}

// oneShot binds a one-shot broadcast: it checks the source first, as
// sim.Run always has, takes a session bound to (t, p, cfg) and runs
// the schedule from src on it. The caller releases the returned engine
// and session, each non-nil whenever it was bound, error or not.
func oneShot(t grid.Topology, p Protocol, src grid.Coord, cfg Config) (*Session, *engine, error) {
	if !t.Contains(src) {
		return nil, nil, fmt.Errorf("sim: source %s outside %s mesh", src, t.Kind())
	}
	s, err := NewSession(t, p, cfg)
	if err != nil {
		return nil, nil, err
	}
	e, err := s.start(src)
	return s, e, err
}

// runSchedule drives the schedule/repair loop to completion on a bound
// engine: replay the schedule, plan repair injections for unreached
// nodes, iterate to a fixpoint. The injection lists live in the pooled
// arena (injPlan), so a steady-state schedule with no repairs plans
// with zero allocations.
//
// Only the first replay starts from slot 0. Every later one resumes at
// the earliest slot S its round's new injections occupy: slots below S
// replay identically (see rewind), so the engine rewinds its state to
// the top of slot S in place and drains the suffix alone.
//
// Likewise only the first planning round scans every uncovered node.
// Every later one visits the frontier candidates alone (see
// collectCandidates), which hold every node the full scan would plan
// for, in the same ascending order.
func (e *engine) runSchedule() error {
	inj := e.injPlan[:0]
	defer func() { e.injPlan = inj[:0] }() // retain grown capacity
	resume := 0
	for round := 0; ; round++ {
		if round == 0 {
			e.reset(inj)
		} else {
			e.rewind(resume, inj)
		}
		if err := e.drain(resume); err != nil {
			return err
		}
		if e.cfg.DisableRepair || !e.anyMissing() {
			return nil
		}
		if round >= e.cfg.MaxPlanRounds {
			// Fallback: serialized repairs after all other activity.
			return e.appendRepair()
		}
		newFrom := len(inj)
		if round > 0 {
			e.collectCandidates()
		}
		if round > 0 && frontierHook != nil {
			e.planInjections(&inj, true)
			full := slices.Clone(inj[newFrom:])
			inj = inj[:newFrom]
			e.planInjections(&inj, false)
			frontierHook(full, inj[newFrom:])
		} else {
			e.planInjections(&inj, round == 0)
		}
		if len(inj) == newFrom {
			return nil // unreached nodes are disconnected from the source
		}
		copy(e.prevCov, e.covered) // the frontier's snapshot, before rewind
		resume = inj[newFrom].slot
		for _, in := range inj[newFrom+1:] {
			resume = min(resume, in.slot)
		}
	}
}

// engine holds the mutable state of one schedule replay. Engines are
// pooled (enginePool): all scratch state — the struct-of-arrays
// decode/heard/hit vectors, the covered bitset, per-node transmission
// logs, the slot queues, the trace buffer, the
// rewind logs and checkpoints — is sized once and reset or rewound,
// not reallocated, across the repair-replay rounds of one Run and
// across the thousands of Runs of a sweep or Monte Carlo grid. Only
// the slices that escape into the Result are freshly allocated, in
// finish.
type engine struct {
	// Per-Run bindings, cleared on release so the pool pins nothing.
	topo   grid.Topology
	proto  Protocol
	plan   *relayPlan
	src    grid.Coord
	srcIdx int32
	cfg    Config
	ix     grid.NeighborIndexer // implicit neighbor source (large grids, Irregular)
	nbr    [][]int32            // materialized rows when ix is nil (down nodes removed)
	down   []bool               // failed-node mask (nil when none), the session's
	downN  int                  // number of failed nodes
	loss   lossKeys             // cfg.Channel with its (Seed, domainLoss) prefix absorbed

	// Arena state, capacity retained across Runs. Per-node scalars are
	// int32 (struct-of-arrays), per-node booleans are bitsets: the
	// steady-state footprint is O(N) words for the counters plus O(N)
	// bits for the flags, never O(N*deg).
	decode     []int32 // first-decode slot, -1 never; source 0
	covered    bitset  // decode[i] >= 0, plus padding bits set
	heard      []int32 // receptions per node, derived from txSlots by finishInto
	hit        []int32 // scratch: transmitters heard this slot
	txSlots    [][]int
	touched    []int32     // scratch: receivers hit this slot
	pending    slotQueue   // protocol-scheduled transmissions
	inject     slotQueue   // planned repair transmissions
	injScratch []int32     // scratch txs for injection-only slots
	nbufStep   []int32     // step's neighbor scratch
	nbufA      []int32     // planner scratch: missing node's neighbors
	nbufB      []int32     // planner scratch: donor's neighbors
	nbufC      []int32     // planner scratch: planned repair's neighbors
	injPlan    []injection // accumulated repair injections across replay rounds
	injRound   []injection // planner scratch: this round's injections
	planHead   []int32     // planner index: 1+round-position of the latest injection per slot
	planPrev   []int32     // planner index: per round-position, 1+position of the previous injection at the same slot
	dedupBits  bitset      // dedupe scratch, all-zero between calls
	cand       bitset      // planner frontier: candidate nodes, all-zero between rounds
	prevCov    bitset      // planner frontier: covered as the last planning round saw it
	planned    []int32     // planner frontier: the nodes the last planning round planned for
	traceBuf   []Event

	// Rewind state (see rewind): append-only logs in slot order, popped
	// from the tail, plus the counters as of the top of every drained
	// slot.
	decLog []int32     // non-source nodes in decode order
	txLog  []int32     // each stepped slot's deduplicated transmitters
	checks []slotCheck // checks[s]: counters at the top of slot s

	outstanding int
	last        int // highest slot processed with activity
	res         Result
}

var enginePool = sync.Pool{New: func() any { return new(engine) }}

// getEngine binds a pooled engine to one broadcast.
func getEngine(t grid.Topology, p Protocol, plan *relayPlan, src grid.Coord, cfg Config, ix grid.NeighborIndexer, adj [][]int32, down []bool) *engine {
	e := enginePool.Get().(*engine)
	e.topo = t
	e.proto = p
	e.plan = plan
	e.src = src
	e.srcIdx = int32(t.Index(src))
	e.cfg = cfg
	e.loss = cfg.Channel.keys()
	e.ix = ix
	e.nbr = adj
	e.down = down
	e.downN = 0
	for _, d := range down {
		if d {
			e.downN++
		}
	}
	e.sizeTo(t.NumNodes())
	return e
}

// release clears the per-Run references and returns the engine to the
// pool. The arena keeps its capacity; everything that escaped into the
// Result was copied out by finish.
func (e *engine) release() {
	e.topo = nil
	e.proto = nil
	e.plan = nil
	e.cfg = Config{} // drops the Trace func, Down and DownLinks lists
	e.ix = nil
	e.nbr = nil
	e.down = nil
	enginePool.Put(e)
}

// sizeTo (re)dimensions the per-node vectors for v nodes, retaining
// capacity when possible.
func (e *engine) sizeTo(v int) {
	if cap(e.decode) < v {
		e.decode = make([]int32, v)
		e.heard = make([]int32, v)
		e.hit = make([]int32, v)
		e.txSlots = make([][]int, v)
	}
	e.decode = e.decode[:v]
	e.heard = e.heard[:v]
	e.hit = e.hit[:v]
	e.txSlots = e.txSlots[:v]
	e.dedupBits.sizeToBits(v)
	e.cand.sizeToBits(v)
	e.prevCov.sizeToBits(v)
}

// neighborsOf returns node i's neighbor indices: the materialized row
// (already pruned of down nodes), or an implicit emission into *buf
// from the indexer (caller filters down nodes, see liveFilter). The returned slice is valid until the
// next call with the same buf.
func (e *engine) neighborsOf(i int32, buf *[]int32) []int32 {
	if e.ix != nil {
		b := e.ix.IndexNeighbors(int(i), (*buf)[:0])
		*buf = b
		return b
	}
	return e.nbr[i]
}

// liveFilter returns the down mask consumers must filter against, or
// nil when no filtering is needed: a session prunes down nodes out of
// materialized rows as they fail, the implicit path skips them at
// iteration time.
func (e *engine) liveFilter() []bool {
	if e.ix != nil {
		return e.down
	}
	return nil
}

// slotCheck is the engine's counter state at the top of one slot: the
// counts over every earlier slot, and the last slot that stepped.
type slotCheck struct {
	tx, rx, lost, coll, dup, repairs, last int
}

// checkpoint records the counters as of the top of slot, truncating
// any checkpoints past it (a superseded replay's). Slots between the
// previous drain's end and slot saw no activity, so they take the
// current counters too.
func (e *engine) checkpoint(slot int) {
	ck := slotCheck{e.res.Tx, e.res.Rx, e.res.Lost, e.res.Collisions, e.res.Duplicates, e.res.Repairs, e.last}
	for len(e.checks) < slot {
		e.checks = append(e.checks, ck)
	}
	e.checks = append(e.checks[:slot], ck)
}

// reset prepares the engine for a schedule replay from slot 0: clears
// the arena, seeds the source's transmissions, and loads the planned
// repair injections. Equivalent to the reference engine constructing a
// fresh state per round, without the allocations. Later replays of the
// same run go through rewind.
func (e *engine) reset(inj []injection) {
	for i := range e.decode {
		e.decode[i] = -1
	}
	v := len(e.decode)
	e.covered.sizeToBits(v)
	for i := int32(v); i < int32(len(e.covered)<<6); i++ {
		e.covered.set(i) // padding bits read as covered by the scans
	}
	clear(e.hit)
	for i := range e.txSlots {
		e.txSlots[i] = e.txSlots[i][:0]
	}
	e.touched = e.touched[:0]
	e.pending.reset()
	e.inject.reset()
	e.traceBuf = e.traceBuf[:0]
	e.decLog = e.decLog[:0]
	e.txLog = e.txLog[:0]
	e.checks = e.checks[:0]
	e.outstanding, e.last = 0, 0

	e.res = Result{
		Kind:     e.topo.Kind(),
		Source:   e.src,
		Protocol: e.proto.Name(),
		Down:     e.downN,
	}
	e.res.Total = v - e.res.Down
	e.decode[e.srcIdx] = 0
	e.covered.set(e.srcIdx)
	e.res.Reached = 1
	e.schedule(SourceTx, e.srcIdx)
	for _, off := range e.plan.retransmits(e.srcIdx) {
		e.schedule(SourceTx+off, e.srcIdx)
	}
	for _, in := range inj {
		e.injectAt(in.slot, in.node)
	}
}

// rewind prepares a replay that resumes at slot S, given the state the
// previous replay left and the grown injection list. Every injection
// the last planning round added lands at a slot >= S, and every booking
// lands strictly after the slot that makes it, so the replay agrees
// with its predecessor on every slot below S: same decodes, same
// transmissions, same counters, same trace events. rewind therefore
// keeps that prefix and undoes only the suffix, in place:
//
//   - counters and last restore from the slot-S checkpoint; past the
//     last drain's end nothing happened and they stand as they are;
//   - decodes at >= S pop off the tail of the decode log, clearing
//     decode, covered and Reached;
//   - transmissions at >= S pop off the tail of the transmitter log,
//     truncating txSlots, and trace events at >= S drop off traceBuf;
//   - the queues refill with exactly the prefix's bookings at >= S: the
//     source's transmissions, the relays of prefix decodes, and the
//     injections, in list order as reset books them.
//
// Only decodes within the plan's span below S can book a slot >= S, so
// the whole rewind costs O(suffix + span window), not O(nodes).
// Reception counts need no rewinding: finishInto derives them from the
// final schedule.
func (e *engine) rewind(S int, inj []injection) {
	if resumeHook != nil {
		resumeHook(S)
	}
	if S < len(e.checks) {
		ck := e.checks[S]
		e.res.Tx, e.res.Rx, e.res.Lost = ck.tx, ck.rx, ck.lost
		e.res.Collisions, e.res.Duplicates, e.res.Repairs = ck.coll, ck.dup, ck.repairs
		e.last = ck.last
	}
	n := len(e.decLog)
	for ; n > 0 && int(e.decode[e.decLog[n-1]]) >= S; n-- {
		u := e.decLog[n-1]
		e.decode[u] = -1
		e.covered.unset(u)
		e.res.Reached--
	}
	e.decLog = e.decLog[:n]
	m := len(e.txLog)
	for ; m > 0; m-- {
		// The log's tail entry for a node is its row's last slot.
		u := e.txLog[m-1]
		row := e.txSlots[u]
		if row[len(row)-1] < S {
			break
		}
		e.txSlots[u] = row[:len(row)-1]
	}
	e.txLog = e.txLog[:m]
	tb := e.traceBuf
	for len(tb) > 0 && tb[len(tb)-1].Slot >= S {
		tb = tb[:len(tb)-1]
	}
	e.traceBuf = tb

	e.pending.reset()
	e.inject.reset()
	e.outstanding = 0
	if SourceTx >= S {
		e.schedule(SourceTx, e.srcIdx)
	}
	for _, off := range e.plan.retransmits(e.srcIdx) {
		if s := SourceTx + off; s >= S {
			e.schedule(s, e.srcIdx)
		}
	}
	for k := len(e.decLog) - 1; k >= 0; k-- {
		u := e.decLog[k]
		d := int(e.decode[u])
		if d+e.plan.span < S {
			break // the log is in slot order: every earlier decode books below S
		}
		if !e.plan.relay.get(u) {
			continue
		}
		first := d + int(e.plan.delay[u])
		if first >= S {
			e.schedule(first, u)
		}
		for _, off := range e.plan.retransmits(u) {
			if s := first + off; s >= S {
				e.schedule(s, u)
			}
		}
	}
	for _, in := range inj {
		if in.slot >= S {
			e.injectAt(in.slot, in.node)
		}
	}
}

// schedule books a protocol transmission. Slots beyond MaxSlots are
// counted but not stored: drain's runaway guard trips before any such
// slot could be processed, so the bucket array stays bounded.
func (e *engine) schedule(slot int, node int32) {
	e.outstanding++
	if slot > e.cfg.MaxSlots {
		return
	}
	e.pending.add(slot, node)
}

// injectAt books a planned repair transmission, same clamping as
// schedule.
func (e *engine) injectAt(slot int, node int32) {
	e.outstanding++
	if slot > e.cfg.MaxSlots {
		return
	}
	e.inject.add(slot, node)
}

// drain processes slots in order, from the given slot, until no
// transmissions remain scheduled, checkpointing the counters at the
// top of each slot. Every checkpoint drops the ones past it, so on
// return they end at the drain's actual end: later ones belong to an
// earlier, longer replay whose suffix this one rewrote, and restoring
// them would resurrect a superseded trajectory's counts.
func (e *engine) drain(from int) error {
	slot := from
	for e.outstanding > 0 {
		if slot > e.cfg.MaxSlots {
			return fmt.Errorf("sim: %s/%s exceeded %d slots (runaway schedule)",
				e.proto.Name(), e.topo.Kind(), e.cfg.MaxSlots)
		}
		e.checkpoint(slot)
		txs := e.pending.take(slot)
		injs := e.inject.take(slot)
		if txs == nil && injs == nil {
			slot++
			continue
		}
		e.outstanding -= len(txs) + len(injs)
		if injs != nil {
			fromScratch := false
			if txs == nil {
				txs = e.injScratch[:0]
				fromScratch = true
			}
			// An injection fires only if its node decoded in an earlier
			// slot: replays may shift decode times and invalidate it.
			for _, v := range injs {
				if d := e.decode[v]; d >= 0 && int(d) < slot {
					txs = append(txs, v)
					e.res.Repairs++
					if e.cfg.Trace != nil {
						e.emit(Event{Slot: slot, Kind: EventRepair, Node: e.topo.At(int(v))})
					}
				}
			}
			// Retain grown capacity: in the scratch buffer, or back in the
			// just-taken bucket (nothing books into the slot being drained).
			if fromScratch {
				e.injScratch = txs
			} else {
				e.pending.keep(slot, txs)
			}
		}
		if len(txs) == 0 {
			slot++
			continue
		}
		txs = e.dedupeTxs(txs)
		e.step(slot, txs)
		e.last = slot
		slot++
	}
	return nil
}

// step executes one slot with the given transmitters.
func (e *engine) step(slot int, txs []int32) {
	e.txLog = append(e.txLog, txs...)
	tracing := e.cfg.Trace != nil
	lossy := e.loss.lossy()
	filter := e.liveFilter()
	touched := e.touched[:0]
	for _, tx := range txs {
		e.txSlots[tx] = append(e.txSlots[tx], slot)
		e.res.Tx++
		if tracing {
			e.emit(Event{Slot: slot, Kind: EventTx, Node: e.topo.At(int(tx))})
		}
		var key uint64
		if lossy {
			key = e.loss.tx(slot, tx)
		}
		for _, nb := range e.neighborsOf(tx, &e.nbufStep) {
			if filter != nil && filter[nb] {
				continue
			}
			if lossy && !e.loss.delivers(key, nb) {
				e.res.Lost++
				if tracing {
					e.emit(Event{Slot: slot, Kind: EventLost, Node: e.topo.At(int(nb))})
				}
				continue
			}
			e.res.Rx++
			if e.hit[nb] == 0 {
				touched = append(touched, nb)
			}
			e.hit[nb]++
		}
	}
	e.touched = touched
	e.decodePhase(slot, touched)
}

// decodePhase resolves the slot's touched receivers — collision,
// duplicate, or first decode with relay scheduling — in first-hit
// order.
func (e *engine) decodePhase(slot int, touched []int32) {
	tracing := e.cfg.Trace != nil
	for _, nb := range touched {
		n := e.hit[nb]
		e.hit[nb] = 0
		if n >= 2 {
			e.res.Collisions++
			if tracing {
				e.emit(Event{Slot: slot, Kind: EventCollision, Node: e.topo.At(int(nb))})
			}
			continue
		}
		if e.covered.get(nb) {
			e.res.Duplicates++
			if tracing {
				e.emit(Event{Slot: slot, Kind: EventDuplicate, Node: e.topo.At(int(nb))})
			}
			continue
		}
		e.decode[nb] = int32(slot)
		e.covered.set(nb)
		e.decLog = append(e.decLog, nb)
		e.res.Reached++
		if tracing {
			e.emit(Event{Slot: slot, Kind: EventDecode, Node: e.topo.At(int(nb))})
		}
		// The compiled relay plan answers IsRelay/TxDelay/Retransmits
		// with bitset/array lookups; delays are pre-clamped and offsets
		// pre-filtered to >= 1 at compile time.
		if e.plan.relay.get(nb) {
			first := slot + int(e.plan.delay[nb])
			e.schedule(first, nb)
			for _, off := range e.plan.retransmits(nb) {
				e.schedule(first+off, nb)
			}
		}
	}
}

func (e *engine) anyMissing() bool { return e.res.Reached < e.res.Total }

// isDown reports whether node i has failed.
func (e *engine) isDown(i int32) bool { return e.down != nil && e.down[i] }

// txAt reports whether node transmitted in the given slot of this
// schedule. Injections planned in the current round are consulted
// separately through the per-slot chain index (planHead/planPrev).
func (e *engine) txAt(node int32, slot int) bool {
	for _, s := range e.txSlots[node] {
		if s == slot {
			return true
		}
	}
	return false
}

// planInjections extends inj with one repair transmission per missing
// node that has a donor, each placed at the earliest slot that (a) no
// other neighbor of the missing node transmits in, (b) does not destroy
// any first decode of the donor's neighbors, and (c) does not clash
// with repairs planned in this round. full scans every uncovered node:
// the covered bitset drives the scan, so fully decoded words — the
// common case on an almost-reached mesh — cost one compare per 64
// nodes. Otherwise it visits only the candidates collectCandidates
// marked, clearing them as it goes. Both walk in ascending index, so
// on equal node sets they plan the same list. The nodes planned for
// are kept in planned for the next round's candidates.
func (e *engine) planInjections(inj *[]injection, full bool) {
	round := e.injRound[:0]
	e.planPrev = e.planPrev[:0]
	e.planned = e.planned[:0]
	if full {
		v := int32(len(e.decode))
		for u := e.covered.nextZero(0, v); u < v; u = e.covered.nextZero(u+1, v) {
			round = e.planNode(u, round)
		}
	} else {
		cand := e.cand
		for w, word := range cand {
			if word == 0 {
				continue
			}
			cand[w] = 0
			base := int32(w << 6)
			for word != 0 {
				u := base + int32(bits.TrailingZeros64(word))
				word &= word - 1
				if !e.covered.get(u) {
					round = e.planNode(u, round)
				}
			}
		}
	}
	// Restore the all-zero index invariant by unwinding the touched
	// slots; a full clear would be O(maxSched) per planning round.
	for _, in := range round {
		e.planHead[in.slot] = 0
	}
	e.injRound = round[:0] // retain grown capacity
	*inj = append(*inj, round...)
}

// planNode plans the repair of one uncovered node u, if it is live and
// has a donor, appending the injection to this round's list.
func (e *engine) planNode(u int32, round []injection) []injection {
	if e.isDown(u) {
		return round
	}
	donor := e.pickDonor(u)
	if donor < 0 {
		return round // disconnected from the decoded set
	}
	slot := e.pickSlot(u, donor, round)
	round = append(round, injection{node: donor, slot: slot})
	// Chain the new entry into the per-slot index so later pickSlot
	// calls consult only the injections sharing a candidate slot, not
	// the whole round — the scan was quadratic in repair count.
	for slot >= len(e.planHead) {
		e.planHead = append(e.planHead, 0)
	}
	e.planPrev = append(e.planPrev, e.planHead[slot])
	e.planHead[slot] = int32(len(round))
	e.planned = append(e.planned, u)
	return round
}

// collectCandidates marks, in cand, every node a planning round after
// the first must visit: a node is planned for iff it is uncovered, live
// and has a decoded live neighbor, and each such node is one of
//
//	(a) a node the last round planned for, still uncovered;
//	(b) a node the replay un-decoded: prevCov &^ covered;
//	(c) an uncovered live neighbor of a node the replay newly decoded:
//	    covered &^ prevCov.
//
// Completeness: take u uncovered with a decoded neighbor w. If u was
// covered when the last round planned, it is (b). Otherwise, if w was
// decoded then, u had a donor in that round, so that round visited and
// planned it (by induction: the first round visits every uncovered
// node), and it is (a). Otherwise w is newly decoded and u is (c), as
// adjacency is symmetric. Nodes outside the set have no donor, and the
// full scan would skip them too. The covered words are a pure function
// of the decode state, so the snapshot and the diff cost O(N/64).
func (e *engine) collectCandidates() {
	cand := e.cand
	for _, u := range e.planned {
		cand.set(u)
	}
	filter := e.liveFilter()
	for w, cur := range e.covered {
		prev := e.prevCov[w]
		cand[w] |= prev &^ cur
		for gained := cur &^ prev; gained != 0; gained &= gained - 1 {
			x := int32(w<<6 + bits.TrailingZeros64(gained))
			for _, nb := range e.neighborsOf(x, &e.nbufA) {
				if filter != nil && filter[nb] {
					continue
				}
				if !e.covered.get(nb) {
					cand.set(nb)
				}
			}
		}
	}
}

// pickDonor finds, deterministically, the earliest-decoded neighbor of
// u (ties by index).
func (e *engine) pickDonor(u int32) int32 {
	if donorHook != nil {
		donorHook()
	}
	best := int32(-1)
	filter := e.liveFilter()
	for _, nb := range e.neighborsOf(u, &e.nbufA) {
		if filter != nil && filter[nb] {
			continue
		}
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
func (e *engine) pickSlot(u, donor int32, round []injection) int {
	for s := int(e.decode[donor]) + 1; ; s++ {
		if e.conflictAt(u, donor, s, round) {
			continue
		}
		return s
	}
}

// conflictAt reports whether donor transmitting in slot s would fail
// to deliver to u or would destroy someone else's first decode.
func (e *engine) conflictAt(u, donor int32, s int, round []injection) bool {
	filter := e.liveFilter()
	// Another neighbor of u (or donor itself, collided) transmits at s.
	uNbs := e.neighborsOf(u, &e.nbufA)
	for _, nb := range uNbs {
		if filter != nil && filter[nb] {
			continue
		}
		if e.txAt(nb, s) {
			return true
		}
	}
	// A neighbor of donor first-decodes at s from a single transmitter;
	// donor's extra transmission would turn it into a collision.
	donorNbs := e.neighborsOf(donor, &e.nbufB)
	for _, w := range donorNbs {
		if filter != nil && filter[w] {
			continue
		}
		if int(e.decode[w]) == s && e.decode[w] >= 0 {
			return true
		}
	}
	// Repairs already planned this round: only the chain of injections
	// at exactly slot s can conflict — by transmitting next to u, or by
	// delivering to a common neighbor of the donor. The per-slot index
	// replaces a scan of the whole round per candidate slot.
	if s < len(e.planHead) {
		for idx := e.planHead[s]; idx > 0; idx = e.planPrev[idx-1] {
			in := round[idx-1]
			for _, nb := range uNbs {
				if nb != in.node {
					continue
				}
				if filter == nil || !filter[nb] {
					return true
				}
			}
			for _, w := range donorNbs {
				if filter != nil && filter[w] {
					continue
				}
				if w == in.node {
					return true
				}
				for _, x := range e.neighborsOf(in.node, &e.nbufC) {
					if x == w && e.decode[w] < 0 {
						return true
					}
				}
			}
		}
	}
	return false
}

// appendRepair is the fallback when planning does not converge:
// serialized retransmissions strictly after all other activity, one
// per round, which cannot collide with anything.
func (e *engine) appendRepair() error {
	v := int32(len(e.decode))
	for e.res.Reached < e.res.Total {
		donor := int32(-1)
		for u := e.covered.nextZero(0, v); u < v; u = e.covered.nextZero(u+1, v) {
			if e.isDown(u) {
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
		e.injectAt(e.last+1, donor)
		if err := e.drain(e.last + 1); err != nil {
			return err
		}
	}
	return nil
}

// resultArena holds the backing arrays of the slices a Result carries
// out of the engine. Session.Run passes its persistent arena, so
// steady-state rounds write the same backing arrays in place and
// allocate nothing; sim.Run's one-shot session is released before its
// Result is read, so finish hands finishInto an empty arena instead.
type resultArena struct {
	energy  []float64
	txSlots [][]int
	flat    []int
	decode  []int
}

// finish computes the derived metrics into a fresh Result that owns
// its memory. Only what escapes is allocated: the Result itself, the
// widened DecodeSlot copy, the TxSlots headers plus one flat backing
// array, PerNodeEnergyJ, and a copy of the down mask, which is the
// session's and is reused once the session is released.
func (e *engine) finish() *Result {
	r := e.finishInto(new(Result), &resultArena{})
	r.downMask = slices.Clone(r.downMask)
	return r
}

// finishInto is finish parameterized over the Result and the backing
// arrays; see resultArena for the ownership contract. The computed
// values are identical for every arena — only who owns the memory
// changes.
func (e *engine) finishInto(r *Result, a *resultArena) *Result {
	*r = e.res
	srcIdx := int(e.srcIdx)
	for i, d := range e.decode {
		if i != srcIdx && int(d) > r.Delay {
			r.Delay = int(d)
		}
	}
	e.deriveHeard()
	etx := e.cfg.Model.TxEnergyJ(e.cfg.Packet.Bits, e.cfg.Packet.NeighborDistM)
	erx := e.cfg.Model.RxEnergyJ(e.cfg.Packet.Bits)
	v := len(e.txSlots)
	// Sized by dense node index (down nodes hold 0), not by live
	// count: consumers like the energy heatmap index it by t.Index.
	if cap(a.energy) < v {
		a.energy = make([]float64, v)
	}
	r.PerNodeEnergyJ = a.energy[:v]
	totalTx := 0
	for i := range r.PerNodeEnergyJ {
		n := len(e.txSlots[i])
		totalTx += n
		r.PerNodeEnergyJ[i] = float64(n)*etx + float64(e.heard[i])*erx
	}
	if cap(a.txSlots) < v {
		a.txSlots = make([][]int, v)
	}
	r.TxSlots = a.txSlots[:v]
	if cap(a.flat) < totalTx {
		a.flat = make([]int, 0, totalTx)
	}
	flat := a.flat[:0]
	for i, s := range e.txSlots {
		if len(s) == 0 {
			r.TxSlots[i] = nil // keep nil rows nil, like the per-round engine did
			continue
		}
		flat = append(flat, s...)
		r.TxSlots[i] = flat[len(flat)-len(s) : len(flat) : len(flat)]
	}
	a.flat = flat[:0]
	if cap(a.decode) < v {
		a.decode = make([]int, v)
	}
	r.DecodeSlot = a.decode[:v]
	for i, d := range e.decode {
		r.DecodeSlot[i] = int(d)
	}
	ledger := radio.NewLedger(e.cfg.Model, e.cfg.Packet)
	ledger.AddTx(r.Tx)
	ledger.AddRx(r.Rx)
	r.EnergyJ = ledger.TotalJ()
	r.downMask = e.down
	return r
}

// deriveHeard fills heard, the per-node reception counts, from the
// final schedule: every transmission reaches each live neighbor of its
// transmitter unless the channel drops it. The loss draw is a pure
// function of (slot, tx, rx), so re-drawing it reproduces the verdicts
// step saw, and the counts equal what a per-reception tally during the
// final replay would hold — without the replays or rewinds having to
// maintain one. The error-free channel walks the transmitter log, one
// increment per reception like step's own loop; a lossy channel needs
// each transmission's slot and walks the per-node rows instead, tx then
// slot then receivers, so each transmission's (slot, tx) key is
// absorbed once as in step. The counts are sums, so the walk order
// does not change them.
func (e *engine) deriveHeard() {
	heard := e.heard
	clear(heard)
	filter := e.liveFilter()
	if e.loss.lossy() {
		for tx, row := range e.txSlots {
			if len(row) == 0 {
				continue
			}
			nbs := e.neighborsOf(int32(tx), &e.nbufStep)
			for _, s := range row {
				key := e.loss.tx(s, int32(tx))
				for _, nb := range nbs {
					if filter != nil && filter[nb] {
						continue
					}
					if e.loss.delivers(key, nb) {
						heard[nb]++
					}
				}
			}
		}
		return
	}
	if e.ix == nil {
		// Materialized rows are already pruned of down nodes.
		for _, tx := range e.txLog {
			for _, nb := range e.nbr[tx] {
				heard[nb]++
			}
		}
		return
	}
	for _, tx := range e.txLog {
		for _, nb := range e.neighborsOf(tx, &e.nbufStep) {
			if filter == nil || !filter[nb] {
				heard[nb]++
			}
		}
	}
}

func (e *engine) emit(ev Event) {
	if e.cfg.Trace != nil {
		e.traceBuf = append(e.traceBuf, ev)
	}
}

// flushTrace delivers the final schedule's events. Intermediate
// planning replays are not traced.
func (e *engine) flushTrace() {
	if e.cfg.Trace == nil {
		return
	}
	for _, ev := range e.traceBuf {
		e.cfg.Trace(ev)
	}
}
