package sim

import (
	"slices"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/radio"
)

// Incremental delta propagation: RunDelta re-simulates only the dirty
// cone a batch of graph mutations casts over the previous round's
// cached schedule, and splices everything else verbatim.
//
// The cache (deltaCache) holds, per replay round of the previous run,
// the full per-node decode vector and the flattened per-node
// transmitter schedule, plus the final replay's reception counts and
// scalar counters and the repair injection plan. Each mutation since
// the capture (SetNodeDown, SetLinkDown/SetLinkUp) is recorded as a
// seed; RunDelta walks the affected (node, slot) events in slot
// order, comparing each node's inbound transmitter count and decode
// state under the cached and the mutated graph, and propagates decode
// transitions forward through the compiled relay plan. The walk's
// correctness rests on causality: relay delays and retransmit offsets
// are >= 1 by plan compilation, and repair injections fire strictly
// after their donor's decode, so every schedule change caused by a
// decode transition at slot d lands at slots > d — when slot s is
// processed, the belief transmitter sets for slot s are final.
//
// The delta path falls back to the full engine (re-capturing the
// cache) whenever its preconditions break: scalar configs (trace,
// channel loss) are never cached, a changed source runs plain, too
// many seeds or too many cone events cost more than a full run, and
// any structural divergence — different replay count, a repair plan
// the comparison can't match, the serialized-repair fallback, a slot
// past MaxSlots — aborts to the exact engine. Fallbacks are counted
// per reason (DeltaFallbacksByReason) so the hit rate is observable.

// fallbackReason enumerates why RunDelta declined the delta path.
type fallbackReason int

const (
	fbScalar    fallbackReason = iota // trace or channel config: inherently full-run
	fbCold                            // no valid cache yet (first run, Reset, prior error)
	fbSource                          // requested source differs from the cached one
	fbSeeds                           // mutation seed set too large to beat a full run
	fbStructure                       // replay/plan structure diverged from the cache
	fbBudget                          // cone event budget exceeded
	fbCount
)

var fallbackNames = [fbCount]string{
	"scalar", "cold_cache", "source_changed", "seed_overflow", "structure", "event_budget",
}

// Delta tuning knobs. Vars, not consts, so tests can force the
// fallback paths at any size; production code never mutates them.
var (
	// deltaSeedDiv caps the accepted mutation seed count at
	// 64 + links/deltaSeedDiv; beyond it a full run is cheaper.
	deltaSeedDiv = 4
	// deltaEventFloor and deltaEventDiv cap the cone walk at
	// deltaEventFloor + v/deltaEventDiv events. The bound is
	// deliberately tight: per-event cone work costs more than per-node
	// engine work, so a cone past a small fraction of the mesh already
	// loses to the full run — the budget's job is to make that
	// discovery cheap, not to stretch the cone's viability.
	deltaEventFloor = 256
	deltaEventDiv   = 8
	// Overload latch: deltaOverloadLatch consecutive capacity
	// fallbacks (seed overflow or event budget) drop the cache and run
	// plain for a stretch of rounds — deltaSuppressMin at first,
	// doubling up to deltaSuppressMax while the overloads persist —
	// before re-capturing. Without it a churn rate that outruns the
	// cone every round would pay full-run plus snapshot cost forever.
	deltaOverloadLatch = 2
	deltaSuppressMin   = 32
	deltaSuppressMax   = 1024
)

// replaySnap is one replay round's cached artifacts: the decode vector
// and the per-node transmitter schedule (flattened: node i's sorted
// slots are txFlat[txOff[i]:txOff[i+1]]), the live decoded count, and
// how many entries of the injection plan this replay ran with.
type replaySnap struct {
	decode  []int32
	txOff   []int32 // v+1 offsets into txFlat
	txFlat  []int32
	reached int
	injEnd  int
}

// deltaCache is the session's memoized previous round plus the
// mutation seeds recorded since.
type deltaCache struct {
	valid    bool  // replay snapshots describe the last captured run
	resValid bool  // s.res still holds this cache's assembled bytes
	srcIdx   int32 // source the cache was captured for

	replays []replaySnap
	injPlan []injection // full repair plan (prefix per replay, injEnd)
	heard   []int32     // final replay's per-node reception counts
	tx      int         // final replay's scalar counters
	rx      int
	coll    int
	dup     int

	// Source-stability tracking: the source of the previous RunDelta
	// call. A request matching it twice in a row means the origin has
	// settled (static cells always; residual once the argmax sticks),
	// so a cache pointed elsewhere is worth re-capturing; a source that
	// changes every call (round-robin) is never worth a snapshot.
	lastReq    int32
	hasLastReq bool

	// Overload latch (see the deltaOverload* knobs): consecutive
	// capacity fallbacks, rounds of capture suppression left, the next
	// suppression length, and the reason the latch reports while
	// engaged. overloads and suppressLen reset on the next served
	// delta.
	overloads      int
	suppress       int
	suppressLen    int
	suppressReason fallbackReason

	// Mutation seeds since the capture. flipBits holds flip parity per
	// link id (a link toggled back is no net change); deathBits marks
	// nodes that died after the capture (distinguishing them from nodes
	// already dead in the cached graph). The lists may hold stale or
	// duplicate entries; consumers filter by the bits.
	recording bool
	flipBits  bitset
	flips     []int32
	deathBits bitset
	deaths    []int32
}

// row returns node n's cached transmitter slots in replay r.
func (c *deltaCache) row(r int, n int32) []int32 {
	sn := &c.replays[r]
	return sn.txFlat[sn.txOff[n]:sn.txOff[n+1]]
}

// clearSeeds forgets the recorded mutations (they are now reflected in
// the cache) and (re)sizes the seed bitsets.
func (c *deltaCache) clearSeeds(s *Session) {
	c.deathBits.sizeToBits(s.v)
	if s.links != nil {
		c.flipBits.sizeToBits(len(s.links))
	}
	c.deaths = c.deaths[:0]
	c.flips = c.flips[:0]
}

// captureReplay snapshots one completed schedule replay off the live
// engine. Invoked via the engine's onReplay hook, once per replay, in
// order; inj is the injection set the replay ran with, a prefix of the
// final plan, so overwriting injPlan each call leaves the full plan.
func (c *deltaCache) captureReplay(e *engine, inj []injection) {
	v := len(e.decode)
	if len(c.replays) < cap(c.replays) {
		c.replays = c.replays[:len(c.replays)+1]
	} else {
		c.replays = append(c.replays, replaySnap{})
	}
	sn := &c.replays[len(c.replays)-1]
	sn.decode = append(sn.decode[:0], e.decode...)
	if cap(sn.txOff) < v+1 {
		sn.txOff = make([]int32, v+1)
	}
	sn.txOff = sn.txOff[:v+1]
	sn.txFlat = sn.txFlat[:0]
	for i, row := range e.txSlots {
		sn.txOff[i] = int32(len(sn.txFlat))
		for _, st := range row {
			sn.txFlat = append(sn.txFlat, int32(st))
		}
	}
	sn.txOff[v] = int32(len(sn.txFlat))
	sn.reached = e.res.Reached
	sn.injEnd = len(inj)
	c.injPlan = append(c.injPlan[:0], inj...)
}

// deltaScratch is the cone walk's arena. Per-node belief state is
// epoch-marked (one epoch per replay per RunDelta) so a replay switch
// costs nothing; the event queue is a per-slot bucket array consumed
// in ascending slot order.
type deltaScratch struct {
	epoch uint64
	mark  []uint64 // per node: epoch<<32 | slot+1 of the last processed event

	dvEp      []uint64 // belief decode, valid when dvEp[n] == epoch
	dv        []int32
	dvTouched []int32

	txEp      []uint64 // belief tx schedule, valid when txEp[n] == epoch
	txLists   [][]int32
	txTouched []int32

	hEp      []uint64 // accumulated reception delta, valid when hEp[n] == epoch
	heardD   []int32
	hTouched []int32

	affQ    [][]int32 // event queue: affQ[slot] lists nodes to process
	affHi   int
	curSlot int
	events  int
	budget  int

	dRx, dColl, dDup int // final-replay counter deltas

	newInj     []injection // the re-planned injection list
	activeInj  int         // newInj prefix the current replay runs with
	diverged   bool        // newInj no longer matches the cached plan
	planDirty  []int32     // nodes whose injections differ from the cache
	cachedEnds []int       // cached per-replay injEnd, pre-commit values

	flipSeeds []int32
	tmp       []int32 // deltaComputeTx build buffer
	bOff      []int32 // commit's schedule rebuild double-buffer
	bFlat     []int32
	abort     fallbackReason

	srcIdx int32
	plan   *relayPlan
}

func (d *deltaScratch) sizeTo(v int) {
	if len(d.mark) >= v {
		return
	}
	d.mark = make([]uint64, v)
	d.dvEp = make([]uint64, v)
	d.dv = make([]int32, v)
	d.txEp = make([]uint64, v)
	d.txLists = make([][]int32, v)
	d.hEp = make([]uint64, v)
	d.heardD = make([]int32, v)
}

// noteDeath records a post-capture node death seed.
func (s *Session) noteDeath(i int32) {
	c := &s.dcache
	if !c.recording {
		return
	}
	if !c.deathBits.get(i) {
		c.deathBits.set(i)
		c.deaths = append(c.deaths, i)
	}
}

// noteFlip records a post-capture link state flip seed. Parity: a link
// toggled an even number of times is byte-identical to the cache and
// seeds nothing (the stale list entry is filtered by the bit).
func (s *Session) noteFlip(id int32) {
	c := &s.dcache
	if !c.recording {
		return
	}
	if len(c.flipBits)<<6 < len(s.links) {
		// The link table was built after the capture; no flips can have
		// been recorded yet, so sizing (which clears) is safe.
		c.flipBits.sizeToBits(len(s.links))
	}
	was := c.flipBits.get(id)
	c.flipBits.flip(id)
	if !was {
		c.flips = append(c.flips, id)
		if len(c.flips) > 2*(64+len(s.links)/deltaSeedDiv) {
			s.compactFlips()
		}
	}
}

// compactFlips drops stale parity entries (and duplicates) from the
// flip list. Seeds normally stay small because every successful
// RunDelta clears them; while the cache sits idle under a rotating
// source they only accumulate, and if the net flip set alone already
// exceeds the seed-overflow threshold the cache can never serve a
// delta again — drop it so recording cannot grow without bound.
func (s *Session) compactFlips() {
	c := &s.dcache
	w := 0
	for _, id := range c.flips {
		if c.flipBits.get(id) {
			c.flipBits.unset(id) // later duplicates see the bit cleared
			c.flips[w] = id
			w++
		}
	}
	c.flips = c.flips[:w]
	for _, id := range c.flips {
		c.flipBits.set(id)
	}
	if len(c.flips) > 64+len(s.links)/deltaSeedDiv {
		s.invalidateCache()
	}
}

// invalidateCache drops the delta cache and stops seed recording; the
// next RunDelta re-captures from a full run.
func (s *Session) invalidateCache() {
	s.dcache.valid = false
	s.dcache.resValid = false
	s.dcache.recording = false
}

// latchOverload counts one capacity fallback and reports whether the
// overload latch engaged: enough of them in a row that the session
// should stop re-capturing and run plain for a while. The counter and
// backoff reset when a delta is next served.
func (s *Session) latchOverload(reason fallbackReason) bool {
	c := &s.dcache
	c.overloads++
	if c.overloads < deltaOverloadLatch {
		return false
	}
	s.invalidateCache()
	if c.suppressLen < deltaSuppressMin {
		c.suppressLen = deltaSuppressMin
	} else if c.suppressLen < deltaSuppressMax {
		c.suppressLen *= 2
	}
	c.suppress = c.suppressLen
	c.suppressReason = reason
	return true
}

// DeltaStats reports how many RunDelta calls were served from the
// incremental cone (hits) versus any full-engine fallback.
func (s *Session) DeltaStats() (hits, fallbacks uint64) {
	var f uint64
	for _, x := range s.deltaFall {
		f += x
	}
	return s.deltaHits, f
}

// DeltaFallbacksByReason returns the nonzero fallback counters keyed
// by reason name (scalar, cold_cache, source_changed, seed_overflow,
// structure, event_budget).
func (s *Session) DeltaFallbacksByReason() map[string]uint64 {
	out := make(map[string]uint64)
	for i, x := range s.deltaFall {
		if x > 0 {
			out[fallbackNames[i]] = x
		}
	}
	return out
}

// RunDelta simulates one broadcast from src like Run, but re-simulates
// only the dirty cone the mutations since the previous round cast over
// the cached schedule, splicing the untouched remainder verbatim. The
// Result is byte-identical to Run's on the same session state — the
// differential tests lock every path — and is valid until the next
// Run/RunDelta, Reset, or mutation. When the delta preconditions do
// not hold (see fallbackReason) it transparently runs the full engine.
func (s *Session) RunDelta(src grid.Coord) (*Result, error) {
	if err := s.validateSource(src); err != nil {
		return nil, err
	}
	if s.cfg.Trace != nil || s.cfg.Channel != nil {
		// Inherently scalar configs: a trace must replay every event, a
		// lossy channel decorrelates the cached schedule. Never cached.
		s.deltaFall[fbScalar]++
		return s.runPlain(src)
	}
	s.ensureLinks()
	c := &s.dcache
	srcIdx := int32(s.topo.Index(src))
	// A first call counts as stable so static cells arm the cache on
	// round 1; after that, stability means the same source twice in a
	// row.
	stable := !c.hasLastReq || c.lastReq == srcIdx
	c.lastReq, c.hasLastReq = srcIdx, true
	if !c.valid {
		if c.suppress > 0 {
			// Overload latch engaged: the churn rate recently outran the
			// cone twice in a row, so re-capturing would only tax every
			// full run with snapshot cost. Run plain until the latch
			// expires, reporting the reason that tripped it.
			c.suppress--
			s.deltaFall[c.suppressReason]++
			return s.runPlain(src)
		}
		s.deltaFall[fbCold]++
		if !stable {
			// The source changes every call (round-robin rotation): a
			// snapshot would be stale before it is ever consulted.
			return s.runPlain(src)
		}
		return s.runFullCapture(src, srcIdx)
	}
	if c.srcIdx != srcIdx {
		s.deltaFall[fbSource]++
		if stable {
			// The origin settled somewhere new (e.g. residual rotation's
			// argmax moved and stuck): re-point the cache at it.
			return s.runFullCapture(src, srcIdx)
		}
		// Still rotating: run plain but keep the cache — the delta path
		// re-engages if the cached source comes back, and compactFlips
		// bounds the seed recording in the meantime.
		return s.runPlain(src)
	}
	d := &s.dx
	d.flipSeeds = d.flipSeeds[:0]
	for _, id := range c.flips {
		if c.flipBits.get(id) {
			d.flipSeeds = append(d.flipSeeds, id)
		}
	}
	slices.Sort(d.flipSeeds)
	d.flipSeeds = slices.Compact(d.flipSeeds)
	if len(c.deaths)+len(d.flipSeeds) > 64+len(s.links)/deltaSeedDiv {
		s.deltaFall[fbSeeds]++
		if s.latchOverload(fbSeeds) {
			return s.runPlain(src)
		}
		return s.runFullCapture(src, srcIdx)
	}
	if len(c.deaths) == 0 && len(d.flipSeeds) == 0 && c.resValid {
		// Graph byte-identical to the cached round and s.res still holds
		// the assembled bytes: the previous Result IS this round's.
		s.deltaHits++
		c.overloads, c.suppressLen = 0, 0
		c.clearSeeds(s)
		return &s.res, nil
	}
	if res, ok := s.runDeltaCone(src, srcIdx); ok {
		s.deltaHits++
		c.overloads, c.suppressLen = 0, 0
		return res, nil
	}
	s.deltaFall[d.abort]++
	if d.abort == fbBudget && s.latchOverload(fbBudget) {
		return s.runPlain(src)
	}
	return s.runFullCapture(src, srcIdx)
}

// runFullCapture runs the full engine and snapshots every replay into
// the delta cache, arming the incremental path for the next round.
func (s *Session) runFullCapture(src grid.Coord, srcIdx int32) (*Result, error) {
	c := &s.dcache
	s.invalidateCache()
	c.replays = c.replays[:0]
	pl := s.planOf(src, srcIdx)
	s.dcache.resValid = false
	e := getEngine(s.topo, s.proto, pl, src, s.cfg, nil, s.adj, s.runDown())
	defer e.release()
	e.onReplay = func(inj []injection) { c.captureReplay(e, inj) }
	if err := e.runSchedule(); err != nil {
		return nil, err
	}
	e.onReplay = nil
	res := e.finishInto(&s.res, &s.arena)
	e.flushTrace()
	if !e.usedAppendRepair && len(c.replays) > 0 {
		c.heard = append(c.heard[:0], e.heard...)
		c.tx, c.rx, c.coll, c.dup = res.Tx, res.Rx, res.Collisions, res.Duplicates
		c.srcIdx = srcIdx
		c.valid, c.resValid, c.recording = true, true, true
		c.clearSeeds(s)
	}
	return res, nil
}

// runDeltaCone walks the dirty cone across every cached replay and, on
// success, commits the updated snapshots and assembles the Result from
// the cache. On abort (reason in s.dx.abort) the cache is invalidated
// — earlier replays may already hold committed updates — and the
// caller re-captures from a full run.
func (s *Session) runDeltaCone(src grid.Coord, srcIdx int32) (*Result, bool) {
	c := &s.dcache
	d := &s.dx
	v := s.v
	R := len(c.replays)
	total := v - s.downN
	d.sizeTo(v)
	d.budget = deltaEventFloor + v/deltaEventDiv
	d.events = 0
	d.newInj = d.newInj[:0]
	d.diverged = false
	d.planDirty = d.planDirty[:0]
	d.srcIdx = srcIdx
	d.plan = s.planOf(src, srcIdx)
	d.cachedEnds = d.cachedEnds[:0]
	for i := range c.replays {
		d.cachedEnds = append(d.cachedEnds, c.replays[i].injEnd)
	}

	var e *engine
	defer func() {
		if e != nil {
			e.release()
		}
	}()
	fail := func(reason fallbackReason) (*Result, bool) {
		d.abort = reason
		c.valid = false
		c.resValid = false
		// An abort can leave undrained event buckets (the drain truncates
		// only the buckets it finishes); clear them all so a later cone
		// walk, after re-capture, starts from an empty queue instead of
		// processing stale events against its budget.
		for i := range d.affQ {
			d.affQ[i] = d.affQ[i][:0]
		}
		return nil, false
	}

	for r := 0; r < R; r++ {
		d.epoch++
		d.curSlot = -1
		d.affHi = -1
		d.dvTouched = d.dvTouched[:0]
		d.txTouched = d.txTouched[:0]
		d.hTouched = d.hTouched[:0]
		d.dRx, d.dColl, d.dDup = 0, 0, 0
		d.activeInj = len(d.newInj)

		// Seed the cone: every replay re-derives the same graph seeds
		// (each cached replay ran on the old graph), plus any injection
		// divergence carried over from the previous replay's planning.
		for _, id := range d.flipSeeds {
			lk := s.links[id]
			for _, st := range c.row(r, lk.A) {
				s.deltaEnqueue(lk.B, int(st))
			}
			for _, st := range c.row(r, lk.B) {
				s.deltaEnqueue(lk.A, int(st))
			}
		}
		for _, n := range c.deaths {
			// The dead node's belief: never decodes, never transmits
			// (deltaSetDecode's markTx empties its schedule and fans the
			// removals out to its neighbors)...
			if !s.deltaSetDecode(r, n, -1) {
				return fail(d.abort)
			}
			// ...and its cached receptions vanish: process every slot a
			// pristine neighbor transmitted in, so the counters drop its
			// old receptions and outcome classes.
			for _, nb := range s.full[n] {
				for _, st := range c.row(r, nb) {
					s.deltaEnqueue(n, int(st))
				}
			}
		}
		for _, n := range d.planDirty {
			if !s.deltaMarkTx(r, n) {
				return fail(d.abort)
			}
		}

		if !s.deltaDrain(r) {
			return fail(d.abort)
		}
		s.deltaCommitReplay(r)

		// Termination decision, mirroring runSchedule exactly.
		sn := &c.replays[r]
		missing := sn.reached < total
		done := s.cfg.DisableRepair || !missing
		prevLen := len(d.newInj)
		if !done {
			if r >= s.cfg.MaxPlanRounds {
				// The full engine would take the serialized appendRepair
				// fallback here, which the cache cannot represent.
				return fail(fbStructure)
			}
			if e == nil {
				e = getEngine(s.topo, s.proto, d.plan, src, s.cfg, nil, s.adj, s.runDown())
			}
			s.deltaLoadEngine(e, r)
			if e.planInjections(&d.newInj) == 0 {
				done = true // unreached nodes are disconnected from the source
			}
		}
		if done != (r == R-1) {
			// The new run terminates earlier or later than the cached
			// one: replay structure changed, splicing is off the table.
			return fail(fbStructure)
		}
		if done {
			break
		}
		newRound := d.newInj[prevLen:]
		for _, in := range newRound {
			if in.slot > s.cfg.MaxSlots {
				// The full path errors with a runaway schedule here;
				// abort so the re-capture reproduces that exact error.
				return fail(fbStructure)
			}
		}
		d.planDirty = d.planDirty[:0]
		oldRound := c.injPlan[d.cachedEnds[r]:d.cachedEnds[r+1]]
		if !d.diverged && slices.Equal(newRound, oldRound) {
			continue // identical plans: next replay seeds from the graph alone
		}
		d.diverged = true
		s.deltaPlanDirty(d.newInj, c.injPlan[:d.cachedEnds[r+1]])
	}

	if d.diverged {
		c.injPlan = append(c.injPlan[:0], d.newInj...)
	}
	res := s.assembleDelta(src, srcIdx)
	c.resValid = true
	c.clearSeeds(s)
	return res, true
}

// deltaPlanDirty fills d.planDirty with every node whose injection
// multiset differs between the new and the cached plan. Plans are tiny
// relative to the mesh; the quadratic membership scan is fine.
func (s *Session) deltaPlanDirty(newList, oldList []injection) {
	d := &s.dx
	count := func(list []injection, in injection) int {
		n := 0
		for _, x := range list {
			if x == in {
				n++
			}
		}
		return n
	}
	for _, in := range newList {
		if count(newList, in) != count(oldList, in) {
			d.planDirty = append(d.planDirty, in.node)
		}
	}
	for _, in := range oldList {
		if count(newList, in) != count(oldList, in) {
			d.planDirty = append(d.planDirty, in.node)
		}
	}
	slices.Sort(d.planDirty)
	d.planDirty = slices.Compact(d.planDirty)
}

// deltaEnqueue queues node n for re-examination at slot.
func (s *Session) deltaEnqueue(n int32, slot int) {
	d := &s.dx
	for slot >= len(d.affQ) {
		d.affQ = append(d.affQ, nil)
	}
	d.affQ[slot] = append(d.affQ[slot], n)
	if slot > d.affHi {
		d.affHi = slot
	}
}

// deltaDrain consumes the event queue in ascending slot order. Events
// only ever enqueue strictly-later slots (causality), so each bucket
// is final when reached and within-bucket order is immaterial: every
// event reads only state that is final for its slot.
func (s *Session) deltaDrain(r int) bool {
	d := &s.dx
	for slot := 0; slot <= d.affHi; slot++ {
		bucket := d.affQ[slot]
		if len(bucket) == 0 {
			continue
		}
		d.curSlot = slot
		for _, n := range bucket {
			if !s.deltaEvent(r, n, slot) {
				return false
			}
		}
		d.affQ[slot] = bucket[:0]
	}
	return true
}

// deltaEvent re-examines node n at slot: recomputes its inbound
// transmitter count under the cached and the mutated graph, patches
// the outcome-class counters (collision / duplicate / reception), and
// propagates decode transitions.
func (s *Session) deltaEvent(r int, n int32, slot int) bool {
	d := &s.dx
	c := &s.dcache
	key := d.epoch<<32 | uint64(slot+1)
	if d.mark[n] == key {
		return true // (n, slot) already processed this replay
	}
	d.mark[n] = key
	d.events++
	if d.events > d.budget {
		d.abort = fbBudget
		return false
	}

	newDead := s.down != nil && s.down[n]
	if newDead && !c.deathBits.get(n) {
		return true // dead in the cached graph too: no activity either way
	}
	sn := &c.replays[r]
	decC := sn.decode[n]

	// One pass over the pristine row counts inbound transmitters at
	// this slot under both graphs. Old graph: current link/node state
	// with the recorded seeds undone (flip parity, post-capture
	// deaths), transmitters from the cached schedule. New graph:
	// current state, transmitters from the belief schedule.
	hc, hn := 0, 0
	rl := s.rowLink[n]
	for k, nb := range s.full[n] {
		lid := rl[k]
		nbDead := s.down != nil && s.down[nb]
		if !newDead && !nbDead && !s.linkDown[lid] && s.beliefTx(r, nb, slot) {
			hn++
		}
		nbOldDead := nbDead && !c.deathBits.get(nb)
		oldLinkDown := s.linkDown[lid] != c.flipBits.get(lid)
		if !nbOldDead && !oldLinkDown && slotIn(c.row(r, nb), slot) {
			hc++
		}
	}

	if dr := hn - hc; dr != 0 {
		d.dRx += dr
		if d.hEp[n] != d.epoch {
			d.hEp[n] = d.epoch
			d.heardD[n] = 0
			d.hTouched = append(d.hTouched, n)
		}
		d.heardD[n] += int32(dr)
	}

	// Outcome-class counter patches: remove the cached slot's class,
	// add the new one. Decodes are not a counter — Reached is patched
	// from the decode diffs at commit.
	coveredC := decC >= 0 && int(decC) < slot
	switch {
	case hc >= 2:
		d.dColl--
	case hc == 1 && coveredC:
		d.dDup--
	}
	bel := decC
	if d.dvEp[n] == d.epoch {
		bel = d.dv[n]
	}
	coveredN := bel >= 0 && int(bel) < slot
	if !newDead {
		switch {
		case hn >= 2:
			d.dColl++
		case hn == 1 && coveredN:
			d.dDup++
		}
	}

	wasHere := decC == int32(slot)
	isHere := !newDead && hn == 1 && !coveredN
	if isHere && !wasHere {
		if !s.deltaSetDecode(r, n, int32(slot)) {
			return false
		}
		if decC > int32(slot) {
			// The cached later first-decode is now a duplicate; process
			// that slot so its class flips.
			s.deltaEnqueue(n, int(decC))
		}
	} else if wasHere && !isHere && bel == int32(slot) {
		// The cached first-decode here is destroyed and nothing earlier
		// replaced it: n is now undecoded, and any cached later
		// reception — recorded as a duplicate — may become its decode.
		if !s.deltaSetDecode(r, n, -1) {
			return false
		}
		for _, nb := range s.full[n] {
			for _, st := range c.row(r, nb) {
				if int(st) > slot {
					s.deltaEnqueue(n, int(st))
				}
			}
		}
	}
	return true
}

// deltaSetDecode updates n's belief decode slot and recomputes its
// transmitter schedule (decode drives the relay plan and injection
// firing).
func (s *Session) deltaSetDecode(r int, n int32, val int32) bool {
	d := &s.dx
	if d.dvEp[n] != d.epoch {
		d.dvEp[n] = d.epoch
		d.dvTouched = append(d.dvTouched, n)
	}
	d.dv[n] = val
	return s.deltaMarkTx(r, n)
}

// deltaMarkTx recomputes node n's belief transmitter schedule and fans
// every differing slot out to n's pristine neighbors (a superset of
// the affected receivers under either graph; spurious events are
// no-ops). Aborts on a causality violation (a schedule change at or
// before the current slot) or a slot past MaxSlots — both mean the
// full engine must decide.
func (s *Session) deltaMarkTx(r int, n int32) bool {
	d := &s.dx
	var prev []int32
	if d.txEp[n] == d.epoch {
		prev = d.txLists[n]
	} else {
		prev = s.dcache.row(r, n)
	}
	cur := s.deltaComputeTx(r, n, d.tmp[:0])
	if slices.Equal(prev, cur) {
		d.tmp = cur[:0]
		return true
	}
	i, j := 0, 0
	for i < len(prev) || j < len(cur) {
		if i < len(prev) && j < len(cur) && prev[i] == cur[j] {
			i, j = i+1, j+1
			continue
		}
		var slot int32
		if j >= len(cur) || (i < len(prev) && prev[i] < cur[j]) {
			slot = prev[i]
			i++
		} else {
			slot = cur[j]
			j++
		}
		if int(slot) <= d.curSlot || int(slot) > s.cfg.MaxSlots {
			d.tmp = cur[:0]
			d.abort = fbStructure
			return false
		}
		for _, nb := range s.full[n] {
			s.deltaEnqueue(nb, int(slot))
		}
	}
	if d.txEp[n] != d.epoch {
		d.txEp[n] = d.epoch
		d.txTouched = append(d.txTouched, n)
	}
	d.txLists[n] = append(d.txLists[n][:0], cur...)
	d.tmp = cur[:0]
	return true
}

// deltaComputeTx builds node n's transmitter schedule under the
// current belief: the compiled plan's source/relay transmissions plus
// the replay's injections that fire (donor decoded strictly before the
// injection slot), sorted and deduplicated exactly like the engine's
// per-slot dedupe leaves them.
func (s *Session) deltaComputeTx(r int, n int32, buf []int32) []int32 {
	d := &s.dx
	if s.down != nil && s.down[n] {
		return buf
	}
	bel := s.dcache.replays[r].decode[n]
	if d.dvEp[n] == d.epoch {
		bel = d.dv[n]
	}
	if n == d.srcIdx {
		buf = append(buf, SourceTx)
		for _, off := range d.plan.retransmits(n) {
			buf = append(buf, int32(SourceTx+off))
		}
	} else if bel >= 0 && d.plan.relay.get(n) {
		first := bel + d.plan.delay[n]
		buf = append(buf, first)
		for _, off := range d.plan.retransmits(n) {
			buf = append(buf, first+int32(off))
		}
	}
	for _, in := range d.newInj[:d.activeInj] {
		if in.node == n && bel >= 0 && int(bel) < in.slot {
			buf = append(buf, int32(in.slot))
		}
	}
	slices.Sort(buf)
	return slices.Compact(buf)
}

// beliefTx reports whether node n transmits at slot under the current
// belief (falling back to the cached schedule when untouched).
func (s *Session) beliefTx(r int, n int32, slot int) bool {
	d := &s.dx
	if d.txEp[n] == d.epoch {
		return slotIn(d.txLists[n], slot)
	}
	return slotIn(s.dcache.row(r, n), slot)
}

// slotIn reports membership in a sorted slot row.
func slotIn(row []int32, slot int) bool {
	for _, st := range row {
		if int(st) == slot {
			return true
		}
		if int(st) > slot {
			return false
		}
	}
	return false
}

// deltaCommitReplay folds the replay's belief diffs into its cached
// snapshot: decode values and the reached count, the transmitter
// schedule (patched in place when row lengths are unchanged, rebuilt
// through a double buffer otherwise), and — final replay only — the
// scalar counters and reception counts the Result is assembled from.
func (s *Session) deltaCommitReplay(r int) {
	d := &s.dx
	c := &s.dcache
	sn := &c.replays[r]
	final := r == len(c.replays)-1
	for _, n := range d.dvTouched {
		old, nv := sn.decode[n], d.dv[n]
		if old == nv {
			continue
		}
		if old >= 0 {
			sn.reached--
		}
		if nv >= 0 {
			sn.reached++
		}
		sn.decode[n] = nv
	}
	if len(d.txTouched) > 0 {
		dTx := 0
		same := true
		for _, n := range d.txTouched {
			diff := len(d.txLists[n]) - int(sn.txOff[n+1]-sn.txOff[n])
			dTx += diff
			if diff != 0 {
				same = false
			}
		}
		if same {
			for _, n := range d.txTouched {
				copy(sn.txFlat[sn.txOff[n]:sn.txOff[n+1]], d.txLists[n])
			}
		} else {
			v := s.v
			if cap(d.bOff) < v+1 {
				d.bOff = make([]int32, v+1)
			}
			off := d.bOff[:v+1]
			flat := d.bFlat[:0]
			for i := 0; i < v; i++ {
				off[i] = int32(len(flat))
				if d.txEp[i] == d.epoch {
					flat = append(flat, d.txLists[i]...)
				} else {
					flat = append(flat, sn.txFlat[sn.txOff[i]:sn.txOff[i+1]]...)
				}
			}
			off[v] = int32(len(flat))
			d.bOff, sn.txOff = sn.txOff[:0], off
			d.bFlat, sn.txFlat = sn.txFlat[:0], flat
		}
		if final {
			c.tx += dTx
		}
	}
	if final {
		c.rx += d.dRx
		c.coll += d.dColl
		c.dup += d.dDup
		for _, n := range d.hTouched {
			c.heard[n] += d.heardD[n]
		}
	}
	sn.injEnd = d.activeInj
}

// deltaLoadEngine materializes a replay snapshot into a bound engine
// so the real planInjections runs on it — the plan the full path would
// compute, by construction, not by reimplementation.
func (s *Session) deltaLoadEngine(e *engine, r int) {
	sn := &s.dcache.replays[r]
	v := s.v
	copy(e.decode, sn.decode)
	e.covered.sizeToBits(v)
	for i := int32(v); i < int32(len(e.covered)<<6); i++ {
		e.covered.set(i)
	}
	for i, dec := range sn.decode {
		if dec >= 0 {
			e.covered.set(int32(i))
		}
	}
	for i := 0; i < v; i++ {
		dst := e.txSlots[i][:0]
		for _, st := range sn.txFlat[sn.txOff[i]:sn.txOff[i+1]] {
			dst = append(dst, int(st))
		}
		e.txSlots[i] = dst
	}
}

// assembleDelta writes the Result from the committed cache, mirroring
// finishInto byte for byte (same arena reuse, same nil-row and
// widening conventions, same ledger arithmetic).
func (s *Session) assembleDelta(src grid.Coord, srcIdx int32) *Result {
	c := &s.dcache
	fin := &c.replays[len(c.replays)-1]
	v := s.v
	repairs := 0
	for _, in := range c.injPlan[:fin.injEnd] {
		if dec := fin.decode[in.node]; dec >= 0 && int(dec) < in.slot {
			repairs++
		}
	}
	r := &s.res
	a := &s.arena
	*r = Result{
		Kind:       s.topo.Kind(),
		Source:     src,
		Protocol:   s.proto.Name(),
		Tx:         c.tx,
		Rx:         c.rx,
		Reached:    fin.reached,
		Total:      v - s.downN,
		Down:       s.downN,
		Collisions: c.coll,
		Duplicates: c.dup,
		Repairs:    repairs,
	}
	for i, dec := range fin.decode {
		if i != int(srcIdx) && int(dec) > r.Delay {
			r.Delay = int(dec)
		}
	}
	etx := s.cfg.Model.TxEnergyJ(s.cfg.Packet.Bits, s.cfg.Packet.NeighborDistM)
	erx := s.cfg.Model.RxEnergyJ(s.cfg.Packet.Bits)
	if cap(a.energy) < v {
		a.energy = make([]float64, v)
	}
	r.PerNodeEnergyJ = a.energy[:v]
	for i := range r.PerNodeEnergyJ {
		n := int(fin.txOff[i+1] - fin.txOff[i])
		r.PerNodeEnergyJ[i] = float64(n)*etx + float64(c.heard[i])*erx
	}
	totalTx := int(fin.txOff[v])
	if cap(a.txSlots) < v {
		a.txSlots = make([][]int, v)
	}
	r.TxSlots = a.txSlots[:v]
	if cap(a.flat) < totalTx {
		a.flat = make([]int, 0, totalTx)
	}
	flat := a.flat[:0]
	for i := 0; i < v; i++ {
		row := fin.txFlat[fin.txOff[i]:fin.txOff[i+1]]
		if len(row) == 0 {
			r.TxSlots[i] = nil // keep nil rows nil, like finishInto
			continue
		}
		for _, st := range row {
			flat = append(flat, int(st))
		}
		r.TxSlots[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
	}
	a.flat = flat[:0]
	if cap(a.decode) < v {
		a.decode = make([]int, v)
	}
	r.DecodeSlot = a.decode[:v]
	for i, dec := range fin.decode {
		r.DecodeSlot[i] = int(dec)
	}
	ledger := radio.NewLedger(s.cfg.Model, s.cfg.Packet)
	ledger.AddTx(r.Tx)
	ledger.AddRx(r.Rx)
	r.EnergyJ = ledger.TotalJ()
	r.downMask = s.runDown()
	return r
}
