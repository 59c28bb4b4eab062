package sim

import (
	"fmt"
	"math"

	"wsnbcast/internal/grid"
)

// This file is the simulator's only source of randomness, and it is
// deliberately not math/rand: every draw is a counter-based hash of
// (seed, domain, coordinates), so a draw's value depends on *what* is
// being decided, never on *how many* draws happened before it. That
// property is what keeps the stochastic path inside the determinism
// contract of internal/sweep — worker count, job order, and the repair
// planner's schedule replays cannot shift any draw — and it gives
// common-random-numbers coupling across loss rates: the same
// (seed, slot, tx, rx) uniform is compared against different
// thresholds, so differences between curve points reflect the rate
// change rather than re-sampled noise.

// Domain-separation constants: the same seed must never produce
// correlated draws for link loss and node failure.
const (
	domainLoss    uint64 = 0x6c6f7373 // "loss"
	domainFailure uint64 = 0x6661696c // "fail"
	domainRep     uint64 = 0x72657020 // "rep "
	domainChurn   uint64 = 0x6368726e // "chrn"
)

// golden is the splitmix64 increment (2^64 / phi).
const golden uint64 = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: an invertible avalanche that maps
// a counter to a well-distributed 64-bit word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyedUint64 absorbs the words into a splitmix64-style chain and
// returns a uniform 64-bit value. Each absorbed word is offset by the
// golden increment so that (a, b) and (a+1, b-1) diverge.
func keyedUint64(words ...uint64) uint64 {
	h := golden
	for _, w := range words {
		h = absorb(h, w)
	}
	return h
}

// absorb folds one more word into a keyed chain:
// absorb(keyedUint64(ws...), w) == keyedUint64(ws..., w). Hot loops
// absorb a shared prefix once and extend it per draw.
func absorb(h, w uint64) uint64 { return mix64(h + golden + w) }

// keyedUnit maps the keyed draw to a uniform float64 in [0, 1) using
// the top 53 bits.
func keyedUnit(words ...uint64) float64 {
	return float64(keyedUint64(words...)>>11) * 0x1p-53
}

// unitCut is a threshold on keyedUnit's uniform in integer form: for
// every draw x, float64(x>>11)*2⁻⁵³ >= rate iff x>>11 >= unitCut(rate).
// The uniform is k·2⁻⁵³ for an integer k < 2⁵³, and scaling rate by 2⁵³
// is exact (subnormals included), so k >= rate·2⁵³ iff k >= the
// ceiling. Rates ≤ 0 give 0, which every draw reaches; NaN and rates
// above 1 give 2⁵³, which none does — exactly as the float compare
// behaves.
func unitCut(rate float64) uint64 {
	switch {
	case rate <= 0:
		return 0
	case rate <= 1:
		return uint64(math.Ceil(rate * 0x1p53))
	default:
		return 1 << 53
	}
}

// BernoulliLoss is the lossy channel: it drops each (slot, tx, rx)
// reception independently with probability Rate, using counter-based
// draws keyed by (Seed, slot, tx, rx). A dropped copy contributes
// nothing at rx — no reception, no energy, no collision. The zero Rate
// is the error-free channel, and the zero value is what Config holds
// by default. Two channels with equal seeds and different rates share
// their underlying uniforms, so raising the rate only ever removes
// deliveries.
//
// Every verdict is a pure function of (Seed, Rate, slot, tx, rx): the
// engine replays schedules during repair planning and the sweep engine
// runs from many goroutines, so any draw may be evaluated several
// times and in any order, and comes out the same every time.
type BernoulliLoss struct {
	Seed uint64
	Rate float64
}

// NewBernoulliLoss returns the lossy channel, or the zero (error-free)
// channel when rate is 0 so the engine keeps its exact deterministic
// path. It panics when rate is not in [0, 1], NaN included — callers
// validate user input before building configs.
func NewBernoulliLoss(seed uint64, rate float64) BernoulliLoss {
	if !(rate >= 0 && rate <= 1) {
		panic(fmt.Sprintf("sim: loss rate %g outside [0, 1]", rate))
	}
	if rate == 0 {
		return BernoulliLoss{}
	}
	return BernoulliLoss{Seed: seed, Rate: rate}
}

// Deliver reports whether rx hears tx's transmission in the given
// slot: the copy arrives iff the link's uniform clears the loss
// threshold. It hashes the whole five-word chain per call; the engine
// takes the hoisted form (lossKeys) instead, and the package's tests
// hold the two to the same verdicts.
func (b BernoulliLoss) Deliver(slot int, tx, rx int32) bool {
	u := keyedUnit(b.Seed, domainLoss, uint64(slot), uint64(uint32(tx)), uint64(uint32(rx)))
	return u >= b.Rate
}

// lossKeys is a BernoulliLoss in the engine's hoisted form: the chain
// prefix (Seed, domainLoss) absorbed once per Run, each transmission's
// (slot, tx) absorbed once for all its receivers, and the rate as an
// integer threshold on the draw's top 53 bits. A lossy reception then
// costs one mix64 and an integer compare.
type lossKeys struct {
	prefix uint64
	cut    uint64 // unitCut(Rate); 0 is the error-free channel
}

func (b BernoulliLoss) keys() lossKeys {
	return lossKeys{prefix: keyedUint64(b.Seed, domainLoss), cut: unitCut(b.Rate)}
}

// lossy reports whether any reception can be dropped.
func (l lossKeys) lossy() bool { return l.cut != 0 }

// tx returns the chain key shared by every receiver of tx's
// transmission in slot.
func (l lossKeys) tx(slot int, tx int32) uint64 {
	return absorb(absorb(l.prefix, uint64(slot)), uint64(uint32(tx)))
}

// delivers reports whether rx hears the transmission keyed k — the
// verdict Deliver gives for the same (slot, tx, rx).
func (l lossKeys) delivers(k uint64, rx int32) bool {
	return absorb(k, uint64(uint32(rx)))>>11 >= l.cut
}

// ReplicationSeed derives the seed of replication rep from a study
// seed. The derivation deliberately ignores the loss and failure rates:
// replication rep shares its uniforms across every rate, so curves over
// a rate grid are coupled (common random numbers) and differences
// between grid points reflect the rate, not re-sampled noise.
func ReplicationSeed(seed uint64, rep int) uint64 {
	return keyedUint64(seed, domainRep, uint64(rep))
}

// ChurnUnit returns the uniform in [0, 1) that decides link `link`'s
// state transition in lifetime round `round`. The draw is keyed by
// (seed, domainChurn, round, link) — a distinct domain from the loss
// and failure chains, so a lifetime study with churn and per-slot loss
// under the same seed never compares the same uniform against two
// thresholds (see TestChurnDomainDisjoint / FuzzChurnDomainDisjoint).
// Both directions of an undirected link share one draw: churn flips
// links, not directed edges. As with loss, the uniform is shared
// across churn rates, so raising p_fail only ever fails more links.
func ChurnUnit(seed uint64, round int, link int32) float64 {
	return keyedUnit(seed, domainChurn, uint64(round), uint64(uint32(link)))
}

// SampleFailures samples pre-broadcast node failures: every node except
// the source fails independently with probability rate, keyed by
// (seed, node index) so one node's fate never shifts another's draw.
// The source is exempt — a broadcast study conditions on its origin
// being alive (sim.Run rejects a down source outright). The returned
// coordinates are in dense index order. Like the loss draws, the
// uniforms are shared across rates: a node down at rate p stays down
// at every p' > p under the same seed.
func SampleFailures(t grid.Topology, src grid.Coord, seed uint64, rate float64) []grid.Coord {
	var down []grid.Coord
	for _, i := range AppendFailures(nil, t, src, seed, rate) {
		down = append(down, t.At(int(i)))
	}
	return down
}

// AppendFailures appends the dense indices of the nodes SampleFailures
// fails to dst, in ascending order, and returns the extended slice —
// the form a Session's SetNodeDown takes, with no Coord round-trip and
// no allocation once dst has grown.
func AppendFailures(dst []int32, t grid.Topology, src grid.Coord, seed uint64, rate float64) []int32 {
	if !(rate >= 0 && rate <= 1) {
		panic(fmt.Sprintf("sim: failure rate %g outside [0, 1]", rate))
	}
	if rate == 0 {
		return dst
	}
	// Node i fails iff keyedUnit(seed, domainFailure, i) < rate: the
	// (seed, domainFailure) prefix is absorbed once for the whole mesh.
	prefix, cut := keyedUint64(seed, domainFailure), unitCut(rate)
	srcIdx := t.Index(src)
	for i := 0; i < t.NumNodes(); i++ {
		if i != srcIdx && absorb(prefix, uint64(i))>>11 < cut {
			dst = append(dst, int32(i))
		}
	}
	return dst
}
