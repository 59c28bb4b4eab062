package sim

import (
	"fmt"

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
		h = mix64(h + golden + w)
	}
	return h
}

// keyedUnit maps the keyed draw to a uniform float64 in [0, 1) using
// the top 53 bits.
func keyedUnit(words ...uint64) float64 {
	return float64(keyedUint64(words...)>>11) * 0x1p-53
}

// Channel decides per-link reception. Deliver reports whether rx hears
// tx's transmission in the given slot; a dropped copy contributes
// nothing at rx — no reception, no energy, no collision. Deliver must
// be a pure function of its arguments: the engine replays schedules
// during repair planning and the sweep engine calls it from many
// goroutines, so any draw may be evaluated several times and in any
// order, and must come out the same every time.
type Channel interface {
	Deliver(slot int, tx, rx int32) bool
}

// BernoulliLoss is a Channel that drops each (slot, tx, rx) reception
// independently with probability Rate, using counter-based draws keyed
// by (Seed, slot, tx, rx). The zero Rate delivers everything; two
// channels with equal seeds and different rates share their underlying
// uniforms, so raising the rate only ever removes deliveries.
type BernoulliLoss struct {
	Seed uint64
	Rate float64
}

// NewBernoulliLoss returns the lossy channel, or nil when rate <= 0 so
// the engine keeps its exact zero-overhead deterministic path. It
// panics when rate is not in [0, 1] — callers validate user input
// before building configs.
func NewBernoulliLoss(seed uint64, rate float64) Channel {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("sim: loss rate %g outside [0, 1]", rate))
	}
	if rate <= 0 {
		return nil
	}
	return BernoulliLoss{Seed: seed, Rate: rate}
}

// Deliver implements Channel: the copy arrives iff the link's uniform
// clears the loss threshold.
func (b BernoulliLoss) Deliver(slot int, tx, rx int32) bool {
	u := keyedUnit(b.Seed, domainLoss, uint64(slot), uint64(uint32(tx)), uint64(uint32(rx)))
	return u >= b.Rate
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
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("sim: failure rate %g outside [0, 1]", rate))
	}
	if rate <= 0 {
		return dst
	}
	srcIdx := t.Index(src)
	for i := 0; i < t.NumNodes(); i++ {
		if i != srcIdx && keyedUnit(seed, domainFailure, uint64(i)) < rate {
			dst = append(dst, int32(i))
		}
	}
	return dst
}
