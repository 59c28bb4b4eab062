package sim

import "math/bits"

// bitset is a flat []uint64 bit vector over dense node indices — the
// large-grid engine's representation for per-node boolean state
// (covered, down, relay). At a million nodes a bitset costs 128 KiB
// where a []bool costs 1 MiB and a materialized adjacency row set costs
// tens of MiB; the whole steady-state boolean footprint of a pooled
// engine is O(N) bits.
type bitset []uint64

// newBitset returns a bitset holding n bits, all clear.
func newBitset(n int) bitset { return make(bitset, (n+63)>>6) }

// sizeToBits (re)dimensions b to hold n bits, retaining capacity, and
// clears every word. The receiver-pointer form lets pooled arenas grow
// in place.
func (b *bitset) sizeToBits(n int) {
	words := (n + 63) >> 6
	if cap(*b) < words {
		*b = make(bitset, words)
		return
	}
	*b = (*b)[:words]
	clear(*b)
}

// get reports bit i.
func (b bitset) get(i int32) bool { return b[i>>6]&(1<<(uint32(i)&63)) != 0 }

// set sets bit i.
func (b bitset) set(i int32) { b[i>>6] |= 1 << (uint32(i) & 63) }

// unset clears bit i.
func (b bitset) unset(i int32) { b[i>>6] &^= 1 << (uint32(i) & 63) }

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// nextZero returns the index of the first clear bit >= from, or limit
// if none exists below it. Word-skipping: a fully set word — the
// steady state of a covered vector on an almost-fully-reached mesh —
// costs one compare for 64 nodes.
func (b bitset) nextZero(from int32, limit int32) int32 {
	if from >= limit {
		return limit
	}
	wi := int(from >> 6)
	// Mask off bits below from in the first word by treating them as set.
	w := b[wi] | (1<<(uint32(from)&63) - 1)
	for {
		if w != ^uint64(0) {
			i := int32(wi<<6 + bits.TrailingZeros64(^w))
			if i >= limit {
				return limit
			}
			return i
		}
		wi++
		if wi >= len(b) {
			return limit
		}
		w = b[wi]
	}
}
