package sim

import "math/bits"

// slotQueue is a slot-indexed transmission schedule: bucket b holds
// the nodes scheduled to transmit in absolute slot b. It replaces the
// engine's former map[int][]int32 schedule on the hot path — draining
// a slot is an array index instead of a hash lookup plus delete, and
// bucket backing arrays are retained across resets so a pooled engine
// schedules with no steady-state allocation.
//
// Slots are clamped by the engine before they reach add (see
// engine.schedule), so the bucket array never grows past
// Config.MaxSlots+1.
type slotQueue struct {
	buckets [][]int32
	hi      int // high-water: buckets[0:hi] may hold entries
}

// add appends node to the slot's bucket, growing the bucket array on
// demand (header growth is amortized; bucket capacity is retained
// across resets).
func (q *slotQueue) add(slot int, node int32) {
	for slot >= len(q.buckets) {
		q.buckets = append(q.buckets, nil)
	}
	q.buckets[slot] = append(q.buckets[slot], node)
	if slot+1 > q.hi {
		q.hi = slot + 1
	}
}

// take returns the slot's bucket (nil when empty) and clears it. The
// returned slice aliases the bucket's backing array; the engine may
// extend or reorder it in place because nothing schedules into a slot
// that is currently being drained — every schedule targets a strictly
// later slot.
func (q *slotQueue) take(slot int) []int32 {
	if slot >= len(q.buckets) {
		return nil
	}
	b := q.buckets[slot]
	q.buckets[slot] = b[:0]
	if len(b) == 0 {
		return nil
	}
	return b
}

// keep hands a taken slot's bucket back its (possibly regrown) array,
// emptied, so capacity the engine grew while draining the slot is
// reused by the next replay instead of reallocated.
func (q *slotQueue) keep(slot int, b []int32) { q.buckets[slot] = b[:0] }

// reset empties every bucket up to the high-water mark, retaining all
// capacity. After a clean drain the buckets are already empty (take
// clears as it goes); reset also covers error and abandoned-round
// paths.
func (q *slotQueue) reset() {
	n := q.hi
	if n > len(q.buckets) {
		n = len(q.buckets)
	}
	for i := 0; i < n; i++ {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.hi = 0
}

// dedupeTxs drops duplicate transmitters from a slot (a node transmits
// at most once per slot even if scheduled twice). Only the trace reads
// the order of a slot's transmitters: counters, decode slots, txSlots
// and rewind depend on the set alone (DESIGN §9). So an untraced run
// drops duplicates by mark-and-compact on the node-indexed dedupBits —
// one pass, first occurrence kept, no sort — and only a traced run
// pays for the canonical ascending order its events must come out in:
// one pass setting bits, then an ascending bit extraction over the
// touched words. dedupBits is all-zero between calls on both paths.
func (e *engine) dedupeTxs(txs []int32) []int32 {
	b := e.dedupBits
	if e.cfg.Trace == nil {
		out := txs[:0]
		for _, v := range txs {
			if !b.get(v) {
				b.set(v)
				out = append(out, v)
			}
		}
		for _, v := range out {
			b.unset(v)
		}
		return out
	}
	lo, hi := txs[0]>>6, txs[0]>>6
	for _, v := range txs {
		if w := v >> 6; w < lo {
			lo = w
		} else if w > hi {
			hi = w
		}
		b.set(v)
	}
	out := txs[:0] // contents fully transferred to the bitset above
	for w := lo; w <= hi; w++ {
		word := b[w]
		if word == 0 {
			continue
		}
		b[w] = 0
		base := w << 6
		for word != 0 {
			out = append(out, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}
