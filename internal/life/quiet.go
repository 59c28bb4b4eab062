package life

import (
	"math"
	"math/bits"
)

// quiet runs, in one step, the rounds that follow a memoized round of a
// static, churn-free cell and kill no node. Each such round would pick
// the same source, advance no churn chain and reuse the memoized
// broadcast, so account would only debit every alive node by the same
// energy as before and bump the counters; quiet does exactly that, for
// k rounds at once, through the bit-exact debit kernel. The stretch
// stops before the next curve sample, the next multiple of every (the
// checkpoint cadence) and the last round, which account runs in full,
// and before the first round that could drain a battery, which account
// runs in full too and which ends the memo on a death.
func (st *cellState) quiet(every int) {
	// A stopped cell never batches: at max_rounds k below is negative,
	// and every other stop follows a death, which clears the memo.
	res := st.last
	if res == nil || st.cell.Strategy != Static || st.cell.PFail != 0 {
		return
	}
	r := st.rep.Rounds
	k := min(st.spec.MaxRounds, nextMultiple(r, st.sampleEvery()), nextMultiple(r, every)) - 1 - r
	battery, dead := st.battery, st.dead
	for i, e := range res.PerNodeEnergyJ {
		if k <= 0 {
			return
		}
		if e != 0 && !dead[i] {
			k = min(k, survivingDebits(battery[i], e))
		}
	}
	if k <= 0 {
		return
	}
	for i, e := range res.PerNodeEnergyJ {
		if e != 0 && !dead[i] {
			battery[i] = debit(battery[i], e, k)
		}
	}
	for range k {
		st.energyJ += res.EnergyJ
	}
	st.rep.Rounds += k
	if res.FullyReached() {
		st.rep.DeliveredRounds += k
	}
}

// nextMultiple returns the smallest multiple of m greater than r.
func nextMultiple(r, m int) int { return (r/m + 1) * m }

// survivingDebits returns a k such that k repeated b -= e, from a
// positive b with e > 0, leave b positive; it may undercount, never
// overcount. The debits never raise b, so each rounding error is at
// most half an ulp of the starting b: 2^-53·b for a normal b, 2^-1075
// for a subnormal one. After k debits b is therefore at least
// b - k·(e + h) with h = 2^-53·b + 2^-1075, and positive whenever
// k·(e + h) < b. The float quotient below over-states h (2^-50·b,
// 2^-1070) by more than its own rounding errors, and the trailing -1
// absorbs the division's, so the returned k meets that bound. The
// quotient is at most 2^50, so the conversion cannot overflow.
func survivingDebits(b, e float64) int {
	return int(b/(e+b*0x1p-50+0x1p-1070)) - 1
}

// debit returns b after k repeated b -= e, bit for bit, in far fewer
// than k subtractions when it can. Within one binade of the running
// value, float64 subtraction rounds at a fixed ulp u, and writing
// e/u = q + f (q an integer, f in [0, 1)) each step removes q ulps when
// f < 1/2 and q+1 when f > 1/2, whatever the mantissa. When f = 1/2 the
// step ties and round-half-even picks the even neighbour, so which of
// q and q+1 it removes depends on the mantissa's parity; but every tie
// leaves an even mantissa, and from an even mantissa the choice is
// fixed. So once a subtraction has landed in the binade and a second
// one has stayed there, every further step removes the ulps that
// second one removed, as long as the exact difference stays inside
// the binade, which holds while each step ends at least one ulp above
// the binade's bottom. Those steps are taken as one integer jump on
// the bit pattern. Binade crossings, non-normal or non-positive
// values, e ≤ 0 or NaN, and the last steps of a binade run as plain
// subtractions.
func debit(b, e float64, k int) float64 {
	const (
		mantBits = 52
		mantMask = 1<<mantBits - 1
	)
	for k > 0 {
		b1 := b - e
		k--
		if k == 0 {
			return b1
		}
		b2 := b1 - e
		k--
		w1, w2 := math.Float64bits(b1), math.Float64bits(b2)
		exp := w1 >> mantBits // sign and exponent; positive normal is 1..2046
		if !(e > 0) || exp == 0 || exp >= 2047 || w2>>mantBits != exp {
			b = b2
			continue
		}
		m := w2 & mantMask
		if m == 0 {
			b = b2 // at the binade's bottom: the next step may leave it
			continue
		}
		d := w1 - w2 // ulps per step from here on; e > 0 makes it >= 0
		if d == 0 {
			return b2 // e is at most half an ulp: no further step changes b
		}
		// Step j ends at mantissa m - j·d; its exact difference exceeds
		// that less one ulp, so it stays in the binade while m - j·d >= 1.
		n := uint64(k)
		if hi, lo := bits.Mul64(n, d); hi != 0 || lo > m-1 {
			n = (m - 1) / d
		}
		b = math.Float64frombits(w2 - n*d)
		k -= int(n)
	}
	return b
}
