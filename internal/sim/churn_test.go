package sim

import "testing"

// The churn chain must be domain-separated from every other draw
// family: a lifetime study runs link churn and per-slot loss under the
// same seed, and a shared uniform would couple "does the link exist
// this round" with "does this copy arrive" in a way no threshold
// comparison could untangle.

func TestChurnDomainConstantsDistinct(t *testing.T) {
	domains := map[string]uint64{
		"loss":    domainLoss,
		"failure": domainFailure,
		"rep":     domainRep,
		"churn":   domainChurn,
	}
	seen := make(map[uint64]string)
	for name, d := range domains {
		if prev, dup := seen[d]; dup {
			t.Fatalf("domain constants %q and %q collide at %#x", prev, name, d)
		}
		seen[d] = name
	}
}

func TestChurnUnitRange(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		for round := 0; round < 64; round++ {
			for link := int32(0); link < 64; link++ {
				u := ChurnUnit(seed, round, link)
				if u < 0 || u >= 1 {
					t.Fatalf("ChurnUnit(%d, %d, %d) = %g outside [0, 1)", seed, round, link, u)
				}
				if u != ChurnUnit(seed, round, link) {
					t.Fatalf("ChurnUnit(%d, %d, %d) not deterministic", seed, round, link)
				}
			}
		}
	}
}

// FuzzChurnDomainDisjoint pins the keyspace separation: for any
// coordinates the fuzzer invents, the churn draw never equals the loss
// or failure draw of the same seed. The chains share their absorbed prefix (seed), then absorb distinct
// domain words; mix64 is invertible, so distinct domains give distinct
// chain states from that word on, and every draw downstream differs —
// this fuzz target is the empirical check of that argument.
func FuzzChurnDomainDisjoint(f *testing.F) {
	f.Add(uint64(1), 0, int32(0), int32(1))
	f.Add(uint64(42), 7, int32(12), int32(13))
	f.Add(uint64(0xdeadbeef), 900, int32(511), int32(0))
	f.Fuzz(func(t *testing.T, seed uint64, round int, link, rx int32) {
		churn := keyedUint64(seed, domainChurn, uint64(round), uint64(uint32(link)))
		// Loss draws absorb (slot, tx, rx); line the first two words up
		// with the churn coordinates so a domain collision would surface
		// as equal prefixes before rx is even absorbed.
		lossPrefix := keyedUint64(seed, domainLoss, uint64(round), uint64(uint32(link)))
		if churn == lossPrefix {
			t.Fatalf("churn and loss chains collide at seed %#x round %d link %d: %#x",
				seed, round, link, churn)
		}
		loss := keyedUint64(seed, domainLoss, uint64(round), uint64(uint32(link)), uint64(uint32(rx)))
		if churn == loss {
			t.Fatalf("churn draw equals full loss draw at seed %#x round %d link %d rx %d",
				seed, round, link, rx)
		}
		fail := keyedUint64(seed, domainFailure, uint64(round), uint64(uint32(link)))
		if churn == fail {
			t.Fatalf("churn and failure chains collide at seed %#x round %d link %d: %#x",
				seed, round, link, churn)
		}
	})
}
