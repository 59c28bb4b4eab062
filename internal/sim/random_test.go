package sim

import (
	"math"
	"reflect"
	"testing"

	"wsnbcast/internal/grid"
	"wsnbcast/internal/radio"
)

// The keyed draws are part of the wire-visible contract: a replication
// seed must reproduce its byte-identical report forever, so the PRNG's
// exact outputs are pinned here. If these values ever change, every
// published reliability curve silently changes with them.
func TestKeyedDrawsPinned(t *testing.T) {
	pins := []struct {
		words []uint64
		want  uint64
	}{
		{[]uint64{0}, keyedUint64(0)},
		{[]uint64{1, 2, 3}, keyedUint64(1, 2, 3)},
	}
	// Self-consistency (same words, same draw) plus divergence.
	for _, p := range pins {
		if got := keyedUint64(p.words...); got != p.want {
			t.Errorf("keyedUint64(%v) not stable: %d vs %d", p.words, got, p.want)
		}
	}
	if keyedUint64(1, 2) == keyedUint64(2, 1) {
		t.Error("keyed draw ignores word order")
	}
	if keyedUint64(1, 2) == keyedUint64(2, 1+golden) {
		t.Error("adjacent word pairs collide")
	}
	// Absolute pins: the splitmix64 chain must not drift across
	// refactors or Go versions.
	if got := keyedUint64(42, domainLoss, 7, 3, 4); got != 0x1ba1eebe8788012d {
		t.Errorf("keyedUint64(42, loss, 7, 3, 4) = %#x (pinned value drifted)", got)
	}
	// The same pin through the engine's hoisted form: per-Run prefix,
	// per-transmission key, one absorb per receiver.
	keys := BernoulliLoss{Seed: 42, Rate: 0.5}.keys()
	if got := absorb(keys.tx(7, 3), 4); got != 0x1ba1eebe8788012d {
		t.Errorf("hoisted (42, loss, 7, 3, 4) = %#x (pinned value drifted)", got)
	}
	if u := keyedUnit(42, domainFailure, 9); u < 0 || u >= 1 {
		t.Errorf("keyedUnit out of [0,1): %g", u)
	}
}

func TestBernoulliLossBasics(t *testing.T) {
	if NewBernoulliLoss(1, 0) != (BernoulliLoss{}) {
		t.Error("rate 0 should return the zero (perfect) channel")
	}
	ch := NewBernoulliLoss(1, 0.3)
	if !ch.keys().lossy() {
		t.Fatal("rate 0.3 returned an error-free channel")
	}
	// Pure function: repeated evaluation agrees.
	for slot := 0; slot < 50; slot++ {
		if ch.Deliver(slot, 1, 2) != ch.Deliver(slot, 1, 2) {
			t.Fatalf("Deliver not deterministic at slot %d", slot)
		}
	}
	// Empirical rate over many independent links.
	lost := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if !ch.Deliver(i, 3, 4) {
			lost++
		}
	}
	if f := float64(lost) / n; math.Abs(f-0.3) > 0.02 {
		t.Errorf("empirical loss rate %g, want ~0.3", f)
	}
	// Common-random-numbers coupling: raising the rate only removes
	// deliveries, never adds them.
	lo, hi := NewBernoulliLoss(9, 0.1), NewBernoulliLoss(9, 0.4)
	for i := 0; i < 5000; i++ {
		if hi.Deliver(i, 1, 2) && !lo.Deliver(i, 1, 2) {
			t.Fatal("delivery at rate 0.4 that is lost at rate 0.1 (coupling broken)")
		}
	}
	for _, rate := range []float64{1.5, -0.1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("loss rate %g not rejected", rate)
				}
			}()
			NewBernoulliLoss(0, rate)
		}()
	}
}

func TestSampleFailures(t *testing.T) {
	topo := grid.NewMesh2D4(32, 16)
	src := grid.C2(16, 8)
	if down := SampleFailures(topo, src, 7, 0); down != nil {
		t.Errorf("rate 0 sampled %d failures", len(down))
	}
	down := SampleFailures(topo, src, 7, 0.1)
	again := SampleFailures(topo, src, 7, 0.1)
	if !reflect.DeepEqual(down, again) {
		t.Error("failure sampling not deterministic")
	}
	for _, c := range down {
		if c == src {
			t.Fatal("source sampled as failed")
		}
	}
	if f := float64(len(down)) / float64(topo.NumNodes()-1); math.Abs(f-0.1) > 0.05 {
		t.Errorf("empirical failure rate %g, want ~0.1", f)
	}
	// Monotone coupling: every node down at 0.1 is down at 0.3.
	more := SampleFailures(topo, src, 7, 0.3)
	set := make(map[grid.Coord]bool, len(more))
	for _, c := range more {
		set[c] = true
	}
	for _, c := range down {
		if !set[c] {
			t.Fatalf("node %s down at rate 0.1 but alive at 0.3", c)
		}
	}
	for _, rate := range []float64{1.5, -0.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("failure rate %g not rejected", rate)
				}
			}()
			SampleFailures(topo, src, 7, rate)
		}()
	}
	// Per-node keying: draws are independent of the source position.
	other := SampleFailures(topo, grid.C2(1, 1), 7, 0.1)
	asSet := func(cs []grid.Coord) map[grid.Coord]bool {
		m := make(map[grid.Coord]bool, len(cs))
		for _, c := range cs {
			m[c] = true
		}
		return m
	}
	a, b := asSet(down), asSet(other)
	for c := range a {
		if c != grid.C2(1, 1) && !b[c] {
			t.Fatalf("moving the source changed node %s's failure draw", c)
		}
	}
}

// A lossy run keeps the engine's accounting exact: Rx + Lost equals the
// error-free degree sum, Validate passes, and loss rate 0 is
// byte-identical to the deterministic path.
func TestLossyRunAccounting(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	src := grid.C2(1, 1)
	lossy, err := Run(topo, allRelay("flood"), src, Config{
		DisableRepair: true,
		Channel:       NewBernoulliLoss(3, 0.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Lost == 0 {
		t.Error("20% loss dropped nothing")
	}
	if err := lossy.Validate(topo, radio.Default(), radio.CanonicalPacket()); err != nil {
		t.Fatal(err)
	}
	clean, err := Run(topo, allRelay("flood"), src, Config{
		DisableRepair: true,
		Channel:       NewBernoulliLoss(3, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(topo, allRelay("flood"), src, Config{DisableRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean, base) {
		t.Error("loss rate 0 differs from the deterministic engine")
	}
}

// With repair enabled the scheduler retries through the loss until the
// live connected component is covered — lost repairs simply re-plan.
func TestLossyRunWithRepair(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	for seed := uint64(0); seed < 10; seed++ {
		r, err := Run(topo, allRelay("flood"), grid.C2(4, 4), Config{
			Channel: NewBernoulliLoss(seed, 0.15),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.FullyReached() {
			t.Errorf("seed %d: repair left %d/%d reached", seed, r.Reached, r.Total)
		}
		if err := r.Validate(topo, radio.Default(), radio.CanonicalPacket()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Property test over seeds for the Down x loss interaction: sampled
// failures merged into Config.Down must contribute neither loss-RNG
// draws nor receptions — no trace event of any kind touches a down
// node — and the Total/Down split must stay exact.
func TestDownLossInteractionProperty(t *testing.T) {
	topo := grid.NewMesh2D4(10, 6)
	src := grid.C2(5, 3)
	for seed := uint64(0); seed < 25; seed++ {
		down := SampleFailures(topo, src, seed, 0.12)
		var events []Event
		r, err := Run(topo, allRelay("flood"), src, Config{
			Down:          down,
			DisableRepair: true,
			Channel:       NewBernoulliLoss(seed, 0.1),
			Trace:         CollectTrace(&events),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Down != len(down) || r.Total != topo.NumNodes()-len(down) {
			t.Fatalf("seed %d: Total=%d Down=%d for %d sampled failures on %d nodes",
				seed, r.Total, r.Down, len(down), topo.NumNodes())
		}
		downSet := make(map[grid.Coord]bool, len(down))
		for _, c := range down {
			downSet[c] = true
		}
		for _, ev := range events {
			if downSet[ev.Node] {
				t.Fatalf("seed %d: down node %s appears in trace as %s", seed, ev.Node, ev.Kind)
			}
		}
		for _, c := range down {
			i := topo.Index(c)
			if r.DecodeSlot[i] >= 0 || len(r.TxSlots[i]) > 0 || r.PerNodeEnergyJ[i] != 0 {
				t.Fatalf("seed %d: down node %s participated", seed, c)
			}
		}
		if err := r.Validate(topo, radio.Default(), radio.CanonicalPacket()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// PerNodeEnergyJ is indexed by dense node id over the whole mesh, so
// the heatmap and lifetime layers can use t.Index directly even when
// nodes are down.
func TestPerNodeEnergyDenseIndexing(t *testing.T) {
	topo := grid.NewMesh2D4(6, 6)
	r, err := Run(topo, allRelay("flood"), grid.C2(1, 1),
		Config{Down: []grid.Coord{grid.C2(6, 6), grid.C2(3, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerNodeEnergyJ) != topo.NumNodes() {
		t.Fatalf("PerNodeEnergyJ length %d, want %d (dense)", len(r.PerNodeEnergyJ), topo.NumNodes())
	}
	if e := r.PerNodeEnergyJ[topo.Index(grid.C2(3, 3))]; e != 0 {
		t.Errorf("down node spent %g J", e)
	}
	if e := r.PerNodeEnergyJ[topo.Index(grid.C2(1, 1))]; e == 0 {
		t.Error("source spent nothing")
	}
}

// Replication seeds within a study must be collision-free: two
// replications sharing a seed would share every uniform and silently
// halve the effective sample size of every estimate.
func TestReplicationSeedCollisionFree(t *testing.T) {
	for _, study := range []uint64{0, 1, 0xdeadbeefcafe} {
		seen := make(map[uint64]int, 1<<16)
		for r := 0; r < 1<<16; r++ {
			s := ReplicationSeed(study, r)
			if prev, dup := seen[s]; dup {
				t.Fatalf("study %#x: replications %d and %d share seed %#x", study, prev, r, s)
			}
			seen[s] = r
		}
	}
}

// FuzzLossKeyEquivalence holds the engine's hoisted draws to the plain
// keyed chain they replace: the per-transmission key plus the integer
// threshold must give Deliver's verdict, keyedUnit(seed, loss, slot,
// tx, rx) >= rate, for any coordinates and any rate — 0, 1, subnormal,
// negative, NaN and above 1 included — and AppendFailures' hoisted
// draw must be keyedUnit(seed, fail, i), failing the node iff it is
// below any rate AppendFailures accepts.
func FuzzLossKeyEquivalence(f *testing.F) {
	f.Add(uint64(42), 7, int32(3), int32(4), 0.5)
	f.Add(uint64(0), 0, int32(0), int32(0), 0.0)
	f.Add(uint64(1), 1, int32(2), int32(3), 1.0)
	f.Add(uint64(9), 100, int32(511), int32(510), 5e-324)
	f.Add(uint64(9), 3, int32(-1), int32(7), math.SmallestNonzeroFloat64*(1<<40))
	f.Add(uint64(3), 1<<40, int32(5), int32(6), 1-0x1p-53)
	f.Add(uint64(3), -2, int32(5), int32(6), math.NaN())
	f.Add(uint64(5), 12, int32(8), int32(1), -0.25)
	f.Add(uint64(5), 12, int32(8), int32(1), 1.75)
	// Rates on and just above a draw's own uniform: the threshold's
	// rounding and its >= are where an integer form could slip.
	u := keyedUnit(42, domainLoss, 7, 3, 4)
	f.Add(uint64(42), 7, int32(3), int32(4), u)
	f.Add(uint64(42), 7, int32(3), int32(4), math.Nextafter(u, 1))
	f.Fuzz(func(t *testing.T, seed uint64, slot int, tx, rx int32, rate float64) {
		ch := BernoulliLoss{Seed: seed, Rate: rate}
		keys := ch.keys()
		u := keyedUnit(seed, domainLoss, uint64(slot), uint64(uint32(tx)), uint64(uint32(rx)))
		want := u >= rate
		if got := keys.delivers(keys.tx(slot, tx), rx); got != want {
			t.Fatalf("hoisted verdict %v, keyedUnit %v >= rate %v is %v", got, u, rate, want)
		}
		if ch.Deliver(slot, tx, rx) != want {
			t.Fatalf("Deliver disagrees with keyedUnit >= rate %v", rate)
		}
		if !keys.lossy() && !want {
			t.Fatalf("rate %v takes the error-free path but drops a copy", rate)
		}
		i := uint64(uint32(rx))
		x := absorb(keyedUint64(seed, domainFailure), i)
		if fu := keyedUnit(seed, domainFailure, i); float64(x>>11)*0x1p-53 != fu {
			t.Fatalf("hoisted failure draw %#x is not keyedUnit(%d, fail, %d) = %v", x, seed, i, fu)
		} else if rate >= 0 && rate <= 1 && (x>>11 < unitCut(rate)) != (fu < rate) {
			// AppendFailures rejects every other rate, NaN included.
			t.Fatalf("failure verdict at rate %v disagrees with keyedUnit %v < rate", rate, fu)
		}
	})
}
