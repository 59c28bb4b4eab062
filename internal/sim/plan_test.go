package sim

import (
	"sync"
	"testing"

	"wsnbcast/internal/grid"
)

// planTestProto is a comparable value protocol with distinguishable
// per-node answers, including out-of-range values the compiler must
// normalize (delay clamped to >= 1, offsets < 1 dropped).
type planTestProto struct{ Variant int }

func (planTestProto) Name() string { return "plan-test" }

func (p planTestProto) IsRelay(t grid.Topology, src, c grid.Coord) bool {
	return (c.X+c.Y+p.Variant)%2 == 0
}

func (p planTestProto) TxDelay(t grid.Topology, src, c grid.Coord) int {
	return c.X - 2 // < 1 for small X: must be clamped
}

func (p planTestProto) Retransmits(t grid.Topology, src, c grid.Coord) []int {
	return []int{c.Y - 1, 2, -3} // non-positive offsets must be dropped
}

// funcProto carries a func field, making it non-comparable — it must
// be exempt from the plan cache, not panic it.
type funcProto struct{ f func() }

func (funcProto) Name() string                                            { return "func-proto" }
func (funcProto) IsRelay(grid.Topology, grid.Coord, grid.Coord) bool      { return true }
func (funcProto) TxDelay(grid.Topology, grid.Coord, grid.Coord) int       { return 1 }
func (funcProto) Retransmits(grid.Topology, grid.Coord, grid.Coord) []int { return nil }

// sparseProto retransmits from few nodes, as the paper protocols do:
// the source, which never relays, and every Every-th node that relays.
type sparseProto struct{ Every int }

func (sparseProto) Name() string { return "sparse-test" }

func (sparseProto) IsRelay(t grid.Topology, src, c grid.Coord) bool {
	return c != src && (c.X+c.Y)%3 != 0
}

func (sparseProto) TxDelay(t grid.Topology, src, c grid.Coord) int { return 1 + c.X%2 }

func (p sparseProto) Retransmits(t grid.Topology, src, c grid.Coord) []int {
	if c == src || (p.Every > 0 && t.Index(c)%p.Every == 0) {
		return []int{1 + c.Y%3, 4}
	}
	return nil
}

// TestCompilePlanMatchesProtocol verifies the compiled table against
// direct interface calls for every node: a protocol whose relays all
// retransmit, sparse ones whose flagged nodes straddle several words of
// the retransmit index, and one that never retransmits.
func TestCompilePlanMatchesProtocol(t *testing.T) {
	small := grid.NewMesh2D4(7, 5)
	wide := grid.NewMesh2D4(23, 11) // 253 nodes: four index words
	for _, c := range []struct {
		topo grid.Topology
		p    Protocol
		src  grid.Coord
	}{
		{small, planTestProto{Variant: 1}, grid.C2(4, 3)},
		{wide, sparseProto{Every: 37}, grid.C2(9, 6)},
		{wide, sparseProto{Every: 64}, grid.C2(1, 1)},
		{wide, sparseProto{}, grid.C2(23, 11)},
		{wide, funcProto{}, grid.C2(2, 2)},
	} {
		checkPlan(t, c.topo, c.p, c.src)
	}
}

func checkPlan(t *testing.T, topo grid.Topology, p Protocol, src grid.Coord) {
	t.Helper()
	pl := compilePlan(topo, p, src, topo.Index(src))
	flagged := 0
	for i := 0; i < topo.NumNodes(); i++ {
		c := topo.At(i)
		relay := p.IsRelay(topo, src, c)
		if pl.isRelay(int32(i)) != relay {
			t.Fatalf("%s node %s: plan relay=%v, protocol says %v", p.Name(), c, pl.isRelay(int32(i)), relay)
		}
		if relay {
			want := p.TxDelay(topo, src, c)
			if want < 1 {
				want = 1
			}
			if pl.delay[i] != int32(want) {
				t.Fatalf("%s node %s: plan delay=%d, want %d", p.Name(), c, pl.delay[i], want)
			}
		}
		var wantOffs []int
		if relay || i == topo.Index(src) {
			for _, off := range p.Retransmits(topo, src, c) {
				if off >= 1 {
					wantOffs = append(wantOffs, off)
				}
			}
		}
		if len(wantOffs) > 0 {
			flagged++
		}
		got := pl.retransmits(int32(i))
		if len(got) != len(wantOffs) {
			t.Fatalf("%s node %s: plan offsets %v, want %v", p.Name(), c, got, wantOffs)
		}
		for k := range got {
			if got[k] != wantOffs[k] {
				t.Fatalf("%s node %s: plan offsets %v, want %v", p.Name(), c, got, wantOffs)
			}
		}
	}
	if n := pl.hasRetr.count(); n != flagged || len(pl.retrIdx) != flagged+1 {
		t.Fatalf("%s: %d flagged nodes and %d index entries, want %d and %d",
			p.Name(), n, len(pl.retrIdx), flagged, flagged+1)
	}
}

// TestPlanCacheSharing verifies that equal (kind, size, protocol,
// source) keys share one compiled plan and distinct keys do not.
func TestPlanCacheSharing(t *testing.T) {
	topo := grid.NewMesh2D4(13, 9) // odd size: cold key for this test binary
	src := topo.At(5)
	a := planFor(topo, planTestProto{Variant: 7}, src)
	b := planFor(topo, planTestProto{Variant: 7}, src)
	if a != b {
		t.Fatal("identical keys did not share a cached plan")
	}
	if c := planFor(topo, planTestProto{Variant: 8}, src); c == a {
		t.Fatal("different protocol values shared a plan")
	}
	if d := planFor(topo, planTestProto{Variant: 7}, topo.At(6)); d == a {
		t.Fatal("different sources shared a plan")
	}
}

// TestPlanCacheExemptions: non-comparable and pointer-typed protocols
// and irregular topologies compile fresh plans (and must not panic the
// key construction).
func TestPlanCacheExemptions(t *testing.T) {
	topo := grid.NewMesh2D4(5, 4)
	src := topo.At(0)
	fp := funcProto{f: func() {}}
	if planCacheable(fp) {
		t.Fatal("func-carrying protocol reported cacheable")
	}
	if a, b := planFor(topo, fp, src), planFor(topo, fp, src); a == b {
		t.Fatal("non-comparable protocol unexpectedly cached")
	}
	snap, _, err := Snapshot(topo, planTestProto{}, src, Config{})
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if planCacheable(snap) {
		t.Fatal("pointer-typed protocol reported cacheable")
	}
	irr := grid.NewIrregular(4, 4, 0.3, 1.6, 11)
	if a, b := planFor(irr, planTestProto{}, irr.At(0)), planFor(irr, planTestProto{}, irr.At(0)); a == b {
		t.Fatal("irregular topology unexpectedly cached")
	}
}

// TestPlanCacheColdConcurrentAccess hammers one cold plan-cache key
// from many goroutines; under -race this audits the build-once
// LoadOrStore discipline.
func TestPlanCacheColdConcurrentAccess(t *testing.T) {
	topo := grid.NewMesh2D4(17, 11) // size unused elsewhere: cold key
	src := topo.At(42)
	p := planTestProto{Variant: 99}
	plans := make([]*relayPlan, 16)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := range plans {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			plans[g] = planFor(topo, p, src)
		}()
	}
	close(start)
	wg.Wait()
	for _, pl := range plans[1:] {
		if pl != plans[0] {
			t.Fatal("concurrent cold access produced distinct cached plans")
		}
	}
}
