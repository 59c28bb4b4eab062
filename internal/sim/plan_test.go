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

// TestCompilePlanMatchesProtocol verifies the compiled table against
// direct interface calls for every node.
func TestCompilePlanMatchesProtocol(t *testing.T) {
	topo := grid.NewMesh2D4(7, 5)
	src := grid.C2(4, 3)
	p := planTestProto{Variant: 1}
	pl := compilePlan(topo, p, src, topo.Index(src))
	for i := 0; i < topo.NumNodes(); i++ {
		c := topo.At(i)
		relay := p.IsRelay(topo, src, c)
		if pl.isRelay(int32(i)) != relay {
			t.Fatalf("node %s: plan relay=%v, protocol says %v", c, pl.isRelay(int32(i)), relay)
		}
		if relay {
			want := p.TxDelay(topo, src, c)
			if want < 1 {
				want = 1
			}
			if pl.delay[i] != int32(want) {
				t.Fatalf("node %s: plan delay=%d, want %d", c, pl.delay[i], want)
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
		got := pl.retransmits(int32(i))
		if len(got) != len(wantOffs) {
			t.Fatalf("node %s: plan offsets %v, want %v", c, got, wantOffs)
		}
		for k := range got {
			if got[k] != wantOffs[k] {
				t.Fatalf("node %s: plan offsets %v, want %v", c, got, wantOffs)
			}
		}
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
