package sim_test

// Byte-bound tests of the plans and meshes caches: under a cap far
// below a workload's working set, the charged bytes and the retained
// heap stay bounded, and eviction — of a plan, or of a mesh entry a
// held session still reads — changes no output byte.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// TestCacheByteBound sweeps every source of 2D-4 32×32 under the paper
// protocol and flooding, first with the caches effectively uncapped
// (~9 MB of plans), then twice under a 1 MiB cap, so the second capped
// pass recompiles plans the first one evicted. After every Run — at
// most one insert per cache — the charged bytes must be within the cap;
// after the capped passes and two GCs the live heap may exceed its
// level before them by at most the cap plus 1 MiB of slack (the mesh's
// ~40 KB of rows, runtime noise); and every Result must hash the same
// as its uncapped twin.
func TestCacheByteBound(t *testing.T) {
	if raceEnabled {
		t.Skip("a byte bound, not a concurrency check: the race detector slows the 6,144 runs to a minute")
	}
	const capBytes, slack = 1 << 20, 1 << 20
	topo := grid.NewMesh2D4(32, 32)
	protos := []sim.Protocol{core.ForTopology(grid.Mesh2D4), core.NewFlooding()}
	sweep := func(check func()) [][sha256.Size]byte {
		var sums [][sha256.Size]byte
		for _, p := range protos {
			for i := 0; i < topo.NumNodes(); i++ {
				res, err := sim.Run(topo, p, topo.At(i), sim.Config{})
				if err != nil {
					t.Fatal(err)
				}
				sums = append(sums, sha256.Sum256(mustResultJSON(t, res)))
				check()
			}
		}
		return sums
	}

	restore := sim.SetCacheBytesForTest(1 << 40)
	want := sweep(func() {})
	uncapped, _ := sim.CacheBytesForTest()
	restore()
	if uncapped <= 2*capBytes {
		t.Fatalf("the uncapped sweep cached %d B of plans; the case needs more than twice the %d B cap", uncapped, capBytes)
	}

	defer sim.SetCacheBytesForTest(capBytes)()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for pass := 0; pass < 2; pass++ {
		got := sweep(func() {
			if pb, mb := sim.CacheBytesForTest(); pb > capBytes || mb > capBytes {
				t.Fatalf("pass %d: caches charged %d B of plans and %d B of meshes, cap is %d B", pass, pb, mb, capBytes)
			}
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: run %d (%s from %s) differs from the uncapped run",
					pass, i, protos[i/topo.NumNodes()].Name(), topo.At(i%topo.NumNodes()))
			}
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("uncapped sweep cached %d B of plans; capped passes retained %d B", uncapped, retained)
	if retained > capBytes+slack {
		t.Errorf("capped passes retained %d B of heap, bound is %d B", retained, capBytes+slack)
	}
}

// TestMeshCacheEviction builds held sessions on four 2D-4 meshes of
// ~10k nodes, each charged ~400 KB of rows, under a 1 MiB cap, so the
// oldest mesh's entry is evicted while its session is held. That
// session keeps its rows: it runs byte-identical to sim.Run, before and
// after a failure makes its rows private, and releases without a
// panic. The NewSession of sim.Run, and any later one, on the mesh
// binds a fresh cached entry.
func TestMeshCacheEviction(t *testing.T) {
	const capBytes = 1 << 20
	defer sim.SetCacheBytesForTest(capBytes)()
	p := core.ForTopology(grid.Mesh2D4)
	var topos []grid.Topology
	var sessions []*sim.Session
	for i := 0; i < 4; i++ {
		topo := grid.NewMesh2D4(100, 100+i)
		sess, err := sim.NewSession(topo, p, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		topos, sessions = append(topos, topo), append(sessions, sess)
		if _, mb := sim.CacheBytesForTest(); mb > capBytes {
			t.Fatalf("meshes cache charged %d B after %d meshes, cap is %d B", mb, i+1, capBytes)
		}
	}
	first, held := topos[0], sessions[0]
	if sim.AdjCacheHas(first) || sim.SessionMeshCachedForTest(held) {
		t.Fatal("the oldest mesh is still cached after three newer ones")
	}
	if !sim.SessionMeshCachedForTest(sessions[3]) {
		t.Fatal("the newest mesh is not cached")
	}

	src := first.At(first.NumNodes() / 2)
	for _, down := range [][]grid.Coord{nil, {first.At(3), first.At(4321)}} {
		for _, c := range down {
			if err := held.SetNodeDown(first.Index(c)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := held.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(first, p, src, sim.Config{Down: down})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustResultJSON(t, got), mustResultJSON(t, want)) {
			t.Fatalf("session on an evicted mesh (down %v) differs from sim.Run", down)
		}
	}
	if !sim.AdjCacheHas(first) || sim.SessionMeshCachedForTest(held) {
		t.Fatal("sim.Run on the evicted mesh did not cache a fresh entry apart from the held session's")
	}
	for _, s := range sessions {
		s.Release()
	}

	fresh, err := sim.NewSession(first, p, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Release()
	if !sim.AdjCacheHas(first) || !sim.SessionMeshCachedForTest(fresh) {
		t.Fatal("a NewSession on the evicted mesh did not bind a fresh cached entry")
	}
}

// TestCacheConcurrentEviction sweeps every source of two small meshes
// on four goroutines at once, each from its own offset, under a 4 KiB
// cap: about a dozen plans and one mesh's rows fit, so inserts, hits
// and evictions interleave, and sessions run on mesh entries other
// goroutines evict. Under -race it audits the caches' locking; every
// Result must equal the serial uncapped run's.
func TestCacheConcurrentEviction(t *testing.T) {
	topos := []grid.Topology{grid.NewMesh2D4(9, 7), grid.NewMesh2D8(8, 8)}
	want := map[grid.Topology][][sha256.Size]byte{}
	for _, topo := range topos {
		for i := 0; i < topo.NumNodes(); i++ {
			res, err := sim.Run(topo, core.ForTopology(topo.Kind()), topo.At(i), sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			want[topo] = append(want[topo], sha256.Sum256(mustResultJSON(t, res)))
		}
	}
	defer sim.SetCacheBytesForTest(4 << 10)()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, topo := range topos {
				v := topo.NumNodes()
				for k := 0; k < v; k++ {
					i := (k + 17*g) % v
					res, err := sim.Run(topo, core.ForTopology(topo.Kind()), topo.At(i), sim.Config{})
					if err != nil {
						t.Error(err)
						return
					}
					b, err := json.Marshal(res)
					if err != nil {
						t.Error(err)
						return
					}
					if sha256.Sum256(b) != want[topo][i] {
						t.Errorf("goroutine %d: %s from %s differs from the serial uncapped run", g, topo.Kind(), topo.At(i))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
