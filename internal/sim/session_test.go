package sim_test

// Session correctness suite: the round-persistent Session must be an
// exact drop-in for sim.Run at every point of any mutation sequence —
// node deaths, link cuts, link recoveries, in any order — because the
// lifetime engine's byte-identity guarantee rests on it. Each test
// drives a session through incremental mutations and compares every
// Run against a cold sim.Run handed the equivalent Down/DownLinks
// lists.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/radio"
	"wsnbcast/internal/sim"
)

// sessionHarness pairs a session with the bookkeeping needed to build
// the equivalent one-shot Config at any point of a mutation sequence.
type sessionHarness struct {
	t     *testing.T
	topo  grid.Topology
	proto sim.Protocol
	cfg   sim.Config
	sess  *sim.Session
	links []sim.IndexLink
	down  map[int]bool
	cut   map[int]bool
}

func newSessionHarness(t *testing.T, topo grid.Topology, p sim.Protocol, cfg sim.Config) *sessionHarness {
	t.Helper()
	sess, err := sim.NewSession(topo, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &sessionHarness{
		t: t, topo: topo, proto: p, cfg: cfg, sess: sess,
		links: sim.LinksOf(topo),
		down:  map[int]bool{},
		cut:   map[int]bool{},
	}
}

func (h *sessionHarness) nodeDown(i int) {
	h.t.Helper()
	if err := h.sess.SetNodeDown(i); err != nil {
		h.t.Fatal(err)
	}
	h.down[i] = true
}

func (h *sessionHarness) nodeUp(i int) {
	h.t.Helper()
	if err := h.sess.SetNodeUp(i); err != nil {
		h.t.Fatal(err)
	}
	delete(h.down, i)
}

func (h *sessionHarness) linkDown(id int) {
	h.t.Helper()
	if err := h.sess.SetLinkDown(id); err != nil {
		h.t.Fatal(err)
	}
	h.cut[id] = true
}

func (h *sessionHarness) linkUp(id int) {
	h.t.Helper()
	if err := h.sess.SetLinkUp(id); err != nil {
		h.t.Fatal(err)
	}
	delete(h.cut, id)
}

// oneShotConfig rebuilds the Down/DownLinks lists sim.Run would need
// for the session's current state, in deterministic dense order (the
// order the lifetime engine's roundConfig uses).
func (h *sessionHarness) oneShotConfig() sim.Config {
	cfg := h.cfg
	for i := 0; i < h.topo.NumNodes(); i++ {
		if h.down[i] {
			cfg.Down = append(cfg.Down, h.topo.At(i))
		}
	}
	for id := range h.links {
		if h.cut[id] {
			lk := h.links[id]
			cfg.DownLinks = append(cfg.DownLinks, sim.Link{A: h.topo.At(int(lk.A)), B: h.topo.At(int(lk.B))})
		}
	}
	return cfg
}

// check runs the session and the equivalent one-shot config from src
// and compares the full Results (and trace streams) byte for byte.
func (h *sessionHarness) check(src grid.Coord, label string) {
	h.t.Helper()
	var sessTrace, runTrace []sim.Event
	h.cfg.Trace = nil // session was built without a trace; compare untraced first
	got, err := h.sess.Run(src)
	if err != nil {
		h.t.Fatalf("%s: session: %v", label, err)
	}
	cfg := h.oneShotConfig()
	cfg.Trace = func(ev sim.Event) { runTrace = append(runTrace, ev) }
	want, err := sim.Run(h.topo, h.proto, src, cfg)
	if err != nil {
		h.t.Fatalf("%s: one-shot: %v", label, err)
	}
	gj, wj := mustResultJSON(h.t, got), mustResultJSON(h.t, want)
	if !bytes.Equal(gj, wj) {
		h.t.Fatalf("%s: session result differs from sim.Run:\n got %s\nwant %s", label, gj, wj)
	}
	// Trace equality needs a traced session of the same state: build one
	// fresh and replay the mutations (cheap at test sizes).
	tcfg := h.cfg
	tcfg.Trace = func(ev sim.Event) { sessTrace = append(sessTrace, ev) }
	tsess, err := sim.NewSession(h.topo, h.proto, tcfg)
	if err != nil {
		h.t.Fatal(err)
	}
	for i := range h.down {
		if err := tsess.SetNodeDown(i); err != nil {
			h.t.Fatal(err)
		}
	}
	for id := range h.cut {
		if err := tsess.SetLinkDown(id); err != nil {
			h.t.Fatal(err)
		}
	}
	if _, err := tsess.Run(src); err != nil {
		h.t.Fatalf("%s: traced session: %v", label, err)
	}
	if len(sessTrace) != len(runTrace) {
		h.t.Fatalf("%s: trace length %d vs %d", label, len(sessTrace), len(runTrace))
	}
	for i := range sessTrace {
		if sessTrace[i] != runTrace[i] {
			h.t.Fatalf("%s: trace event %d: %+v vs %+v", label, i, sessTrace[i], runTrace[i])
		}
	}
}

func mustResultJSON(t *testing.T, r *sim.Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A scripted mutation sequence over every canonical topology: deaths
// and link flips interleaved, including a recovery, checked against
// the one-shot path after every step.
func TestSessionDifferentialAllKinds(t *testing.T) {
	for _, k := range grid.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			topo := grid.Canonical(k)
			src := topo.At(topo.NumNodes() / 2)
			h := newSessionHarness(t, topo, core.ForTopology(k), sim.Config{})
			h.check(src, "pristine")
			h.nodeDown(3)
			h.check(src, "one death")
			h.linkDown(7)
			h.linkDown(21)
			h.check(src, "death+cuts")
			h.linkUp(7)
			h.check(src, "recovery")
			h.nodeDown(topo.NumNodes() - 2)
			h.linkDown(2)
			h.check(src, "more churn")
			// Rotate the source: per-source plans must stay correct.
			h.check(topo.At(1), "rotated source")
		})
	}
}

// A pseudo-random churn storm on the 2D-4 mesh: many flips per step,
// links cut and restored repeatedly, occasional deaths — the exact
// access pattern of the lifetime hot loop.
func TestSessionDifferentialChurnStorm(t *testing.T) {
	topo := grid.NewMesh2D4(10, 10)
	h := newSessionHarness(t, topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	nl := len(h.links)
	rng := uint64(12345)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for step := 0; step < 12; step++ {
		for f := 0; f < 10; f++ {
			id := next(nl)
			if h.cut[id] {
				h.linkUp(id)
			} else {
				h.linkDown(id)
			}
		}
		if step%3 == 2 {
			i := next(topo.NumNodes())
			if i != topo.NumNodes()/2 && !h.down[i] {
				h.nodeDown(i)
			}
		}
		h.check(topo.At(topo.NumNodes()/2), "storm step")
	}
}

// Random SetNodeDown/SetNodeUp sequences — the Monte Carlo replication
// pattern, where each replication fails a sample and revives it — on
// every canonical mesh and an irregular one, with the loss channel
// switched through SetChannel between steps. After every step the
// session must equal sim.Run handed the remaining Down list: result
// bytes and traces (check), and the down mask behind IsDown and
// Validate.
func TestSessionNodeUpDifferential(t *testing.T) {
	type mesh struct {
		name string
		topo grid.Topology
		p    sim.Protocol
	}
	var meshes []mesh
	for _, k := range grid.Kinds() {
		meshes = append(meshes, mesh{k.String(), grid.Canonical(k), core.ForTopology(k)})
	}
	meshes = append(meshes, mesh{"irregular", grid.NewIrregular(12, 10, 0.3, 1.6, 7), core.NewFlooding()})
	for _, m := range meshes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			v := m.topo.NumNodes()
			src := m.topo.At(v / 2)
			h := newSessionHarness(t, m.topo, m.p, sim.Config{})
			rng := uint64(len(m.name))
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int((rng >> 33) % uint64(n))
			}
			for step := 0; step < 10; step++ {
				for f := next(5); f >= 0; f-- {
					i := next(v)
					switch {
					case i == v/2:
					case h.down[i]:
						h.nodeUp(i)
					default:
						h.nodeDown(i)
					}
				}
				if step == 7 { // revive everything: the mask must go back to nil
					for i := range h.down {
						h.nodeUp(i)
					}
				}
				var ch sim.Channel
				if step%2 == 1 {
					ch = sim.NewBernoulliLoss(uint64(step), 0.1)
				}
				h.sess.SetChannel(ch)
				h.cfg.Channel = ch
				h.check(src, "step")
				h.checkDownMask(src)
			}
		})
	}
}

// checkDownMask compares what the Result's down mask exposes — IsDown
// per node and Validate's live-degree accounting — between the session
// and the equivalent one-shot run.
func (h *sessionHarness) checkDownMask(src grid.Coord) {
	h.t.Helper()
	want, err := sim.Run(h.topo, h.proto, src, h.oneShotConfig())
	if err != nil {
		h.t.Fatal(err)
	}
	got, err := h.sess.Run(src)
	if err != nil {
		h.t.Fatal(err)
	}
	for i := 0; i < h.topo.NumNodes(); i++ {
		if got.IsDown(i) != want.IsDown(i) {
			h.t.Fatalf("IsDown(%d): session %v, sim.Run %v", i, got.IsDown(i), want.IsDown(i))
		}
	}
	model, pkt := radio.Default(), radio.CanonicalPacket()
	gerr, werr := got.Validate(h.topo, model, pkt), want.Validate(h.topo, model, pkt)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		h.t.Fatalf("Validate: session %v, sim.Run %v", gerr, werr)
	}
}

// Cutting every link of a node and restoring them all must restore the
// pristine result bytes: SetLinkUp rebuilds rows in IndexNeighbors
// order, not insertion order.
func TestSessionLinkUpRestoresPristine(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	src := grid.C2(1, 1)
	h := newSessionHarness(t, topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	base, err := h.sess.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	want := mustResultJSON(t, base)
	// Cut a batch in one order, restore in a different order.
	cut := []int{40, 3, 17, 41, 8, 25}
	for _, id := range cut {
		h.linkDown(id)
	}
	for i := len(cut)/2 - 1; i >= 0; i-- { // restore half backwards...
		h.linkUp(cut[i])
	}
	for _, id := range cut[len(cut)/2:] { // ...and half forwards
		h.linkUp(id)
	}
	got, err := h.sess.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if gj := mustResultJSON(t, got); !bytes.Equal(gj, want) {
		t.Fatalf("restored session differs from pristine:\n got %s\nwant %s", gj, want)
	}
}

// Reset revives everything at once.
func TestSessionReset(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	src := grid.C2(4, 4)
	h := newSessionHarness(t, topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	base, err := h.sess.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	want := mustResultJSON(t, base)
	h.nodeDown(10)
	h.linkDown(5)
	h.sess.Reset()
	got, err := h.sess.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if gj := mustResultJSON(t, got); !bytes.Equal(gj, want) {
		t.Fatalf("reset session differs from pristine:\n got %s\nwant %s", gj, want)
	}
	if h.sess.NodeDown(10) || h.sess.LinkDown(5) {
		t.Error("Reset left node/link state set")
	}
}

// Mutations are idempotent and link ids match the LinksOf table.
func TestSessionMutationIdempotence(t *testing.T) {
	topo := grid.NewMesh2D4(6, 6)
	sess, err := sim.NewSession(topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	links := sim.LinksOf(topo)
	if sess.NumLinks() != len(links) {
		t.Fatalf("NumLinks = %d, LinksOf has %d", sess.NumLinks(), len(links))
	}
	for id := range links {
		if sess.Link(id) != links[id] {
			t.Fatalf("link %d = %+v, LinksOf says %+v", id, sess.Link(id), links[id])
		}
	}
	for i := 0; i < 3; i++ { // repeat everything: second calls must no-op
		if err := sess.SetNodeDown(7); err != nil {
			t.Fatal(err)
		}
		if err := sess.SetLinkDown(4); err != nil {
			t.Fatal(err)
		}
	}
	if !sess.NodeDown(7) || !sess.LinkDown(4) {
		t.Error("mutations not recorded")
	}
	got, err := sess.Run(grid.C2(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	lk := links[4]
	want, err := sim.Run(topo, core.ForTopology(grid.Mesh2D4), grid.C2(1, 1), sim.Config{
		Down:      []grid.Coord{topo.At(7)},
		DownLinks: []sim.Link{{A: topo.At(int(lk.A)), B: topo.At(int(lk.B))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustResultJSON(t, got), mustResultJSON(t, want)) {
		t.Error("idempotent mutations produced a different result")
	}
}

// SetLinkUp on a link whose endpoint node is already down must keep
// the dead node's row empty while restoring the live endpoint's view.
func TestSessionLinkUpWithDeadEndpoint(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	h := newSessionHarness(t, topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	src := topo.At(topo.NumNodes() / 2)
	// Find a link incident to node 9, kill node 9, then cut and restore
	// that link between runs.
	var id int = -1
	for i, lk := range h.links {
		if lk.A == 9 || lk.B == 9 {
			id = i
			break
		}
	}
	if id < 0 {
		t.Fatal("node 9 has no links")
	}
	h.nodeDown(9)
	h.check(src, "dead endpoint")
	h.linkDown(id)
	h.check(src, "cut link on dead endpoint")
	h.linkUp(id)
	h.check(src, "restored link on dead endpoint")
}

// Repeated SetNodeDown of the same node across runs is a no-op after
// the first call: no byte drift.
func TestSessionRepeatedNodeDown(t *testing.T) {
	topo := grid.NewMesh2D4(8, 8)
	h := newSessionHarness(t, topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	src := topo.At(topo.NumNodes() / 2)
	h.check(src, "pristine")
	h.nodeDown(12)
	h.check(src, "first death")
	for i := 0; i < 3; i++ {
		if err := h.sess.SetNodeDown(12); err != nil {
			t.Fatal(err)
		}
		h.check(src, "repeated death")
	}
}

// Error cases mirror sim.Run: bad source coordinates, a down source,
// and out-of-range mutation targets. Bad Down/DownLinks lists are
// TestPooledSessionDownListErrors' matrix.
func TestSessionErrors(t *testing.T) {
	topo := grid.NewMesh2D4(6, 6)
	p := core.ForTopology(grid.Mesh2D4)
	sess, err := sim.NewSession(topo, p, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(grid.C2(99, 99)); err == nil {
		t.Error("out-of-mesh source accepted")
	}
	if err := sess.SetNodeDown(8); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(topo.At(8)); err == nil {
		t.Error("down source accepted")
	}
	if err := sess.SetNodeDown(-1); err == nil {
		t.Error("negative node index accepted")
	}
	if err := sess.SetNodeDown(topo.NumNodes()); err == nil {
		t.Error("out-of-range node index accepted")
	}
	if err := sess.SetLinkDown(-1); err == nil {
		t.Error("negative link id accepted")
	}
	if err := sess.SetLinkUp(sess.NumLinks()); err == nil {
		t.Error("out-of-range link id accepted")
	}
}

// The steady-state session round is allocation-free up to pool churn:
// the engine arena, injection plan, Result and all its slices are
// reused in place. Budget 2 leaves slack for a GC emptying the engine
// pool mid-measurement.
func TestSessionAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse and allocates for instrumentation; budget holds only in normal builds")
	}
	topo := grid.Canonical(grid.Mesh2D4)
	src := topo.At(topo.NumNodes() / 2)
	sess, err := sim.NewSession(topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Steady state includes mutations: kill one node and cut one link up
	// front so the down-mask path is exercised, then warm everything.
	if err := sess.SetNodeDown(3); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetLinkDown(11); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(src); err != nil {
		t.Fatal(err)
	}
	flip := false
	allocs := testing.AllocsPerRun(100, func() {
		// One link flip per round, like a churn-heavy lifetime cell.
		flip = !flip
		if flip {
			_ = sess.SetLinkDown(30)
		} else {
			_ = sess.SetLinkUp(30)
		}
		if _, err := sess.Run(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("steady-state session round allocates %.1f/op, budget is 2", allocs)
	}

	// Mutations and Reset refill rows in place: no allocation at all.
	allocs = testing.AllocsPerRun(100, func() {
		_ = sess.SetNodeDown(40)
		_ = sess.SetNodeUp(40)
		_ = sess.SetNodeDown(41)
		sess.Reset()
	})
	if allocs != 0 {
		t.Errorf("SetNodeDown/SetNodeUp/Reset allocate %.1f/op, budget is 0", allocs)
	}
}
