package sim_test

// Pooled-session suite: a session handed back with Release and bound
// again by NewSession must carry nothing of its previous binding into
// the next — no node or link state, no channel, no plan compiled for
// another protocol. Reuse goes through sim.ReuseSessionForTest, the
// rebinding NewSession applies to a pooled session, because a
// sync.Pool may drop what it is given.

import (
	"bytes"
	"fmt"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// A session dirtied by every kind of mutation, a lossy channel and
// runs from several sources is released and bound again, in turn, to a
// pointer protocol, gossip and the paper protocol, under other configs
// and construction-time Down/DownLinks. Every run of every binding must
// equal sim.Run, and RunReference where it models the config (it has
// no link churn), in Result bytes, down mask and trace.
func TestPooledSessionDifferential(t *testing.T) {
	for _, k := range grid.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			t.Parallel()
			topo := diffSmallTopo(k)
			v := topo.NumNodes()
			srcs := []grid.Coord{topo.At(v / 2), topo.At(1), topo.At(v - 2)}
			paper := core.ForTopology(k)

			h := newSessionHarness(t, topo, paper, sim.Config{})
			h.nodeDown(3)
			h.nodeDown(v - 5)
			h.linkDown(2)
			h.linkDown(len(h.links) / 2)
			ch := sim.NewBernoulliLoss(7, 0.15)
			h.sess.SetChannel(ch)
			h.cfg.Channel = ch
			for _, src := range srcs {
				h.check(src, "dirty")
			}

			snap, _, err := sim.Snapshot(topo, core.NewFlooding(), srcs[0], sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			link := func(id int) sim.Link {
				lk := h.links[id]
				return sim.Link{A: topo.At(int(lk.A)), B: topo.At(int(lk.B))}
			}
			rebinds := []struct {
				name string
				p    sim.Protocol
				cfg  sim.Config
			}{
				{"pointer protocol, down lists", snap, sim.Config{
					Down: []grid.Coord{topo.At(4), topo.At(v - 7)},
					// The second pair is no lattice link: a no-op, as in sim.Run.
					DownLinks: []sim.Link{link(5), link(len(h.links) - 3), {A: topo.At(0), B: topo.At(v - 1)}},
				}},
				{"gossip, lossy, down nodes", core.NewGossip(0.7), sim.Config{
					Down:          []grid.Coord{topo.At(6), topo.At(6), topo.At(v - 9)},
					Channel:       sim.NewBernoulliLoss(3, 0.1),
					MaxPlanRounds: 3,
				}},
				{"paper, no repair, cut links", paper, sim.Config{
					DisableRepair: true,
					DownLinks:     []sim.Link{link(7), link(8)},
				}},
				{"paper again, pristine", paper, sim.Config{}},
			}
			sess := h.sess
			for _, rb := range rebinds {
				prev := sess
				var events []sim.Event
				cfg := rb.cfg
				cfg.Trace = sim.CollectTrace(&events)
				if sess, err = sim.ReuseSessionForTest(sess, rb.p, cfg); err != nil {
					t.Fatalf("%s: %v", rb.name, err)
				}
				if sess != prev {
					t.Fatalf("%s: rebinding built a new session", rb.name)
				}
				for _, src := range srcs {
					events = events[:0]
					got, err := sess.Run(src)
					if err != nil {
						t.Fatalf("%s from %s: session: %v", rb.name, src, err)
					}
					comparePooled(t, fmt.Sprintf("%s from %s", rb.name, src), got, events, topo, rb.p, src, rb.cfg)
				}
			}
		})
	}
}

// comparePooled checks one pooled-session run against sim.Run and,
// when cfg has no DownLinks, RunReference.
func comparePooled(t *testing.T, label string, got *sim.Result, gotTrace []sim.Event,
	topo grid.Topology, p sim.Protocol, src grid.Coord, cfg sim.Config) {
	t.Helper()
	oracles := map[string]func(grid.Topology, sim.Protocol, grid.Coord, sim.Config) (*sim.Result, error){
		"sim.Run": sim.Run,
	}
	if len(cfg.DownLinks) == 0 {
		oracles["RunReference"] = sim.RunReference
	}
	gj := mustResultJSON(t, got)
	for name, run := range oracles {
		var trace []sim.Event
		ocfg := cfg
		ocfg.Trace = sim.CollectTrace(&trace)
		want, err := run(topo, p, src, ocfg)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		if wj := mustResultJSON(t, want); !bytes.Equal(gj, wj) {
			t.Fatalf("%s: pooled session differs from %s:\n got %s\nwant %s", label, name, gj, wj)
		}
		for i := 0; i < topo.NumNodes(); i++ {
			if got.IsDown(i) != want.IsDown(i) {
				t.Fatalf("%s: IsDown(%d): pooled session %v, %s %v", label, i, got.IsDown(i), name, want.IsDown(i))
			}
		}
		if len(gotTrace) != len(trace) {
			t.Fatalf("%s: trace has %d events, %s %d", label, len(gotTrace), name, len(trace))
		}
		for i := range trace {
			if gotTrace[i] != trace[i] {
				t.Fatalf("%s: trace event %d: %+v, %s %+v", label, i, gotTrace[i], name, trace[i])
			}
		}
	}
}

// A Result from sim.Run owns its memory, down mask included: a later
// sim.Run and a NewSession on the same mesh, which take the released
// session back and fail other nodes on it, leave the first Result's
// IsDown, DecodeSlot and TxSlots as they were.
func TestPooledRunResultOwnership(t *testing.T) {
	topo := grid.NewMesh2D4(9, 7)
	p := core.ForTopology(grid.Mesh2D4)
	v := topo.NumNodes()
	res, err := sim.Run(topo, p, topo.At(v/2), sim.Config{Down: []grid.Coord{topo.At(3), topo.At(20)}})
	if err != nil {
		t.Fatal(err)
	}
	want := mustResultJSON(t, res)
	wantDown := make([]bool, v)
	for i := range wantDown {
		wantDown[i] = res.IsDown(i)
	}
	if _, err := sim.Run(topo, p, topo.At(1), sim.Config{Down: []grid.Coord{topo.At(5), topo.At(40)}}); err != nil {
		t.Fatal(err)
	}
	sess, err := sim.NewSession(topo, p, sim.Config{Down: []grid.Coord{topo.At(7)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetNodeDown(11); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(topo.At(2)); err != nil {
		t.Fatal(err)
	}
	sess.Release()
	if got := mustResultJSON(t, res); !bytes.Equal(got, want) {
		t.Fatalf("a later run on the mesh changed an earlier sim.Run Result:\n got %s\nwant %s", got, want)
	}
	for i, d := range wantDown {
		if res.IsDown(i) != d {
			t.Fatalf("IsDown(%d) = %v after a later run on the mesh, was %v", i, res.IsDown(i), d)
		}
	}
}

// Construction-time lists no run can honour fail with sim.Run's error,
// in sim.Run's order, whether the session is new or a reused one; a
// down source is accepted at construction and fails at Run, as sim.Run
// fails it. A failed rebind leaves the session as it was.
func TestPooledSessionDownListErrors(t *testing.T) {
	topo := grid.NewMesh2D4(6, 6)
	p := core.ForTopology(grid.Mesh2D4)
	src := grid.C2(3, 3)
	outside := grid.C2(9, 9)
	sess, err := sim.NewSession(topo, p, sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := sess.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	want0 := mustResultJSON(t, pristine)
	for name, cfg := range map[string]sim.Config{
		"down outside":                 {Down: []grid.Coord{outside}},
		"link outside":                 {DownLinks: []sim.Link{{A: src, B: outside}}},
		"down and link outside":        {Down: []grid.Coord{outside}, DownLinks: []sim.Link{{A: outside, B: src}}},
		"source down":                  {Down: []grid.Coord{src}},
		"source down and link":         {Down: []grid.Coord{src}, DownLinks: []sim.Link{{A: src, B: outside}}},
		"second down node outside":     {Down: []grid.Coord{grid.C2(1, 1), outside}},
		"second link endpoint outside": {DownLinks: []sim.Link{{A: grid.C2(1, 1), B: grid.C2(2, 1)}, {A: outside, B: src}}},
	} {
		_, want := sim.Run(topo, p, src, cfg)
		if want == nil {
			t.Fatalf("%s: sim.Run accepted the config", name)
		}
		fresh, got := sim.NewSession(topo, p, cfg)
		if got == nil {
			_, got = fresh.Run(src)
			fresh.Release()
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: new session error %v, sim.Run %v", name, got, want)
		}
		reused, got := sim.ReuseSessionForTest(sess, p, cfg)
		if got == nil {
			_, got = reused.Run(src)
			sess, _ = sim.ReuseSessionForTest(reused, p, sim.Config{})
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: reused session error %v, sim.Run %v", name, got, want)
		}
		res, err := sess.Run(src)
		if err != nil {
			t.Fatalf("%s: session after the failed rebind: %v", name, err)
		}
		if !bytes.Equal(mustResultJSON(t, res), want0) {
			t.Fatalf("%s: a failed rebind changed the session", name)
		}
	}
}

// Release keeps in a session only the plans planCache already holds:
// those of a plan-cacheable protocol value stay, a pointer protocol's
// are dropped. A second Release is a no-op, so one session can never
// be pooled twice and handed to two callers.
func TestSessionRelease(t *testing.T) {
	topo := grid.NewMesh2D4(7, 5)
	srcs := []grid.Coord{grid.C2(1, 1), grid.C2(4, 3), grid.C2(7, 5)}
	snap, _, err := sim.Snapshot(topo, core.NewFlooding(), srcs[0], sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		p        sim.Protocol
		wantKept int
	}{
		{"paper", core.ForTopology(grid.Mesh2D4), len(srcs)},
		{"gossip", core.NewGossip(0.5), len(srcs)},
		{"pointer", snap, 0},
	} {
		sess, err := sim.NewSession(topo, tc.p, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range srcs {
			if _, err := sess.Run(src); err != nil {
				t.Fatal(err)
			}
		}
		kept, uncached := sim.RetireForTest(sess)
		if kept != tc.wantKept || uncached != 0 {
			t.Errorf("%s: released session kept %d plans, %d not in planCache; want %d and 0",
				tc.name, kept, uncached, tc.wantKept)
		}
	}

	held := 0
	defer sim.SetSessionHook(sim.SetSessionHook(func(d int) { held += d }))
	sess, err := sim.NewSession(topo, core.NewFlooding(), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess.Release()
	sess.Release()
	if held != 0 {
		t.Fatalf("one NewSession and two Releases leave %d sessions held, want 0", held)
	}
	a, err := sim.NewSession(topo, core.NewFlooding(), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.NewSession(topo, core.NewFlooding(), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two NewSessions returned one session: it was pooled twice")
	}
	if held != 2 {
		t.Fatalf("two NewSessions hold %d sessions, want 2", held)
	}
	a.Release()
	b.Release()
}
