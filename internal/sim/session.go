package sim

import (
	"fmt"
	"math"
	"sync"

	"wsnbcast/internal/grid"
)

// IndexLink is one undirected lattice link by dense endpoint indices,
// A < B. Link ids used by Session.SetLinkDown/SetLinkUp index the
// LinksOf table.
type IndexLink struct {
	A, B int32
}

// LinksOf enumerates the undirected links of t in dense index order:
// for each node i, its neighbors nb > i in IndexNeighbors emission
// order. The table — and therefore every link id a Session accepts —
// is a pure function of the topology, so callers that persist link ids
// (checkpoints, churn chains) can rebuild the same table later.
func LinksOf(t grid.Topology) []IndexLink {
	var links []IndexLink
	var buf []int32
	for i := 0; i < t.NumNodes(); i++ {
		buf = grid.IndexNeighbors(t, i, buf[:0])
		for _, nb := range buf {
			if nb > int32(i) {
				links = append(links, IndexLink{A: int32(i), B: nb})
			}
		}
	}
	return links
}

// A Session is a round-persistent simulation context: one (topology,
// protocol, config) binding whose radio graph survives across Run
// calls and is mutated incrementally. Where sim.Run pays a full
// mutable-adjacency rebuild plus Coord round-trips for Down/DownLinks
// on every call, a Session applies each state change exactly once, in
// dense-index space, when it happens:
//
//   - SetNodeDown empties the node's row and splices it out of its
//     neighbors' rows — O(deg²), not O(V·deg) — and SetNodeUp
//     refilters the same rows back;
//   - SetLinkDown / SetLinkUp edit exactly the two endpoint rows;
//   - compiled relay plans are cached per source for the session's
//     lifetime (a plan is a pure function of (topology, protocol,
//     source) — the Protocol contract — so graph mutations never
//     invalidate one);
//   - the Result's slices live in a session-owned arena, rewritten in
//     place each Run.
//
// The live adjacency invariant — every live node's row equals its
// pristine row filtered by (neighbor alive && link up), order
// preserved — is exactly the row sim.Run constructs from equivalent
// Down/DownLinks lists, which is why session results are
// byte-identical to the one-shot path (locked by the differential
// tests).
//
// Every live row is a capacity-capped view of one flat backing array
// whose capacity is the pristine row length, so a row is emptied,
// spliced and refilled in place and no mutation — Reset included —
// allocates.
//
// Sessions of regular meshes below largeGridNodes are pooled per
// (kind, size): Release hands a session back, and the next NewSession
// on the same mesh rebinds it instead of building one (see
// sessionPool).
//
// The returned Result and its slices are valid until the next Run,
// Reset, mutation or Release on the same session. A Session is not
// safe for concurrent use.
type Session struct {
	topo  grid.Topology
	proto Protocol
	cfg   Config // defaults applied once at NewSession; Down and DownLinks cleared
	v     int

	pool *sync.Pool // where Release puts the session; nil: not pooled
	held bool       // between NewSession and Release

	full [][]int32 // pristine adjacency, never mutated (may be cache-shared)
	adj  [][]int32 // live adjacency: private rows (cap = pristine length), mutated in place

	down  []bool // failed-node mask, allocated on first SetNodeDown
	downN int

	// Link state, built lazily on first SetLinkDown/SetLinkUp/NumLinks:
	// the LinksOf table, the per-link down flags, and rowLink —
	// rowLink[i][k] is the link id of (i, full[i][k]), which lets
	// SetLinkUp rebuild an endpoint row by filtering the pristine row
	// without any searching.
	links    []IndexLink
	linkDown []bool
	rowLink  [][]int32

	plans map[int32]*relayPlan // per-source compiled plans, session-cached

	res   Result
	arena resultArena
}

// sessionPools holds released sessions, one sync.Pool per regular
// mesh below largeGridNodes, keyed like adjCache. A pooled session
// keeps what is a pure function of its mesh — the live adjacency copy,
// the link table, the down mask and the Result arena — so the next
// session on that mesh is built without allocating. An idle session
// goes away at GC like any pooled object, so nothing retained grows
// with the number of sessions ever built.
var sessionPools sync.Map // adjKey -> *sync.Pool

// sessionPool returns t's session pool, or nil when t's sessions are
// not pooled (Irregular meshes, and meshes of largeGridNodes or more,
// whose adjacency is not cached either).
func sessionPool(t grid.Topology) *sync.Pool {
	if t.Kind() == grid.Irregular || t.NumNodes() >= largeGridNodes {
		return nil
	}
	m, n, l := t.Size()
	key := adjKey{t.Kind(), m, n, l}
	v, ok := sessionPools.Load(key)
	if !ok {
		v, _ = sessionPools.LoadOrStore(key, new(sync.Pool))
	}
	return v.(*sync.Pool)
}

// sessionHook, when non-nil, is called with +1 by every NewSession and
// with -1 by every Release that gives a session back. Nil in
// production; see SetSessionHook.
var sessionHook func(delta int)

// SetSessionHook installs f as the observer of sessions taken and
// given back (nil removes it) and returns the observer it replaced.
// It is a test hook: tests outside this package count through it how
// many sessions a computation holds at once. It must not be called
// while sessions are being created or released.
func SetSessionHook(f func(delta int)) (old func(delta int)) {
	old, sessionHook = sessionHook, f
	return old
}

// NewSession validates the configuration once and binds it to a
// session: a released one of the same mesh when its pool holds one,
// else a new one with its own live adjacency. Config.Down and
// Config.DownLinks become the session's initial node and link state,
// checked with sim.Run's errors (checkDownLists); from then on the
// session owns that state through SetNodeDown / SetLinkDown, and Reset
// revives them too. A down source fails at Run, as it does in sim.Run.
func NewSession(t grid.Topology, p Protocol, cfg Config) (*Session, error) {
	cfg, err := sessionConfig(t, p, cfg)
	if err != nil {
		return nil, err
	}
	pool := sessionPool(t)
	var s *Session
	if pool != nil {
		s, _ = pool.Get().(*Session)
	}
	return s.bind(t, p, cfg, pool), nil
}

// sessionConfig validates a session's inputs, in sim.Run's order, and
// returns cfg with its defaults applied.
func sessionConfig(t grid.Topology, p Protocol, cfg Config) (Config, error) {
	if t == nil || p == nil {
		return cfg, fmt.Errorf("sim: session needs a topology and a protocol")
	}
	cfg = cfg.withDefaults(t.NumNodes())
	if err := cfg.Packet.Validate(); err != nil {
		return cfg, err
	}
	if cfg.MaxSlots >= math.MaxInt32 {
		return cfg, fmt.Errorf("sim: MaxSlots %d exceeds the engine's int32 slot limit", cfg.MaxSlots)
	}
	return cfg, checkDownLists(t, cfg)
}

// bind binds a validated (t, p, cfg) to s, a released session of t's
// pool, or to a new session when s is nil. A reused session's graph is
// reset; its per-source plans are kept only when p is the same
// plan-cacheable value they were compiled for, so every kept plan is
// one planCache also holds.
func (s *Session) bind(t grid.Topology, p Protocol, cfg Config, pool *sync.Pool) *Session {
	if s == nil {
		s = &Session{
			v:     t.NumNodes(),
			full:  buildAdjacency(t, false),
			plans: make(map[int32]*relayPlan),
		}
		s.adj = copyAdjacency(s.full)
	} else {
		s.Reset()
		// planCacheable(p) first: comparing two values of one
		// non-comparable dynamic type would panic.
		if !planCacheable(p) || s.proto != p {
			clear(s.plans)
		}
	}
	s.topo, s.proto, s.pool, s.held = t, p, pool, true
	for _, c := range cfg.Down {
		_ = s.SetNodeDown(t.Index(c)) // in the mesh: checkDownLists
	}
	for _, lk := range cfg.DownLinks {
		s.cutLink(int32(t.Index(lk.A)), int32(t.Index(lk.B)))
	}
	cfg.Down, cfg.DownLinks = nil, nil
	s.cfg = cfg
	if sessionHook != nil {
		sessionHook(1)
	}
	return s
}

// Release hands the session back for reuse by a later NewSession on
// the same mesh. The session and any Result it returned must not be
// used afterwards; a second Release is a no-op. Plans compiled for a
// protocol that planCache does not hold are dropped here, and so are
// the protocol and config, so an idle session pins nothing of its
// last caller.
func (s *Session) Release() {
	if !s.held {
		return
	}
	s.retire()
	if s.pool != nil {
		s.pool.Put(s)
	}
}

// retire is Release's cleanup before the session is pooled.
func (s *Session) retire() {
	s.held = false
	if !planCacheable(s.proto) {
		clear(s.plans)
		s.proto = nil
	}
	s.cfg = Config{}
	if sessionHook != nil {
		sessionHook(-1)
	}
}

// NumNodes returns the session topology's node count.
func (s *Session) NumNodes() int { return s.v }

// NumLinks returns the session topology's undirected link count (the
// length of its LinksOf table).
func (s *Session) NumLinks() int {
	s.ensureLinks()
	return len(s.links)
}

// Link returns the endpoints of link id, panicking on an out-of-range
// id like a slice index would.
func (s *Session) Link(id int) IndexLink {
	s.ensureLinks()
	return s.links[id]
}

// NodeDown reports whether the node at dense index i has been failed.
func (s *Session) NodeDown(i int) bool { return s.down != nil && s.down[i] }

// LinkDown reports whether link id is currently down.
func (s *Session) LinkDown(id int) bool {
	s.ensureLinks()
	return s.linkDown[id]
}

// SetNodeDown fails the node at dense index i: it is spliced out of
// its neighbors' rows (O(deg²)) and its own row is emptied, exactly
// the graph sim.Run builds for a Config.Down entry. Idempotent;
// SetNodeUp or Reset revives the node. The splice walks the pristine
// row, so links already cut by SetLinkDown are simply no-ops.
func (s *Session) SetNodeDown(i int) error {
	if i < 0 || i >= s.v {
		return fmt.Errorf("sim: node index %d outside %d-node mesh", i, s.v)
	}
	if s.down == nil {
		s.down = make([]bool, s.v)
	}
	if s.down[i] {
		return nil
	}
	s.down[i] = true
	s.downN++
	for _, nb := range s.full[i] {
		s.adj[nb] = removeNeighbor(s.adj[nb], int32(i))
	}
	s.adj[i] = s.adj[i][:0]
	return nil
}

// SetNodeUp revives the node at dense index i, the inverse of
// SetNodeDown: each live neighbor's row and its own row are refiltered
// from the pristine rows against the current node and link state, the
// way SetLinkUp rebuilds its endpoints — O(deg²), allocation-free, and
// order-preserving, so the graph equals the one sim.Run builds for the
// remaining Down list. Idempotent.
func (s *Session) SetNodeUp(i int) error {
	if i < 0 || i >= s.v {
		return fmt.Errorf("sim: node index %d outside %d-node mesh", i, s.v)
	}
	if !s.NodeDown(i) {
		return nil
	}
	s.down[i] = false
	s.downN--
	for _, nb := range s.full[i] {
		s.rebuildRow(nb)
	}
	s.rebuildRow(int32(i))
	return nil
}

// SetChannel sets the loss channel of the following Runs (the zero
// value: the error-free channel), replacing Config.Channel. The channel
// is configuration, not graph state: mutations and Reset keep it.
func (s *Session) SetChannel(ch BernoulliLoss) { s.cfg.Channel = ch }

// SetLinkDown cuts link id (a LinksOf index): both directions leave
// the radio graph by editing exactly the two endpoint rows. Idempotent.
func (s *Session) SetLinkDown(id int) error {
	s.ensureLinks()
	if id < 0 || id >= len(s.links) {
		return fmt.Errorf("sim: link id %d outside %d-link table", id, len(s.links))
	}
	if s.linkDown[id] {
		return nil
	}
	s.linkDown[id] = true
	lk := s.links[id]
	s.adj[lk.A] = removeNeighbor(s.adj[lk.A], lk.B)
	s.adj[lk.B] = removeNeighbor(s.adj[lk.B], lk.A)
	return nil
}

// cutLink cuts the lattice link between dense nodes a and b, as
// sim.Run applies a Config.DownLinks entry: a pair that is not a
// lattice link is a no-op.
func (s *Session) cutLink(a, b int32) {
	s.ensureLinks()
	for k, nb := range s.full[a] {
		if nb == b {
			_ = s.SetLinkDown(int(s.rowLink[a][k])) // a rowLink id is in the table
			return
		}
	}
}

// SetLinkUp restores link id. The two endpoint rows are rebuilt by
// filtering the pristine rows against the current node and link state,
// which restores the IndexNeighbors emission order an insertion could
// not — the invariant the byte-identity argument rests on. Rows of
// failed endpoints stay empty. Idempotent.
func (s *Session) SetLinkUp(id int) error {
	s.ensureLinks()
	if id < 0 || id >= len(s.links) {
		return fmt.Errorf("sim: link id %d outside %d-link table", id, len(s.links))
	}
	if !s.linkDown[id] {
		return nil
	}
	s.linkDown[id] = false
	lk := s.links[id]
	s.rebuildRow(lk.A)
	s.rebuildRow(lk.B)
	return nil
}

// rebuildRow refilters node i's live row from its pristine row. The
// row's backing array is reused: removeNeighbor never moves a row, so
// capacity equals the pristine length.
func (s *Session) rebuildRow(i int32) {
	if s.down != nil && s.down[i] {
		return // failed nodes keep their empty row
	}
	row := s.adj[i][:0]
	for k, nb := range s.full[i] {
		if s.down != nil && s.down[nb] {
			continue
		}
		if s.linkDown != nil && s.linkDown[s.rowLink[i][k]] {
			continue
		}
		row = append(row, nb)
	}
	s.adj[i] = row
}

// ensureLinks lazily builds the link table, the per-link down flags,
// and the row→link-id mapping. Ids match LinksOf exactly: for node i,
// its greater neighbors in pristine row order. The reverse direction
// (nb < i) is resolved by ranking i among nb's greater neighbors —
// O(V·deg²) once, never on the round path.
func (s *Session) ensureLinks() {
	if s.linkDown != nil || s.links != nil {
		return
	}
	first := make([]int32, s.v) // first[i] = id of node i's first greater-neighbor link
	total, n := 0, int32(0)
	for i, row := range s.full {
		first[i] = n
		total += len(row)
		for _, nb := range row {
			if nb > int32(i) {
				n++
			}
		}
	}
	s.links = make([]IndexLink, 0, n)
	s.rowLink = make([][]int32, s.v)
	flat := make([]int32, 0, total)
	for i, row := range s.full {
		gi := first[i]
		for _, nb := range row {
			if nb > int32(i) {
				s.links = append(s.links, IndexLink{A: int32(i), B: nb})
				flat = append(flat, gi)
				gi++
				continue
			}
			id := first[nb]
			for _, x := range s.full[nb] {
				if x == int32(i) {
					break
				}
				if x > nb {
					id++
				}
			}
			flat = append(flat, id)
		}
		s.rowLink[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
	}
	s.linkDown = make([]bool, len(s.links))
}

// Reset revives every node and link, those of the construction-time
// Config.Down and Config.DownLinks included, restoring the pristine
// graph by refilling each live row in place from its pristine row (no
// allocation). Plans, arenas, the channel and the link table are
// retained; a restored checkpoint replays its SetNodeDown/SetLinkDown
// calls on top of a Reset session to reconstruct the exact live graph.
func (s *Session) Reset() {
	for i, row := range s.full {
		s.adj[i] = append(s.adj[i][:0], row...)
	}
	if s.down != nil {
		clear(s.down)
	}
	s.downN = 0
	if s.linkDown != nil {
		clear(s.linkDown)
	}
}

// Run simulates one broadcast from src on the session's current live
// graph, reusing the session's compiled plan for that source and
// writing the Result into the session arena. Semantics, error cases
// and — for equal node/link state — output bytes match sim.Run
// exactly; only the setup cost differs. The Result is valid until the
// next Run, Reset, or mutation.
func (s *Session) Run(src grid.Coord) (*Result, error) {
	if !s.topo.Contains(src) {
		return nil, fmt.Errorf("sim: source %s outside %s mesh", src, s.topo.Kind())
	}
	srcIdx := int32(s.topo.Index(src))
	if s.down != nil && s.down[srcIdx] {
		return nil, fmt.Errorf("sim: source %s is down", src)
	}
	pl := s.plans[srcIdx]
	if pl == nil {
		pl = planFor(s.topo, s.proto, src)
		s.plans[srcIdx] = pl
	}
	// sim.Run binds a nil down mask when Config.Down is empty; mirroring
	// that keeps the engine's nil-vs-allocated branches — and the
	// Result's downMask — identical while every node is alive.
	var down []bool
	if s.downN > 0 {
		down = s.down
	}
	e := getEngine(s.topo, s.proto, pl, src, s.cfg, nil, s.adj, down)
	defer e.release()
	if err := e.runSchedule(); err != nil {
		return nil, err
	}
	res := e.finishInto(&s.res, &s.arena)
	e.flushTrace()
	return res, nil
}
