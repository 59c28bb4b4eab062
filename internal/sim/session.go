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
// calls and is mutated incrementally, and the only place a broadcast
// is bound (sim.Run is a one-shot session). Each state change is
// applied once, in dense-index space, when it happens: SetNodeDown
// splices the node out of its neighbors' rows (O(deg²)), SetLinkDown /
// SetLinkUp edit the two endpoint rows, compiled relay plans are cached
// per source (a plan is a pure function of (topology, protocol,
// source), so mutations never invalidate one), and the Result's slices
// live in a session-owned arena rewritten in place each Run.
//
// A session keeps no rows of its own until a mutation needs them. It
// reads the shared source meshSource picks — the mesh's cached
// pristine rows, or the NeighborIndexer of Irregular and large meshes,
// where a failed node is only a bit of the down mask the engine
// filters against (liveFilter). The first mutation the shared source
// cannot express — any failure on cached rows, a link cut on an
// indexer — copies the pristine rows into private ones: capacity-capped
// views of one flat array, emptied, spliced and refilled in place, so
// no later mutation allocates. Reset returns to the shared source.
//
// Every live row equals its pristine row filtered by (neighbor alive
// && link up), order preserved: the graph the frozen reference engine
// prunes from equivalent Down lists, which is why every session mode is
// byte-identical to it (locked by the differential tests).
//
// Sessions of regular meshes below largeGridNodes are pooled per mesh
// (see meshes). The returned Result and its slices are valid until the
// next Run, Reset, mutation or Release on the same session. A Session
// is not safe for concurrent use.
type Session struct {
	topo  grid.Topology
	proto Protocol
	cfg   Config // defaults applied once at NewSession; Down and DownLinks cleared
	v     int

	mesh *meshEntry // the mesh's shared rows and session pool; nil: not pooled
	held bool       // between NewSession and Release

	// The neighbor source. Until own is set the live graph is the shared
	// one: full, or ix filtered by the down mask when ix is set.
	ix   grid.NeighborIndexer // implicit rows of Irregular and large meshes
	full [][]int32            // pristine rows: the mesh's cached rows, else built on first need
	adj  [][]int32            // private live rows (cap = pristine length), kept across Reset and reuse
	own  bool                 // adj holds the live graph

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

	plans map[int32]*relayPlan // per-source compiled plans of Run, allocated on first use

	res   Result
	arena resultArena
}

// meshes holds one entry per regular mesh below largeGridNodes, keyed
// by (kind, size): its pristine rows, built once and read by every
// session on the mesh, and the pool of its released sessions. A pooled
// session keeps what is a pure function of its mesh — private rows,
// link table, down mask, Result arena — so the next session on that
// mesh is built without allocating; an idle one goes away at GC.
// Irregular meshes get no entry (kind and size do not determine them),
// nor do larger ones: pinning multi-MiB rows per size forever would
// let a handful of large runs hold hundreds of MiB.
var meshes sync.Map // meshKey -> *meshEntry

type meshKey struct {
	kind    grid.Kind
	m, n, l int
}

type meshEntry struct {
	rows [][]int32
	pool sync.Pool
}

// meshSource decides t's neighbor source: the shared entry of a
// regular mesh below largeGridNodes, or else t's NeighborIndexer.
// Irregular meshes serve their build-once adjacency through the
// indexer, and larger meshes iterate implicitly, so steady-state
// engine state is O(N) words + O(N) bits with no O(N*deg) table
// anywhere. Every grid topology is a NeighborIndexer.
func meshSource(t grid.Topology) (*meshEntry, grid.NeighborIndexer) {
	if t.Kind() == grid.Irregular || t.NumNodes() >= largeGridNodes {
		return nil, t.(grid.NeighborIndexer)
	}
	m, n, l := t.Size()
	key := meshKey{t.Kind(), m, n, l}
	v, ok := meshes.Load(key)
	if !ok {
		// Concurrent first access may build twice; LoadOrStore keeps one.
		v, _ = meshes.LoadOrStore(key, &meshEntry{rows: buildAdjacencyUncached(t)})
	}
	return v.(*meshEntry), nil
}

// buildAdjacencyUncached builds t's pristine neighbor rows, one
// allocation per row.
func buildAdjacencyUncached(t grid.Topology) [][]int32 {
	v := t.NumNodes()
	adj := make([][]int32, v)
	var buf []int32
	for i := 0; i < v; i++ {
		buf = grid.IndexNeighbors(t, i, buf[:0])
		row := make([]int32, len(buf))
		copy(row, buf)
		adj[i] = row
	}
	return adj
}

// removeNeighbor deletes nb from a private adjacency row in place,
// preserving order. A row that does not list nb — a non-adjacent
// DownLinks pair, or a row already emptied by node failure — comes
// back unchanged.
func removeNeighbor(row []int32, nb int32) []int32 {
	for i, v := range row {
		if v == nb {
			return append(row[:i], row[i+1:]...)
		}
	}
	return row
}

// copyAdjacency deep-copies neighbor lists into one flat backing array
// (two allocations regardless of node count). Rows are capacity-capped
// so in-place pruning of one row cannot clobber the next.
func copyAdjacency(adj [][]int32) [][]int32 {
	total := 0
	for _, row := range adj {
		total += len(row)
	}
	flat := make([]int32, 0, total)
	out := make([][]int32, len(adj))
	for i, row := range adj {
		flat = append(flat, row...)
		out[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
	}
	return out
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
// else a new one. Config.Down and Config.DownLinks become the
// session's initial node and link state, checked by sessionConfig;
// from then on the session owns that state through
// SetNodeDown / SetLinkDown, and Reset revives them too. A down source
// fails at Run, as it does in sim.Run.
func NewSession(t grid.Topology, p Protocol, cfg Config) (*Session, error) {
	cfg, err := sessionConfig(t, p, cfg)
	if err != nil {
		return nil, err
	}
	mesh, ix := meshSource(t)
	var s *Session
	if mesh != nil {
		s, _ = mesh.pool.Get().(*Session)
	}
	return s.bind(t, p, cfg, mesh, ix), nil
}

// sessionConfig validates a session's inputs, in sim.Run's order, and
// returns cfg with its defaults applied. Every Config.Down node and
// then every Config.DownLinks endpoint must lie in t's mesh; a down
// source is Run's check, made once the source is known.
func sessionConfig(t grid.Topology, p Protocol, cfg Config) (Config, error) {
	if t == nil || p == nil {
		return cfg, fmt.Errorf("sim: session needs a topology and a protocol")
	}
	cfg = cfg.withDefaults(t.NumNodes())
	if err := cfg.Packet.Validate(); err != nil {
		return cfg, err
	}
	if cfg.MaxSlots >= math.MaxInt32 {
		// Slot state is int32 (struct-of-arrays arena); a schedule this
		// long could not be drained slot-by-slot anyway.
		return cfg, fmt.Errorf("sim: MaxSlots %d exceeds the engine's int32 slot limit", cfg.MaxSlots)
	}
	for _, c := range cfg.Down {
		if !t.Contains(c) {
			return cfg, fmt.Errorf("sim: down node %s outside mesh", c)
		}
	}
	for _, lk := range cfg.DownLinks {
		if !t.Contains(lk.A) || !t.Contains(lk.B) {
			return cfg, fmt.Errorf("sim: down link %s-%s outside %s mesh", lk.A, lk.B, t.Kind())
		}
	}
	return cfg, nil
}

// bind binds a validated (t, p, cfg) to s, a released session of t's
// pool, or to a new session when s is nil. A reused session's graph is
// reset; its per-source plans are kept only when p is the same
// plan-cacheable value they were compiled for, so every kept plan is
// one planCache also holds.
func (s *Session) bind(t grid.Topology, p Protocol, cfg Config, mesh *meshEntry, ix grid.NeighborIndexer) *Session {
	if s == nil {
		s = &Session{v: t.NumNodes(), mesh: mesh, ix: ix}
		if mesh != nil {
			s.full = mesh.rows
		}
	} else {
		s.Reset()
		// planCacheable(p) first: comparing two values of one
		// non-comparable dynamic type would panic.
		if !planCacheable(p) || s.proto != p {
			clear(s.plans)
		}
	}
	s.topo, s.proto, s.held = t, p, true
	for _, c := range cfg.Down {
		_ = s.SetNodeDown(t.Index(c)) // in the mesh: sessionConfig
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
	if s.mesh != nil {
		s.mesh.pool.Put(s)
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
// the graph the reference engine prunes for a Config.Down entry. On an
// indexer the down mask alone fails it. Idempotent; SetNodeUp or Reset
// revives the node.
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
	if s.ix == nil {
		s.materialize() // the cached rows are shared: never splice them
	}
	s.down[i] = true
	s.downN++
	if s.own {
		s.splice(int32(i))
	}
	return nil
}

// splice removes failed node i from the private rows: out of each
// neighbor's row, and its own row emptied. It walks the pristine row,
// so links already cut by SetLinkDown are simply no-ops.
func (s *Session) splice(i int32) {
	for _, nb := range s.full[i] {
		s.adj[nb] = removeNeighbor(s.adj[nb], i)
	}
	s.adj[i] = s.adj[i][:0]
}

// SetNodeUp revives the node at dense index i, the inverse of
// SetNodeDown: each live neighbor's row and its own row are refiltered
// from the pristine rows against the current node and link state, the
// way SetLinkUp rebuilds its endpoints — O(deg²), allocation-free, and
// order-preserving, so the graph equals the one the remaining failures
// define. Idempotent.
func (s *Session) SetNodeUp(i int) error {
	if i < 0 || i >= s.v {
		return fmt.Errorf("sim: node index %d outside %d-node mesh", i, s.v)
	}
	if !s.NodeDown(i) {
		return nil
	}
	s.down[i] = false
	s.downN--
	if s.own {
		for _, nb := range s.full[i] {
			s.rebuildRow(nb)
		}
		s.rebuildRow(int32(i))
	}
	return nil
}

// SetChannel sets the loss channel of the following Runs (the zero
// value: the error-free channel), replacing Config.Channel. The channel
// is configuration, not graph state: mutations and Reset keep it.
func (s *Session) SetChannel(ch BernoulliLoss) { s.cfg.Channel = ch }

// SetLinkDown cuts link id (a LinksOf index): both directions leave
// the radio graph by editing exactly the two endpoint rows, which
// become private first. Idempotent.
func (s *Session) SetLinkDown(id int) error {
	s.ensureLinks()
	if id < 0 || id >= len(s.links) {
		return fmt.Errorf("sim: link id %d outside %d-link table", id, len(s.links))
	}
	if s.linkDown[id] {
		return nil
	}
	s.materialize()
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

// materialize makes the live graph private: the pristine rows —
// built here on an indexer that has none yet — are copied into the
// private rows, reusing their backing arrays when the session has
// them, and the failed nodes the down mask carries are spliced out.
// No link is down while the session reads the shared source, so
// nothing else needs pruning. A no-op once the rows are private.
func (s *Session) materialize() {
	if s.own {
		return
	}
	if s.full == nil {
		s.full = buildAdjacencyUncached(s.topo)
	}
	if s.adj == nil {
		s.adj = copyAdjacency(s.full)
	} else {
		for i, row := range s.full {
			s.adj[i] = append(s.adj[i][:0], row...)
		}
	}
	if s.downN > 0 {
		for i, d := range s.down {
			if d {
				s.splice(int32(i))
			}
		}
	}
	s.own = true
}

// ensureLinks lazily builds the link table, the per-link down flags,
// and the row→link-id mapping, and with them the pristine rows of an
// indexer. Ids match LinksOf exactly: for node i, its greater neighbors
// in pristine row order. The reverse direction (nb < i) is resolved by
// ranking i among nb's greater neighbors — O(V·deg²) once, never on
// the round path.
func (s *Session) ensureLinks() {
	if s.linkDown != nil {
		return
	}
	if s.full == nil {
		s.full = buildAdjacencyUncached(s.topo)
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
// Config.Down and Config.DownLinks included, and returns the session
// to the shared neighbor source without allocating. Plans, arenas, the
// private rows' backing arrays, the channel and the link table are
// retained; a restored checkpoint replays its SetNodeDown/SetLinkDown
// calls on top of a Reset session to reconstruct the exact live graph.
func (s *Session) Reset() {
	s.own = false
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
// exactly. The Result is valid until the next Run, Reset, or mutation.
func (s *Session) Run(src grid.Coord) (*Result, error) {
	e, err := s.start(src, true)
	if e != nil {
		defer e.release()
	}
	if err != nil {
		return nil, err
	}
	res := e.finishInto(&s.res, &s.arena)
	e.flushTrace()
	return res, nil
}

// start binds a pooled engine to a broadcast from src on the live
// graph and drives the schedule/repair loop to completion. keep caches
// a newly compiled plan in the session. A one-shot session does not:
// planCache already holds the plans a released session would keep, so
// caching them would only grow a pooled session's map by one entry per
// source a sweep visits. The caller owns the returned engine
// (finish/flushTrace/release); it is non-nil whenever an engine was
// bound, error or not.
func (s *Session) start(src grid.Coord, keep bool) (*engine, error) {
	if !s.topo.Contains(src) {
		return nil, fmt.Errorf("sim: source %s outside %s mesh", src, s.topo.Kind())
	}
	srcIdx := int32(s.topo.Index(src))
	if s.NodeDown(int(srcIdx)) {
		return nil, fmt.Errorf("sim: source %s is down", src)
	}
	pl := s.plans[srcIdx]
	if pl == nil {
		pl = planFor(s.topo, s.proto, src)
		if keep {
			if s.plans == nil {
				s.plans = make(map[int32]*relayPlan)
			}
			s.plans[srcIdx] = pl
		}
	}
	ix, nbr := s.ix, s.full // the engine reads nbr only when ix is nil
	if s.own {
		ix, nbr = nil, s.adj
	}
	// A nil down mask while every node is alive keeps the engine's
	// nil-vs-allocated branches — and the Result's downMask — the same
	// for a session that never failed a node and one that revived all.
	var down []bool
	if s.downN > 0 {
		down = s.down
	}
	e := getEngine(s.topo, s.proto, pl, src, s.cfg, ix, nbr, down)
	return e, e.runSchedule()
}
