package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// A workload is a seeded, endless stream of requests: every doc(i) is a
// distinct document (its name carries the seed and index, so no two
// share a cache key), and each is followed by hitsPerMiss repeats of a
// recent document that the designed mix expects the server to answer
// from its cache.
type workload struct {
	name string
	// kind is the request shape: "sweep" and "lifetime" are synchronous
	// POST /v1/<kind> requests, "job" is POST /v1/jobs + SSE + result.
	kind string
	// doc returns the i-th distinct document of the stream and the facts
	// its response is checked against.
	doc func(seed uint64, i int) request
	// warm is the number of distinct warm-up documents served before
	// timing starts, one per shape of the stream, so lazy per-shape
	// state is built before the first measured request.
	warm int
	// digests is how many documents digests.json covers per seed: well
	// over the misses a run of 25 seconds serves on a 2-vCPU host.
	digests int
}

// Hits follow every miss; each repeats one of the last recentWindow
// misses, so the repeated body is always still in the LRU.
const (
	hitsPerMiss  = 4
	recentWindow = 8
)

// request is one generated document plus the expectations that do not
// come from the code under test.
type request struct {
	name string
	// body is the wire document: a scenario for sync kinds, a job
	// submission for "job".
	body []byte
	// scenario is the bare scenario document (equal to body for sync
	// kinds), for the traced replay.
	scenario []byte
	topo     topoSpec
	// lifetime / reliability expectations.
	strategies []string
	maxRounds  int
	seed       uint64
	reps       int
	loss, fail []float64
}

type topoSpec struct {
	Kind string `json:"kind"`
	M    int    `json:"m"`
	N    int    `json:"n"`
	L    int    `json:"l,omitempty"`
}

func (t topoSpec) nodes() int {
	if t.L > 0 {
		return t.M * t.N * t.L
	}
	return t.M * t.N
}

type point struct {
	X int `json:"x"`
	Y int `json:"y"`
	Z int `json:"z,omitempty"`
}

// sizes scales the documents; smoke sizes keep the test fast.
type sizes struct {
	sweepM       []int // m of the m x 16 2D meshes
	sweepN       int
	sweep3DL     []int // l of the 3d6 8 x 8 x l mesh, one per sweepM entry
	sweep3DSide  int
	staticSide   int
	staticBudget float64
	staticRounds int
	churnSide    int
	churnRounds  int
	jobM, jobN   int
	jobReps      int
}

var fullSizes = sizes{
	sweepM: []int{31, 32, 33}, sweepN: 16,
	sweep3DL: []int{7, 8, 9}, sweep3DSide: 8,
	staticSide: 64, staticBudget: 0.5, staticRounds: 4096,
	churnSide: 48, churnRounds: 32,
	jobM: 32, jobN: 16, jobReps: 64,
}

var smokeSizes = sizes{
	sweepM: []int{6, 7}, sweepN: 4,
	sweep3DL: []int{2, 3}, sweep3DSide: 3,
	staticSide: 8, staticBudget: 0.02, staticRounds: 64,
	churnSide: 6, churnRounds: 4,
	jobM: 6, jobN: 4, jobReps: 2,
}

// docRNG derives a per-document generator from (seed, index), so
// document i is the same whatever ran before it.
func docRNG(seed uint64, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed*1_000_003 + uint64(i)*7919 + 17)))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed, well-formed documents are marshalled
	}
	return b
}

// sweepShapes is the round-robin cycle of serve-sweep: the paper's four
// meshes under the paper protocol and under repair-heavy flooding. A
// cycle is weighted so that each latency percentile falls in the middle
// of one shape's band rather than on the edge between two, where it
// would jump between their costs with the exact mix of a run: the cheap
// paper shapes take the lowest 40%, 2D-3 flooding the middle 20% (p50),
// 2D-4 and 2D-8 flooding the next 20% and 3D-6 flooding, the dearest,
// the top 20% (p90).
var sweepShapes = []struct{ kind, protocol string }{
	{"2d4", "paper"}, {"2d3", "paper"}, {"2d8", "paper"}, {"3d6", "paper"},
	{"2d3", "flooding"}, {"2d3", "flooding"}, {"2d4", "flooding"}, {"2d8", "flooding"},
	{"3d6", "flooding"}, {"3d6", "flooding"},
}

// staticSources are the five strata the lifetime-static source cycles
// over, as fractions of the side; the seed moves each by up to two
// nodes. Five equal strata put p50 and p90 each in the middle of one.
var staticSources = [][2]float64{{0.5, 0.5}, {0, 0}, {1, 0.5}, {0.25, 0.75}, {0.75, 0.25}}

func workloads(sz sizes) map[string]workload {
	return map[string]workload{
		"serve-sweep": {name: "serve-sweep", kind: "sweep", warm: len(sweepShapes) * len(sz.sweepM), digests: 450,
			doc: func(seed uint64, i int) request {
				// Every (shape, size) pair comes round once per cycle, so
				// runs on different seeds see the same mix of work.
				c := cycle(seed, i, len(sweepShapes)*len(sz.sweepM))
				shape, k := sweepShapes[c%len(sweepShapes)], c/len(sweepShapes)
				t := topoSpec{Kind: shape.kind, M: sz.sweepM[k], N: sz.sweepN}
				if shape.kind == "3d6" {
					t = topoSpec{Kind: "3d6", M: sz.sweep3DSide, N: sz.sweep3DSide, L: sz.sweep3DL[k]}
				}
				name := fmt.Sprintf("serve-sweep-%d-%d", seed, i)
				b := mustJSON(map[string]any{"name": name, "topology": t, "protocol": shape.protocol})
				return request{name: name, body: b, scenario: b, topo: t}
			}},
		"lifetime-static": {name: "lifetime-static", kind: "lifetime", warm: 1, digests: 800,
			doc: func(seed uint64, i int) request {
				rng := docRNG(seed, i)
				side := sz.staticSide
				f := staticSources[cycle(seed, i, len(staticSources))]
				src := point{X: jitter(rng, f[0], side), Y: jitter(rng, f[1], side)}
				t := topoSpec{Kind: "2d4", M: side, N: side}
				name := fmt.Sprintf("lifetime-static-%d-%d", seed, i)
				b := mustJSON(map[string]any{
					"name": name, "topology": t, "sources": []point{src},
					"lifetime": map[string]any{
						"budget_j": sz.staticBudget, "max_rounds": sz.staticRounds,
						"seed": seed, "strategies": []string{"static"}, "churn_rates": []float64{0},
					},
				})
				return request{name: name, body: b, scenario: b, topo: t,
					strategies: []string{"static"}, maxRounds: sz.staticRounds, seed: seed, reps: 1}
			}},
		"lifetime-churn": {name: "lifetime-churn", kind: "lifetime", warm: 1, digests: 500,
			doc: func(seed uint64, i int) request {
				rng := docRNG(seed, i)
				side := sz.churnSide
				src := point{X: 1 + rng.Intn(side), Y: 1 + rng.Intn(side)}
				t := topoSpec{Kind: "2d4", M: side, N: side}
				name := fmt.Sprintf("lifetime-churn-%d-%d", seed, i)
				sts := []string{"round-robin", "residual"}
				b := mustJSON(map[string]any{
					"name": name, "topology": t, "sources": []point{src},
					"lifetime": map[string]any{
						"budget_j": 0.05, "max_rounds": sz.churnRounds, "seed": seed*1000 + uint64(i),
						"strategies": sts, "churn_rates": []float64{0.02}, "p_new": 0.25,
					},
				})
				return request{name: name, body: b, scenario: b, topo: t,
					strategies: sts, maxRounds: sz.churnRounds, seed: seed*1000 + uint64(i), reps: 1}
			}},
		"jobs-reliability": {name: "jobs-reliability", kind: "job", warm: 1, digests: 350,
			doc: func(seed uint64, i int) request {
				rng := docRNG(seed, i)
				t := topoSpec{Kind: "2d4", M: sz.jobM, N: sz.jobN}
				src := point{X: 1 + rng.Intn(t.M), Y: 1 + rng.Intn(t.N)}
				name := fmt.Sprintf("jobs-reliability-%d-%d", seed, i)
				loss, fail := []float64{0, 0.05, 0.1, 0.2}, []float64{0, 0.1}
				sc := mustJSON(map[string]any{
					"name": name, "topology": t, "sources": []point{src},
					"reliability": map[string]any{
						"seed": seed*1000 + uint64(i), "replications": sz.jobReps,
						"loss_rates": loss, "failure_rates": fail,
					},
				})
				b := mustJSON(map[string]any{"kind": "scenario", "scenario": json.RawMessage(sc)})
				return request{name: name, body: b, scenario: sc, topo: t,
					seed: seed*1000 + uint64(i), reps: sz.jobReps, loss: loss, fail: fail}
			}},
	}
}

// cycle is the position of document i in a round-robin of n shapes,
// started at an offset chosen by the seed (warm-up documents have
// negative i).
func cycle(seed uint64, i, n int) int {
	return ((int(seed%uint64(n))+i)%n + n) % n
}

// jitter places a coordinate at fraction f of side, moved by up to two
// nodes and clamped into [1, side].
func jitter(rng *rand.Rand, f float64, side int) int {
	c := 1 + int(f*float64(side-1)) + rng.Intn(5) - 2
	return max(1, min(side, c))
}

// op is one request of the measured stream.
type op struct {
	miss int // index of the distinct document
	hit  bool
}

// opStream yields miss 0, its hits, miss 1, its hits, ... with the
// repeated documents drawn by a seeded generator from the last
// recentWindow misses.
type opStream struct {
	rng  *rand.Rand
	next int
	hits int
}

func newOpStream(seed uint64) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(int64(seed) ^ 0x5eed))}
}

func (s *opStream) Next() op {
	if s.next == 0 || s.hits == hitsPerMiss {
		s.hits = 0
		s.next++
		return op{miss: s.next - 1}
	}
	s.hits++
	lo := max(0, s.next-recentWindow)
	return op{miss: lo + s.rng.Intn(s.next-lo), hit: true}
}
