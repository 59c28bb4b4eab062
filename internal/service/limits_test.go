package service

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"wsnbcast/internal/scenario"
)

// rejectCase is a hostile or contradictory document, every endpoint
// that would otherwise admit it, and the status all of them must
// answer with. want zero means 413.
type rejectCase struct {
	doc       string
	endpoints []string
	jobKind   string
	want      int
	// msg, when set, must appear in every rejection body.
	msg string
}

// rejectBudget bounds the wall time of one rejection. A rejected
// document does no simulation work, so milliseconds are typical; the
// bound is loose enough for a loaded host yet far below the seconds a
// pre-admission topology build costs.
const rejectBudget = 2 * time.Second

// expectRejected posts the document to each endpoint (and as a job of
// the given kind), requires the case's status from all of them within
// rejectBudget, then requires the server to keep answering an ordinary
// request.
func expectRejected(t *testing.T, c rejectCase) {
	t.Helper()
	want := c.want
	if want == 0 {
		want = http.StatusRequestEntityTooLarge
	}
	srv := New(Config{})
	check := func(path, body string) {
		t.Helper()
		start := time.Now()
		w := post(srv, path, body)
		if took := time.Since(start); took > rejectBudget {
			t.Errorf("POST %s: rejection took %v (budget %v)", path, took, rejectBudget)
		}
		if w.Code != want {
			t.Errorf("POST %s: status = %d, want %d; body %s", path, w.Code, want, w.Body)
		} else if !strings.Contains(w.Body.String(), c.msg) {
			t.Errorf("POST %s: body %s lacks %q", path, w.Body, c.msg)
		}
	}
	for _, path := range c.endpoints {
		check(path, c.doc)
	}
	check("/v1/jobs", fmt.Sprintf(`{"kind": %q, "scenario": %s}`, c.jobKind, c.doc))
	if w := post(srv, "/v1/run", runDoc); w.Code != http.StatusOK {
		t.Errorf("server stopped serving after the rejections: status = %d", w.Code)
	}
}

// 2^62 replications x 4 loss rates is 2^64 simulation jobs, which a
// plain product wraps to 0.
func TestReliabilityJobCountOverflow413(t *testing.T) {
	expectRejected(t, rejectCase{
		doc: `{
			"topology": {"kind": "2d4", "m": 4, "n": 4},
			"sources": [{"x": 1, "y": 1}],
			"reliability": {"replications": 4611686018427387904, "loss_rates": [0, 0.1, 0.2, 0.3]}
		}`,
		endpoints: []string{"/v1/run", "/v1/scenario"},
		jobKind:   "scenario",
	})
}

// 2^61 single-strategy cells x 8 rounds is 2^64 broadcasts, which a
// plain product wraps to 0.
func TestLifetimeCellRoundsOverflow413(t *testing.T) {
	expectRejected(t, rejectCase{
		doc: `{
			"topology": {"kind": "2d4", "m": 8, "n": 8},
			"sources": [{"x": 4, "y": 4}],
			"lifetime": {"budget_j": 0.004, "max_rounds": 8, "seed": 11, "replications": 2305843009213693952}
		}`,
		endpoints: []string{"/v1/lifetime"},
		jobKind:   "lifetime",
	})
}

// max_rounds + burnin_rounds = 2^63 wraps to MinInt64 when added.
func TestLifetimeBurnInRoundsOverflow413(t *testing.T) {
	expectRejected(t, rejectCase{
		doc: `{
			"topology": {"kind": "2d4", "m": 8, "n": 8},
			"sources": [{"x": 4, "y": 4}],
			"lifetime": {
				"budget_j": 0.004, "seed": 11,
				"max_rounds": 4611686018427387904, "burnin_rounds": 4611686018427387904,
				"churn_rates": [0.05]
			}
		}`,
		endpoints: []string{"/v1/lifetime"},
		jobKind:   "lifetime",
	})
}

// m*n = 2^64 wraps to 0 when multiplied, which once passed the node
// cap and panicked the engine inside a pool worker, killing the
// process.
func TestNodeCountOverflow413(t *testing.T) {
	expectRejected(t, rejectCase{
		doc:       `{"topology": {"kind": "2d4", "m": 8589934592, "n": 2147483648}, "sources": [{"x": 1, "y": 1}]}`,
		endpoints: []string{"/v1/run", "/v1/scenario"},
		jobKind:   "run",
		msg:       "mesh too large",
	})
}

// A 2.25M-node irregular mesh must meet the node cap before its
// adjacency is built, not after.
func TestIrregularOversizedMesh413(t *testing.T) {
	expectRejected(t, rejectCase{
		doc:       `{"topology": {"kind": "irregular", "m": 1500, "n": 1500, "radius": 1.2}, "protocol": "flooding", "sources": [{"x": 1, "y": 1}]}`,
		endpoints: []string{"/v1/run", "/v1/scenario"},
		jobKind:   "run",
		msg:       "mesh too large",
	})
}

// An irregular radius of 3000 scans ~36M cells per node at
// construction: seconds of CPU for an 8x8 mesh.
func TestIrregularHugeRadius400(t *testing.T) {
	expectRejected(t, rejectCase{
		doc:       `{"topology": {"kind": "irregular", "m": 8, "n": 8, "radius": 3000}, "protocol": "flooding", "sources": [{"x": 1, "y": 1}]}`,
		endpoints: []string{"/v1/run", "/v1/scenario"},
		jobKind:   "run",
		want:      http.StatusBadRequest,
		msg:       "radius",
	})
}

// Negative jitter used to reach the irregular constructor's panic from
// the handler.
func TestIrregularNegativeJitter400(t *testing.T) {
	expectRejected(t, rejectCase{
		doc:       `{"topology": {"kind": "irregular", "m": 8, "n": 8, "radius": 1.2, "jitter": -0.5}, "protocol": "flooding", "sources": [{"x": 1, "y": 1}]}`,
		endpoints: []string{"/v1/run", "/v1/scenario"},
		jobKind:   "run",
		want:      http.StatusBadRequest,
		msg:       "jitter",
	})
}

// Down-list conflicts are document errors: a 400 from the sync
// endpoints and from job submission, never a 500 from the engine or a
// job accepted only to fail.
func TestDownSourceConflict400(t *testing.T) {
	expectRejected(t, rejectCase{
		doc:       `{"topology": {"kind": "2d4", "m": 6, "n": 6}, "sources": [{"x": 3, "y": 3}], "down": [{"x": 3, "y": 3}]}`,
		endpoints: []string{"/v1/run", "/v1/scenario"},
		jobKind:   "run",
		want:      http.StatusBadRequest,
		msg:       "down list",
	})
}

func TestDownOnAllSourcesSweep400(t *testing.T) {
	expectRejected(t, rejectCase{
		doc:       `{"topology": {"kind": "2d4", "m": 6, "n": 6}, "down": [{"x": 2, "y": 2}]}`,
		endpoints: []string{"/v1/sweep", "/v1/scenario"},
		jobKind:   "sweep",
		want:      http.StatusBadRequest,
		msg:       "down nodes",
	})
}

func TestDownWithLifetime400(t *testing.T) {
	expectRejected(t, rejectCase{
		doc: `{
			"topology": {"kind": "2d4", "m": 6, "n": 6},
			"sources": [{"x": 3, "y": 3}],
			"down": [{"x": 1, "y": 1}],
			"lifetime": {"budget_j": 0.004, "max_rounds": 8, "seed": 11}
		}`,
		endpoints: []string{"/v1/lifetime"},
		jobKind:   "lifetime",
		want:      http.StatusBadRequest,
		msg:       "down list",
	})
}

func TestWithinLimit(t *testing.T) {
	cases := []struct {
		limit   int
		factors []int
		want    bool
	}{
		{10, []int{5, 2}, true},
		{10, []int{6, 2}, false},
		{10, []int{1 << 62, 4}, false}, // wraps to 0 when multiplied
		{10, []int{1 << 62, 0}, true},
		{10, []int{3, -1}, false},
		{10, nil, true},
	}
	for _, c := range cases {
		if got := withinLimit(c.limit, c.factors...); got != c.want {
			t.Errorf("withinLimit(%d, %v) = %v, want %v", c.limit, c.factors, got, c.want)
		}
	}
}

// allocatedBytes returns the bytes f allocates per call, averaged over
// n calls.
func allocatedBytes(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// An LRU hit answers before checkLimits compiles the document. On an
// irregular mesh Compile builds the whole adjacency, so a hit that
// compiled would allocate at least one Compile's worth; the served hit
// must stay under half of it.
func TestCacheHitSkipsCompile(t *testing.T) {
	const doc = `{"topology": {"kind": "irregular", "m": 120, "n": 120, "radius": 1.5}, "protocol": "flooding", "sources": [{"x": 1, "y": 1}]}`
	srv := New(Config{})
	if w := post(srv, "/v1/run", doc); w.Code != http.StatusOK {
		t.Fatalf("miss: status = %d, body %s", w.Code, w.Body)
	}
	hit := func() {
		if w := post(srv, "/v1/run", doc); w.Header().Get("X-Cache") != "hit" {
			t.Fatalf("repeat: X-Cache = %q, status %d", w.Header().Get("X-Cache"), w.Code)
		}
	}
	hit()
	sc, err := scenario.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	sc = sc.Canonical()
	compile := allocatedBytes(3, func() {
		if _, _, _, err := sc.Compile(); err != nil {
			t.Fatal(err)
		}
	})
	served := allocatedBytes(3, hit)
	if served*2 > compile {
		t.Errorf("an LRU hit allocates %.0f B against %.0f B for one Compile: the hit path compiles", served, compile)
	}
}
