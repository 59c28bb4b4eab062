package service

import (
	"fmt"
	"net/http"
	"testing"
)

// overflowCase is a document whose admission-cap arithmetic wraps a
// 64-bit int when computed naively, and every endpoint that admits it.
type overflowCase struct {
	doc       string
	endpoints []string
	jobKind   string
}

// expectRejected posts the document to each endpoint (and as a job of
// the given kind), requires 413 from all of them, then requires the
// server to keep answering an ordinary request.
func expectRejected(t *testing.T, c overflowCase) {
	t.Helper()
	srv := New(Config{})
	for _, path := range c.endpoints {
		if w := post(srv, path, c.doc); w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: status = %d, want 413; body %s", path, w.Code, w.Body)
		}
	}
	job := fmt.Sprintf(`{"kind": %q, "scenario": %s}`, c.jobKind, c.doc)
	if w := post(srv, "/v1/jobs", job); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /v1/jobs: status = %d, want 413; body %s", w.Code, w.Body)
	}
	if w := post(srv, "/v1/run", runDoc); w.Code != http.StatusOK {
		t.Errorf("server stopped serving after the rejections: status = %d", w.Code)
	}
}

// 2^62 replications x 4 loss rates is 2^64 simulation jobs, which a
// plain product wraps to 0.
func TestReliabilityJobCountOverflow413(t *testing.T) {
	expectRejected(t, overflowCase{
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
	expectRejected(t, overflowCase{
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
	expectRejected(t, overflowCase{
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
