package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"wsnbcast/internal/jobs"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/store"
)

const lifetimeDoc = `{
  "topology": {"kind": "2d4", "m": 8, "n": 8},
  "sources": [{"x": 4, "y": 4}],
  "lifetime": {
    "budget_j": 0.004,
    "max_rounds": 32,
    "seed": 11,
    "strategies": ["static", "residual"],
    "churn_rates": [0, 0.05],
    "p_new": 0.3
  }
}`

// TestLifetimeEndpointMatchesReport: POST /v1/lifetime renders exactly
// the lifetime plan's body, and repeats serve from the cache.
func TestLifetimeEndpointMatchesReport(t *testing.T) {
	srv := New(Config{})
	w := post(srv, "/v1/lifetime", lifetimeDoc)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	sc, err := loadScenario(lifetimeDoc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := scenario.NewPlan(scenario.KindLifetime, sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.Run(context.Background(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.EncodeBody(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Error("served lifetime body differs from the lifetime plan's")
	}
	second := post(srv, "/v1/lifetime", lifetimeDoc)
	if second.Header().Get("X-Cache") != "hit" {
		t.Errorf("repeat X-Cache = %q, want hit", second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(second.Body.Bytes(), want) {
		t.Error("cached lifetime body differs")
	}
}

// TestLifetimeEndpointRouting: lifetime sections are rejected by the
// single-shot endpoints and required by /v1/lifetime.
func TestLifetimeEndpointRouting(t *testing.T) {
	srv := New(Config{})
	for _, path := range []string{"/v1/run", "/v1/scenario", "/v1/sweep"} {
		if w := post(srv, path, lifetimeDoc); w.Code != http.StatusBadRequest {
			t.Errorf("POST %s with a lifetime section: status = %d, want 400", path, w.Code)
		}
	}
	if w := post(srv, "/v1/lifetime", runDoc); w.Code != http.StatusBadRequest {
		t.Errorf("POST /v1/lifetime without a lifetime section: status = %d, want 400", w.Code)
	}
}

// TestLifetimeJobMatchesEndpoint: a lifetime study submitted as an
// async job produces the exact bytes of the synchronous POST
// /v1/lifetime response.
func TestLifetimeJobMatchesEndpoint(t *testing.T) {
	srv := New(Config{})
	doc := fmt.Sprintf(`{"kind": "lifetime", "scenario": %s}`, lifetimeDoc)
	w := post(srv, "/v1/jobs", doc)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status = %d, body %s", w.Code, w.Body)
	}
	st := decodeStatus(t, w.Body.Bytes())
	if st.Total != 4 {
		t.Fatalf("total points = %d, want 4 cells", st.Total)
	}
	fin := pollJobDone(t, srv, st.ID)
	if fin.State != jobs.StateDone {
		t.Fatalf("final status = %+v", fin)
	}
	res := get(srv, "/v1/jobs/"+st.ID+"/result")
	if res.Code != http.StatusOK {
		t.Fatalf("result: status = %d, body %s", res.Code, res.Body)
	}
	sync := post(srv, "/v1/lifetime", lifetimeDoc)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync lifetime: %d", sync.Code)
	}
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Error("lifetime job result differs from synchronous body")
	}
}

// TestStoreEvictionCountersInMetrics: a size-capped store surfaces its
// eviction counters through GET /metrics.
func TestStoreEvictionCountersInMetrics(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetMaxBytes(256); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Store: st})
	defer srv.Drain(context.Background())
	// Two cached results overflow the 256-byte cap, forcing an eviction.
	post(srv, "/v1/run", runDoc)
	post(srv, "/v1/lifetime", lifetimeDoc)
	w := get(srv, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	var snap struct {
		Store *store.Stats `json:"store"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Store == nil {
		t.Fatal("no store section in /metrics")
	}
	if snap.Store.MaxBytes != 256 {
		t.Errorf("max_bytes = %d, want 256", snap.Store.MaxBytes)
	}
	if snap.Store.Evictions == 0 {
		t.Error("no evictions counted despite a 256-byte cap")
	}
}

// TestLifetimeStudySizeCap: admission control rejects studies whose
// cells x max_rounds product exceeds the configured bound, on the
// synchronous endpoint and on job submission alike.
func TestLifetimeStudySizeCap(t *testing.T) {
	srv := New(Config{MaxLifetimeRounds: 100})
	if w := post(srv, "/v1/lifetime", lifetimeDoc); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized study: status = %d, want 413 (4 cells x 32 rounds > 100)", w.Code)
	}
	doc := fmt.Sprintf(`{"kind": "lifetime", "scenario": %s}`, lifetimeDoc)
	if w := post(srv, "/v1/jobs", doc); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized job: status = %d, want 413", w.Code)
	}
}
