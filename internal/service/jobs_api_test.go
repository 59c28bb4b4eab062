package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wsnbcast/internal/jobs"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/store"
)

const sweepDoc = `{"topology": {"kind": "2d4", "m": 6, "n": 6}}`

// loadScenario parses and canonicalizes a document the way the
// handlers do.
func loadScenario(doc string) (scenario.Scenario, error) {
	sc, err := scenario.Load(strings.NewReader(doc))
	if err != nil {
		return sc, err
	}
	return sc.Canonical(), nil
}

func sweepJobDoc() string {
	return fmt.Sprintf(`{"kind": "sweep", "scenario": %s}`, sweepDoc)
}

func decodeStatus(t *testing.T, body []byte) jobs.Status {
	t.Helper()
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decode job status %q: %v", body, err)
	}
	return st
}

// pollJobDone polls GET /v1/jobs/{id} until the job is terminal.
func pollJobDone(t *testing.T, srv *Server, id string) jobs.Status {
	t.Helper()
	var st jobs.Status
	waitFor(t, "job "+id+" to finish", func() bool {
		w := get(srv, "/v1/jobs/"+id)
		if w.Code != http.StatusOK {
			t.Fatalf("job status: %d, body %s", w.Code, w.Body)
		}
		st = decodeStatus(t, w.Body.Bytes())
		return st.State == jobs.StateDone || st.State == jobs.StateFailed
	})
	return st
}

// TestJobsEndpointMatchesSync is the API-level differential: a sweep
// submitted as an async job must produce the exact bytes of the
// synchronous POST /v1/sweep response.
func TestJobsEndpointMatchesSync(t *testing.T) {
	srv := New(Config{})
	w := post(srv, "/v1/jobs", sweepJobDoc())
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: status = %d, body %s", w.Code, w.Body)
	}
	st := decodeStatus(t, w.Body.Bytes())
	if st.ID == "" || st.Total != 36 {
		t.Fatalf("submit status = %+v", st)
	}
	if loc := w.Header().Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q", loc)
	}

	fin := pollJobDone(t, srv, st.ID)
	if fin.State != jobs.StateDone || fin.Done != 36 {
		t.Fatalf("final status = %+v", fin)
	}

	res := get(srv, "/v1/jobs/"+st.ID+"/result")
	if res.Code != http.StatusOK {
		t.Fatalf("result: status = %d, body %s", res.Code, res.Body)
	}
	if cacheHdr := res.Header().Get("X-Cache"); cacheHdr != "job" {
		t.Errorf("result X-Cache = %q, want job", cacheHdr)
	}

	sync := post(srv, "/v1/sweep", sweepDoc)
	if sync.Code != http.StatusOK {
		t.Fatalf("sync sweep: %d", sync.Code)
	}
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Error("job result differs from synchronous sweep body")
	}

	// Idempotent resubmission attaches to the finished job.
	again := post(srv, "/v1/jobs", sweepJobDoc())
	if again.Code != http.StatusAccepted {
		t.Fatalf("resubmit: %d", again.Code)
	}
	if st2 := decodeStatus(t, again.Body.Bytes()); st2.ID != st.ID {
		t.Errorf("resubmit id = %s, want %s", st2.ID, st.ID)
	}
}

// TestJobsEvents reads the SSE stream: every point replays or arrives
// live, and the stream ends with the terminal done event.
func TestJobsEvents(t *testing.T) {
	srv := New(Config{})
	w := post(srv, "/v1/jobs", sweepJobDoc())
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", w.Code)
	}
	st := decodeStatus(t, w.Body.Bytes())

	// The handler streams until the terminal event, so this request
	// returns once the job finishes.
	ev := get(srv, "/v1/jobs/"+st.ID+"/events")
	if ev.Code != http.StatusOK {
		t.Fatalf("events: status = %d, body %s", ev.Code, ev.Body)
	}
	if ct := ev.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}
	points, done := 0, 0
	for _, line := range strings.Split(ev.Body.String(), "\n") {
		switch {
		case line == "event: point":
			points++
		case line == "event: done":
			done++
		case line == "event: failed":
			t.Fatal("stream carried a failed event")
		}
	}
	if points != 36 || done != 1 {
		t.Errorf("stream carried %d point events and %d done events, want 36 and 1", points, done)
	}

	if w := get(srv, "/v1/jobs/no-such-job/events"); w.Code != http.StatusNotFound {
		t.Errorf("events for unknown job: %d, want 404", w.Code)
	}
}

// TestJobsSubmitValidation: the endpoint rejects what the synchronous
// endpoints would reject, plus malformed job wrappers.
func TestJobsSubmitValidation(t *testing.T) {
	srv := New(Config{MaxNodes: 100})
	cases := []struct {
		name, doc string
		status    int
	}{
		{"unknown kind", `{"kind": "explode", "scenario": {"topology": {"kind": "2d4", "m": 2, "n": 2}}}`, 400},
		{"missing scenario", `{"kind": "sweep"}`, 400},
		{"unknown wrapper field", `{"kind": "sweep", "scenario": {"topology": {"kind": "2d4", "m": 2, "n": 2}}, "priority": 9}`, 400},
		{"unknown scenario field", `{"kind": "sweep", "scenario": {"topology": {"kind": "2d4", "m": 2, "n": 2}, "bogus": 1}}`, 400},
		{"sweep with sources", `{"kind": "sweep", "scenario": {"topology": {"kind": "2d4", "m": 2, "n": 2}, "sources": [{"x": 1, "y": 1}]}}`, 400},
		{"run without source", `{"kind": "run", "scenario": {"topology": {"kind": "2d4", "m": 2, "n": 2}}}`, 400},
		{"oversized mesh", `{"kind": "sweep", "scenario": {"topology": {"kind": "2d4", "m": 50, "n": 50}}}`, 413},
		{"trailing content", `{"kind": "sweep", "scenario": {"topology": {"kind": "2d4", "m": 2, "n": 2}}} extra`, 400},
	}
	for _, tc := range cases {
		if w := post(srv, "/v1/jobs", tc.doc); w.Code != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, w.Code, tc.status, w.Body)
		}
	}
	if w := get(srv, "/v1/jobs/missing"); w.Code != http.StatusNotFound {
		t.Errorf("status of unknown job = %d, want 404", w.Code)
	}
	if w := get(srv, "/v1/jobs/missing/result"); w.Code != http.StatusNotFound {
		t.Errorf("result of unknown job = %d, want 404", w.Code)
	}
}

// TestStoreIsL2SharedAcrossInstances: a result computed by one server
// process serves a second process over the same directory from the
// store, byte-identically, without simulating.
func TestStoreIsL2SharedAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Store: st1})
	first := post(srv1, "/v1/sweep", sweepDoc)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first: %d, X-Cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	if w := post(srv1, "/v1/sweep", sweepDoc); w.Header().Get("X-Cache") != "hit" {
		t.Errorf("second request X-Cache = %q, want hit (LRU in front of store)", w.Header().Get("X-Cache"))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(Config{Store: st2})
	w := post(srv2, "/v1/sweep", sweepDoc)
	if w.Code != http.StatusOK {
		t.Fatalf("restarted instance: %d", w.Code)
	}
	if got := w.Header().Get("X-Cache"); got != "store" {
		t.Errorf("restarted instance X-Cache = %q, want store", got)
	}
	if !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
		t.Error("store-served body differs from the computed one")
	}

	// The metrics document carries the store and job sections.
	var snap struct {
		CacheEvictions *uint64 `json:"cache_evictions"`
		Store          *store.Stats
		Jobs           *jobs.Stats
	}
	if err := json.Unmarshal(get(srv2, "/metrics").Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.CacheEvictions == nil || snap.Store == nil || snap.Jobs == nil {
		t.Fatalf("metrics missing cache_evictions/store/jobs sections: %+v", snap)
	}
	if snap.Store.Hits != 1 {
		t.Errorf("store hits = %d, want 1", snap.Store.Hits)
	}
	if err := srv2.Drain(ctx); err != nil {
		t.Fatalf("drain 2: %v", err)
	}
}

// TestJobSurvivesRestart: a finished job's result is durable — a new
// server over the same directory answers the resubmitted job
// instantly, computing nothing, and the synchronous endpoint hits the
// same entry.
func TestJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := New(Config{Store: st1})
	w := post(srv1, "/v1/jobs", sweepJobDoc())
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", w.Code)
	}
	st := decodeStatus(t, w.Body.Bytes())
	pollJobDone(t, srv1, st.ID)
	res1 := get(srv1, "/v1/jobs/"+st.ID+"/result")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := jobs.NewManager(jobs.Config{Store: st2, Workers: 2})
	srv2 := New(Config{Store: st2, Jobs: m2})
	if n, err := m2.Recover(); err != nil || n != 0 {
		t.Fatalf("recover = %d, %v; want 0 resumed (job finished before restart)", n, err)
	}
	// The finished job is visible after recovery, result intact.
	w2 := get(srv2, "/v1/jobs/"+st.ID)
	if w2.Code != http.StatusOK {
		t.Fatalf("recovered status: %d", w2.Code)
	}
	if got := decodeStatus(t, w2.Body.Bytes()); got.State != jobs.StateDone {
		t.Fatalf("recovered state = %s, want done", got.State)
	}
	res2 := get(srv2, "/v1/jobs/"+st.ID+"/result")
	if res2.Code != http.StatusOK || !bytes.Equal(res2.Body.Bytes(), res1.Body.Bytes()) {
		t.Error("recovered result differs")
	}
	if n := m2.Stats().PointsComputed; n != 0 {
		t.Errorf("restarted manager computed %d points, want 0", n)
	}
	// The synchronous endpoint shares the entry.
	if w := post(srv2, "/v1/sweep", sweepDoc); w.Header().Get("X-Cache") != "store" {
		t.Errorf("sync X-Cache after job = %q, want store", w.Header().Get("X-Cache"))
	}
	if err := srv2.Drain(ctx); err != nil {
		t.Fatalf("drain 2: %v", err)
	}
}

// TestGracefulDrainWithJobsAndStore extends the drain ordering test to
// the job subsystem and the durable store: Drain must checkpoint the
// in-flight job (its unfinished points resumable by the next process),
// wait out the admitted pool work, and close the store last — and the
// resumed job must finish byte-identically without recomputing the
// points that drained to disk.
func TestGracefulDrainWithJobsAndStore(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobEntered := make(chan struct{}, 1)
	jobRelease := make(chan struct{})
	var once sync.Once
	m1 := jobs.NewManager(jobs.Config{
		Store:   st1,
		Workers: 1,
		BeforePoint: func(_ string, index int) {
			once.Do(func() {
				jobEntered <- struct{}{}
				<-jobRelease
			})
		},
	})
	srv := New(Config{Workers: 1, Store: st1, Jobs: m1})
	syncRelease := make(chan struct{})
	syncEntered := make(chan struct{}, 1)
	srv.hookBeforeJob = func() {
		syncEntered <- struct{}{}
		<-syncRelease
	}

	// One async job held at its first point, one sync request held in
	// the pool.
	w := post(srv, "/v1/jobs", sweepJobDoc())
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", w.Code)
	}
	jobID := decodeStatus(t, w.Body.Bytes()).ID
	<-jobEntered
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); post(srv, "/v1/run", runDoc) }()
	<-syncEntered

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainErr <- srv.Drain(ctx)
	}()
	waitFor(t, "healthz to report draining", func() bool {
		return get(srv, "/healthz").Code == http.StatusServiceUnavailable
	})
	if w := post(srv, "/v1/jobs", sweepJobDoc()); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("job submit during drain: %d, want 503", w.Code)
	}
	// Once the manager rejects direct submissions, its workers are
	// cancelled: releasing the gate lets exactly the in-flight point
	// drain to the store before the worker stops.
	waitFor(t, "job manager to start closing", func() bool {
		sc, lerr := loadScenario(sweepDoc)
		if lerr != nil {
			t.Fatal(lerr)
		}
		pl, perr := scenario.NewPlan(scenario.KindSweep, sc)
		if perr != nil {
			t.Fatal(perr)
		}
		_, serr := m1.Submit(pl)
		return serr != nil
	})
	close(jobRelease)
	select {
	case err := <-drainErr:
		t.Fatalf("Drain returned %v while the pool still held a request", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(syncRelease)
	wg.Wait()
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain = %v", err)
	}
	// The store closed last: writes are fenced now.
	if err := st1.Put("post-drain", []byte("x")); err != store.ErrClosed {
		t.Errorf("store Put after drain = %v, want ErrClosed", err)
	}

	// The next process resumes the checkpointed job and computes only
	// the 35 points that had not drained.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := jobs.NewManager(jobs.Config{Store: st2, Workers: 4})
	resumed, err := m2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d jobs, want 1", resumed)
	}
	srv2 := New(Config{Store: st2, Jobs: m2})
	fin := pollJobDone(t, srv2, jobID)
	if fin.State != jobs.StateDone || fin.Done != 36 {
		t.Fatalf("resumed job = %+v", fin)
	}
	if n := m2.Stats().PointsComputed; n != 35 {
		t.Errorf("resumed manager computed %d points, want 35 (one drained before shutdown)", n)
	}
	res := get(srv2, "/v1/jobs/"+jobID+"/result")
	sync := post(srv2, "/v1/sweep", sweepDoc)
	if sync.Header().Get("X-Cache") != "store" {
		t.Errorf("sync after resumed job: X-Cache = %q, want store", sync.Header().Get("X-Cache"))
	}
	if !bytes.Equal(res.Body.Bytes(), sync.Body.Bytes()) {
		t.Error("resumed job result differs from synchronous body")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv2.Drain(ctx); err != nil {
		t.Fatalf("drain 2: %v", err)
	}
}
