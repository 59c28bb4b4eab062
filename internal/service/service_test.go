package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wsnbcast/internal/analysis"
	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/sim"
)

// post drives one request through the full handler stack (middleware
// included) and returns the recorder.
func post(srv *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func get(srv *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const runDoc = `{"topology": {"kind": "2d4", "m": 8, "n": 8}, "sources": [{"x": 3, "y": 3}]}`

func TestRunEndpointMatchesSim(t *testing.T) {
	srv := New(Config{})
	w := post(srv, "/v1/run", runDoc)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss", got)
	}
	var rep scenario.Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(rep.Runs))
	}
	direct, err := sim.Run(grid.NewMesh2D4(8, 8), core.ForTopology(grid.Mesh2D4), grid.C2(3, 3), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Runs[0]
	if r.Tx != direct.Tx || r.Rx != direct.Rx || r.Delay != direct.Delay || r.EnergyJ != direct.EnergyJ {
		t.Errorf("served run %+v != direct %v", r, direct)
	}
	if rep.Protocol != "paper-2d4" {
		t.Errorf("protocol = %q", rep.Protocol)
	}
}

func TestCacheHitDeterminism(t *testing.T) {
	srv := New(Config{})
	first := post(srv, "/v1/run", runDoc)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first: status %d cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	// Byte-identical repeat.
	second := post(srv, "/v1/run", runDoc)
	if second.Code != http.StatusOK {
		t.Fatalf("second: status %d", second.Code)
	}
	if second.Header().Get("X-Cache") != "hit" {
		t.Errorf("second X-Cache = %q, want hit", second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cache hit body differs from the original response")
	}
	// Semantically identical but byte-different: reordered fields,
	// explicit defaults, uppercase names, whitespace.
	variant := `{
		"sources": [{"x": 3, "y": 3, "z": 1}],
		"protocol": "PAPER",
		"packet_bits": 512,
		"topology": {"n": 8, "m": 8, "kind": "2D4"}
	}`
	third := post(srv, "/v1/run", variant)
	if third.Code != http.StatusOK {
		t.Fatalf("third: status %d, body %s", third.Code, third.Body)
	}
	if third.Header().Get("X-Cache") != "hit" {
		t.Errorf("variant X-Cache = %q, want hit (canonicalization failed)", third.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Error("variant body differs from the original response")
	}
	if got := srv.metrics.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want 1", got)
	}
}

func TestSingleflightDeduplicates(t *testing.T) {
	srv := New(Config{Workers: 4, QueueCap: 16})
	release := make(chan struct{})
	srv.hookBeforeJob = func() { <-release }

	const clients = 8
	var wg sync.WaitGroup
	results := make([]*httptest.ResponseRecorder, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = post(srv, "/v1/run", runDoc)
		}(i)
	}
	// Wait until all clients are inside the handler, then let the one
	// leader run.
	waitFor(t, "all clients in flight", func() bool {
		return srv.metrics.inFlight.Load() == clients
	})
	close(release)
	wg.Wait()

	for i, w := range results {
		if w.Code != http.StatusOK {
			t.Fatalf("client %d: status %d, body %s", i, w.Code, w.Body)
		}
		if !bytes.Equal(w.Body.Bytes(), results[0].Body.Bytes()) {
			t.Errorf("client %d body differs", i)
		}
	}
	if got := srv.metrics.executions.Load(); got != 1 {
		t.Errorf("executions = %d, want exactly 1 for %d identical concurrent requests", got, clients)
	}
	// A straggler after the burst is a plain cache hit.
	late := post(srv, "/v1/run", runDoc)
	if late.Header().Get("X-Cache") != "hit" {
		t.Errorf("straggler X-Cache = %q, want hit", late.Header().Get("X-Cache"))
	}
}

func TestQueueFullSheds429(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 1})
	release := make(chan struct{})
	entered := make(chan struct{}, 8)
	srv.hookBeforeJob = func() {
		entered <- struct{}{}
		<-release
	}
	defer close(release)

	doc := func(x int) string {
		return fmt.Sprintf(`{"topology": {"kind": "2d4", "m": 8, "n": 8}, "sources": [{"x": %d, "y": 1}]}`, x)
	}
	var wg sync.WaitGroup
	codes := make([]int, 2)
	wg.Add(1)
	go func() { defer wg.Done(); codes[0] = post(srv, "/v1/run", doc(1)).Code }()
	<-entered // the only worker is now occupied
	wg.Add(1)
	go func() { defer wg.Done(); codes[1] = post(srv, "/v1/run", doc(2)).Code }()
	waitFor(t, "second job queued", func() bool { return srv.pool.QueueDepth() == 1 })

	// Worker busy, queue full: the third distinct request must be shed.
	w := post(srv, "/v1/run", doc(3))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Retry-After"); got == "" {
		t.Error("429 without Retry-After header")
	}
	if got := srv.metrics.shed.Load(); got != 1 {
		t.Errorf("shed = %d, want 1", got)
	}

	release <- struct{}{} // let job 1 finish
	release <- struct{}{} // let job 2 finish (its hook runs next)
	wg.Wait()
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Errorf("blocked requests finished with %v, want 200s", codes)
	}
}

// With no queue (-queue -1) a fresh server serves its first request,
// and sheds a concurrent second one while the only worker is busy.
func TestNoQueueServesFirstRequest(t *testing.T) {
	for i := 0; i < 20; i++ {
		if w := post(New(Config{Workers: 1, QueueCap: -1}), "/v1/run", runDoc); w.Code != http.StatusOK {
			t.Fatalf("fresh server %d: first request status = %d, want 200; body %s", i, w.Code, w.Body)
		}
	}
	srv := New(Config{Workers: 1, QueueCap: -1})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.hookBeforeJob = func() {
		entered <- struct{}{}
		<-release
	}
	first := make(chan int, 1)
	go func() { first <- post(srv, "/v1/run", runDoc).Code }()
	<-entered
	second := `{"topology": {"kind": "2d4", "m": 8, "n": 8}, "sources": [{"x": 2, "y": 1}]}`
	if w := post(srv, "/v1/run", second); w.Code != http.StatusTooManyRequests {
		t.Errorf("concurrent second request: status = %d, want 429; body %s", w.Code, w.Body)
	}
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Errorf("first request: status = %d, want 200", code)
	}
}

func TestDeadlineExceeded504(t *testing.T) {
	srv := New(Config{Workers: 1})
	release := make(chan struct{})
	defer close(release)
	srv.hookBeforeJob = func() { <-release }

	req := httptest.NewRequest(http.MethodPost, "/v1/run?timeout_ms=25", strings.NewReader(runDoc))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "deadline") {
		t.Errorf("body = %s, want deadline error", w.Body)
	}
}

// TestSummarySweepDeadlineFreesWorker: a /v1/scenario document without
// sources sweeps every node on the request's worker; when its deadline
// passes, the request answers 504 and the sweep stops, so the only
// worker is free for the next request instead of finishing the sweep.
func TestSummarySweepDeadlineFreesWorker(t *testing.T) {
	srv := New(Config{Workers: 1, SweepWorkers: 1})
	w := post(srv, "/v1/scenario?timeout_ms=20", `{"topology": {"kind": "2d4", "m": 48, "n": 48}}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body)
	}
	waitFor(t, "the summary sweep to stop", func() bool { return srv.metrics.sweepPending.Load() == 0 })
	doc := `{"topology": {"kind": "2d4", "m": 8, "n": 8}, "sources": [{"x": 5, "y": 5}]}`
	if w := post(srv, "/v1/run?timeout_ms=5000", doc); w.Code != http.StatusOK {
		t.Errorf("next request on the freed worker: status = %d, want 200; body %s", w.Code, w.Body)
	}
}

func TestInvalidTimeoutParam(t *testing.T) {
	srv := New(Config{})
	for _, v := range []string{"abc", "-5", "0"} {
		req := httptest.NewRequest(http.MethodPost, "/v1/run?timeout_ms="+v, strings.NewReader(runDoc))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("timeout_ms=%s: status = %d, want 400", v, w.Code)
		}
	}
}

func TestBadRequests(t *testing.T) {
	srv := New(Config{})
	cases := []struct {
		name, path, body, want string
	}{
		{"malformed json", "/v1/run", `{"topology": {`, "scenario"},
		{"unknown field", "/v1/run", `{"topolgy": {"kind": "2d4", "m": 4, "n": 4}}`, "unknown field"},
		{"unknown topology", "/v1/run", `{"topology": {"kind": "hex", "m": 4, "n": 4}, "sources": [{"x": 1, "y": 1}]}`, "unknown topology"},
		{"unknown protocol", "/v1/run", `{"topology": {"kind": "2d4", "m": 4, "n": 4}, "protocol": "gossip", "sources": [{"x": 1, "y": 1}]}`, "unknown protocol"},
		{"run without source", "/v1/run", `{"topology": {"kind": "2d4", "m": 4, "n": 4}}`, "exactly one source"},
		{"run with pipeline", "/v1/run", `{"topology": {"kind": "2d4", "m": 4, "n": 4}, "sources": [{"x": 1, "y": 1}], "pipeline": {"packets": 3}}`, "/v1/scenario"},
		{"sweep with sources", "/v1/sweep", `{"topology": {"kind": "2d4", "m": 4, "n": 4}, "sources": [{"x": 1, "y": 1}]}`, "every node"},
		{"source outside mesh", "/v1/run", `{"topology": {"kind": "2d4", "m": 4, "n": 4}, "sources": [{"x": 40, "y": 1}]}`, "outside"},
		{"paper on irregular", "/v1/run", `{"topology": {"kind": "irregular", "m": 4, "n": 4, "radius": 1.2}, "sources": [{"x": 1, "y": 1}]}`, "regular"},
	}
	for _, tc := range cases {
		w := post(srv, tc.path, tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400; body %s", tc.name, w.Code, w.Body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Errorf("%s: non-JSON error body %s", tc.name, w.Body)
			continue
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error %q, want it to mention %q", tc.name, e.Error, tc.want)
		}
	}
}

func TestOversizedBody413(t *testing.T) {
	srv := New(Config{MaxBodyBytes: 128})
	big := `{"name": "` + strings.Repeat("x", 256) + `", "topology": {"kind": "2d4", "m": 4, "n": 4}, "sources": [{"x": 1, "y": 1}]}`
	w := post(srv, "/v1/run", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "body exceeds") {
		t.Errorf("body = %s", w.Body)
	}
}

func TestOversizedMesh413(t *testing.T) {
	srv := New(Config{MaxNodes: 100})
	w := post(srv, "/v1/run", `{"topology": {"kind": "2d4", "m": 50, "n": 50}, "sources": [{"x": 1, "y": 1}]}`)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "mesh too large") {
		t.Errorf("body = %s", w.Body)
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	srv := New(Config{})
	if w := get(srv, "/v1/run"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run: status = %d, want 405", w.Code)
	}
	if w := post(srv, "/v1/nope", runDoc); w.Code != http.StatusNotFound {
		t.Errorf("POST /v1/nope: status = %d, want 404", w.Code)
	}
}

func TestSweepEndpointMatchesAnalysis(t *testing.T) {
	srv := New(Config{})
	w := post(srv, "/v1/sweep", `{"topology": {"kind": "2d4", "m": 6, "n": 4}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var rep scenario.Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 24 {
		t.Fatalf("runs = %d, want 24 (one per source)", len(rep.Runs))
	}
	topo := grid.NewMesh2D4(6, 4)
	sum, err := analysis.Sweep(topo, core.ForTopology(grid.Mesh2D4), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestEnergyJ != sum.Best.EnergyJ || rep.WorstEnergyJ != sum.Worst.EnergyJ || rep.MaxDelay != sum.MaxDelay {
		t.Errorf("summary best=%g worst=%g delay=%d, analysis says best=%g worst=%g delay=%d",
			rep.BestEnergyJ, rep.WorstEnergyJ, rep.MaxDelay,
			sum.Best.EnergyJ, sum.Worst.EnergyJ, sum.MaxDelay)
	}
	// Row order is the dense source order of the topology.
	for i, r := range rep.Runs {
		src := topo.At(i)
		if r.Source.X != src.X || r.Source.Y != src.Y {
			t.Fatalf("run %d source = %+v, want %s", i, r.Source, src)
		}
	}
	if got := srv.metrics.sweepPending.Load(); got != 0 {
		t.Errorf("sweep_pending = %d after sweep, want 0", got)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv := New(Config{})
	if w := get(srv, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Errorf("healthz: %d %s", w.Code, w.Body)
	}
	post(srv, "/v1/run", runDoc)
	post(srv, "/v1/run", runDoc) // cache hit
	post(srv, "/v1/run", `{"topology": {`)

	w := get(srv, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	var snap snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests["run"]["200"] != 2 || snap.Requests["run"]["400"] != 1 {
		t.Errorf("run requests = %v, want 200:2 400:1", snap.Requests["run"])
	}
	if snap.Requests["healthz"]["200"] != 1 {
		t.Errorf("healthz requests = %v", snap.Requests["healthz"])
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
	if snap.CacheEntries != 1 || snap.CacheBytes <= 0 {
		t.Errorf("cache entries/bytes = %d/%d", snap.CacheEntries, snap.CacheBytes)
	}
	if snap.Executions != 1 {
		t.Errorf("executions = %d, want 1", snap.Executions)
	}
	// The /metrics request itself is the only one in flight.
	if snap.InFlight != 1 {
		t.Errorf("in_flight = %d, want 1 (the /metrics request)", snap.InFlight)
	}
	if snap.QueueDepth != 0 {
		t.Errorf("queue_depth = %d, want 0", snap.QueueDepth)
	}
	// Every finished request landed in exactly one latency bucket.
	var observed uint64
	for _, b := range snap.Latency {
		observed += b.Count
	}
	var counted uint64
	for _, byStatus := range snap.Requests {
		for _, n := range byStatus {
			counted += n
		}
	}
	if observed != counted {
		t.Errorf("latency histogram holds %d requests, counters hold %d", observed, counted)
	}
}

func TestGracefulDrain(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 2})
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	srv.hookBeforeJob = func() {
		entered <- struct{}{}
		<-release
	}

	var inFlight *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); inFlight = post(srv, "/v1/run", runDoc) }()
	<-entered // the request is now executing

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- srv.Drain(ctx)
	}()
	// Once /healthz reports draining, admission is closed.
	waitFor(t, "healthz to report draining", func() bool {
		return get(srv, "/healthz").Code == http.StatusServiceUnavailable
	})
	if w := post(srv, "/v1/run", `{"topology": {"kind": "2d4", "m": 8, "n": 8}, "sources": [{"x": 5, "y": 5}]}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status = %d, want 503; body %s", w.Code, w.Body)
	}
	select {
	case err := <-drainErr:
		t.Fatalf("Drain returned %v while a job was still running", err)
	default:
	}

	close(release)
	wg.Wait()
	if inFlight.Code != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", inFlight.Code)
	}
	if err := <-drainErr; err != nil {
		t.Errorf("Drain = %v, want nil", err)
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	srv := New(Config{AccessLog: &buf})
	post(srv, "/v1/run", runDoc)
	post(srv, "/v1/run", runDoc)
	get(srv, "/healthz")

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var entry struct {
		Time   string  `json:"time"`
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		DurMs  float64 `json:"dur_ms"`
		Bytes  int     `json:"bytes"`
		Cache  string  `json:"cache"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatalf("line %q: %v", lines[1], err)
	}
	if entry.Method != "POST" || entry.Path != "/v1/run" || entry.Status != 200 {
		t.Errorf("entry = %+v", entry)
	}
	if entry.Cache != "hit" {
		t.Errorf("second request logged cache %q, want hit", entry.Cache)
	}
	if entry.Bytes <= 0 || entry.Time == "" {
		t.Errorf("entry = %+v, want bytes and time", entry)
	}
}

func TestScenarioEndpointFullDocument(t *testing.T) {
	srv := New(Config{})
	doc := `{
		"name": "full",
		"topology": {"kind": "2d4", "m": 8, "n": 8},
		"sources": [{"x": 4, "y": 4}],
		"pipeline": {"packets": 3},
		"budget_j": 2.0,
		"convergecast": true
	}`
	w := post(srv, "/v1/scenario", doc)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var rep scenario.Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.PipelineDelivered || rep.LifetimeRounds < 1 || rep.ConvergeSlots < 1 {
		t.Errorf("report = %+v, want pipeline, lifetime and convergecast results", rep)
	}
}

const reliabilityDoc = `{
	"topology": {"kind": "2d4", "m": 8, "n": 6},
	"sources": [{"x": 4, "y": 3}],
	"disable_repair": true,
	"reliability": {"seed": 9, "replications": 8, "loss_rates": [0, 0.2]}
}`

// /v1/run exposes Monte Carlo reliability studies: the response carries
// the aggregated points, and canonicalization makes equivalent grids
// (reordered, duplicated rates) hit the same cache entry.
func TestRunEndpointReliability(t *testing.T) {
	srv := New(Config{})
	w := post(srv, "/v1/run", reliabilityDoc)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var rep scenario.Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Reliability) != 2 {
		t.Fatalf("reliability points = %d, want 2", len(rep.Reliability))
	}
	if rep.Reliability[0].Reachability.Mean != 1 {
		t.Errorf("lossless point: %+v", rep.Reliability[0])
	}
	if rep.Reliability[1].Reachability.Mean >= 1 {
		t.Errorf("20%% loss did not degrade reachability: %+v", rep.Reliability[1])
	}
	// Byte-different but equivalent study: duplicated + reordered rates.
	equiv := strings.Replace(reliabilityDoc, `[0, 0.2]`, `[0.2, 0, 0.2]`, 1)
	w2 := post(srv, "/v1/run", equiv)
	if w2.Code != http.StatusOK {
		t.Fatalf("equivalent doc status = %d", w2.Code)
	}
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("equivalent reliability doc X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("cached reliability body differs")
	}
}

func TestSweepEndpointRejectsReliability(t *testing.T) {
	srv := New(Config{})
	doc := `{"topology": {"kind": "2d4", "m": 4, "n": 4}, "reliability": {"replications": 2}}`
	w := post(srv, "/v1/sweep", doc)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "reliability") {
		t.Errorf("body %s does not name the offending section", w.Body)
	}
}

// A misspelled field answers 400 with the field name and a suggestion —
// it must not silently canonicalize into a cache hit for the default
// configuration.
func TestUnknownFieldAnswers400WithHint(t *testing.T) {
	srv := New(Config{})
	doc := `{"topology": {"kind": "2d4", "m": 8, "n": 8}, "sources": [{"x": 3, "y": 3}], "lossrate": 0.1}`
	w := post(srv, "/v1/run", doc)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "lossrate") || !strings.Contains(w.Body.String(), "loss_rates") {
		t.Errorf("body %s missing field name or suggestion", w.Body)
	}
	// The well-formed document must still be a cold miss afterwards:
	// nothing about the typo run may have polluted the cache.
	w2 := post(srv, "/v1/run", runDoc)
	if got := w2.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first clean request X-Cache = %q, want miss", got)
	}
}

func TestReliabilityStudySizeCap(t *testing.T) {
	srv := New(Config{MaxReliabilityJobs: 10})
	doc := `{
		"topology": {"kind": "2d4", "m": 4, "n": 4},
		"sources": [{"x": 1, "y": 1}],
		"reliability": {"replications": 6, "loss_rates": [0, 0.1]}
	}`
	w := post(srv, "/v1/run", doc)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %s", w.Code, w.Body)
	}
	small := strings.Replace(doc, `"replications": 6`, `"replications": 5`, 1)
	if w := post(srv, "/v1/run", small); w.Code != http.StatusOK {
		t.Fatalf("10-job study status = %d, body %s", w.Code, w.Body)
	}
}
