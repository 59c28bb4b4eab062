package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"
)

// The client calls the server's ServeHTTP in process: one closed-loop
// caller, no sockets, so the measured time is the service's own.

// call serves one request and returns the recorded response.
func call(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// sseEvent is one Server-Sent Event with the time its write arrived.
type sseEvent struct {
	Type string
	At   time.Time
}

// sseWriter is a ResponseWriter that splits the job event stream into
// timestamped events as the handler writes them.
type sseWriter struct {
	header http.Header
	status int
	buf    []byte
	events []sseEvent
}

func (w *sseWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *sseWriter) WriteHeader(status int) { w.status = status }

func (w *sseWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	now := time.Now()
	w.buf = append(w.buf, b...)
	for {
		i := bytes.Index(w.buf, []byte("\n\n"))
		if i < 0 {
			return len(b), nil
		}
		w.events = append(w.events, parseSSE(w.buf[:i], now))
		w.buf = w.buf[i+2:]
	}
}

func parseSSE(frame []byte, at time.Time) sseEvent {
	e := sseEvent{At: at}
	for _, line := range bytes.Split(frame, []byte("\n")) {
		if t, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			e.Type = string(t)
		}
	}
	return e
}

// jobTrip is the timeline of one job: submit, the event stream, and the
// result read.
type jobTrip struct {
	start, submitted, streamed, end time.Time
	state                           string // state the submit answered with
	events                          []sseEvent
	body                            []byte
	resultCache                     string
}

// runJob submits a job, follows its /events stream to the terminal
// event (the stream blocks until then, so there is no polling), and
// reads /result.
func runJob(h http.Handler, body []byte) (jobTrip, error) {
	tr := jobTrip{start: time.Now()}
	rec := call(h, http.MethodPost, "/v1/jobs", body)
	tr.submitted = time.Now()
	if rec.Code != http.StatusAccepted {
		return tr, fmt.Errorf("submit: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.ID == "" {
		return tr, fmt.Errorf("submit: bad status document: %v", err)
	}
	tr.state = st.State
	sw := &sseWriter{}
	h.ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/events", nil))
	tr.streamed = time.Now()
	tr.events = sw.events
	if sw.status != http.StatusOK {
		return tr, fmt.Errorf("events: status %d", sw.status)
	}
	if n := len(sw.events); n == 0 || sw.events[n-1].Type != "done" {
		return tr, fmt.Errorf("events: stream did not end with done (%d events)", n)
	}
	res := call(h, http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil)
	tr.end = time.Now()
	if res.Code != http.StatusOK {
		return tr, fmt.Errorf("result: status %d", res.Code)
	}
	tr.body = res.Body.Bytes()
	tr.resultCache = res.Header().Get("X-Cache")
	return tr, nil
}

// metricsDoc is the part of GET /metrics the benchmark reads. The
// lifetime delta counters are optional: a build without them reports
// them as absent.
type metricsDoc struct {
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	DeltaHits   *uint64 `json:"life_delta_hits"`
	DeltaFalls  *uint64 `json:"life_delta_fallbacks"`
	Store       *struct {
		Puts  uint64 `json:"puts"`
		Bytes int64  `json:"bytes"`
	} `json:"store"`
	Jobs *struct {
		Retries uint64 `json:"retries"`
	} `json:"jobs"`
}

func readMetrics(h http.Handler) (metricsDoc, error) {
	var m metricsDoc
	rec := call(h, http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	return m, json.Unmarshal(rec.Body.Bytes(), &m)
}
