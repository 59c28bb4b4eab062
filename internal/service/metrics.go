package service

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wsnbcast/internal/jobs"
	"wsnbcast/internal/store"
)

// latencyBoundsMs are the histogram bucket upper bounds in
// milliseconds; a request slower than the last bound lands in the
// +Inf bucket.
var latencyBoundsMs = []int64{1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// metrics is the service's hand-rolled instrumentation: request
// counts by endpoint and status, cache hit/miss counters, an
// in-flight gauge, a pending-sweep-jobs gauge (fed by the sweep
// engine), an executions counter (jobs that actually ran a
// simulation, as opposed to being served from cache or joined in
// flight) and a cumulative latency histogram. Everything is atomic or
// mutex-guarded; Snapshot returns a consistent JSON-ready copy.
type metrics struct {
	mu       sync.Mutex
	requests map[string]map[int]uint64
	latency  []atomic.Uint64 // len(latencyBoundsMs)+1, last = +Inf

	cacheHits    atomic.Uint64
	cacheMisses  atomic.Uint64
	inFlight     atomic.Int64
	executions   atomic.Uint64
	shed         atomic.Uint64
	sweepPending atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]map[int]uint64),
		latency:  make([]atomic.Uint64, len(latencyBoundsMs)+1),
	}
}

// ObserveRequest records one finished HTTP request.
func (m *metrics) ObserveRequest(endpoint string, status int, d time.Duration) {
	m.mu.Lock()
	byStatus := m.requests[endpoint]
	if byStatus == nil {
		byStatus = make(map[int]uint64)
		m.requests[endpoint] = byStatus
	}
	byStatus[status]++
	m.mu.Unlock()

	ms := d.Milliseconds()
	bucket := len(latencyBoundsMs)
	for i, le := range latencyBoundsMs {
		if ms <= le {
			bucket = i
			break
		}
	}
	m.latency[bucket].Add(1)
}

// pendingGauge adapts the pending-jobs counter to sweep.Gauge.
type pendingGauge struct{ n *atomic.Int64 }

func (g pendingGauge) Add(delta int64) { g.n.Add(delta) }

// SweepGauge returns the sweep.Gauge fed by the synchronous endpoints'
// plan runs: their points queued or running.
func (m *metrics) SweepGauge() pendingGauge { return pendingGauge{&m.sweepPending} }

// latencyBucket is one histogram cell of the /metrics document.
type latencyBucket struct {
	LE    string `json:"le_ms"`
	Count uint64 `json:"count"`
}

// snapshot is the JSON document served at /metrics.
type snapshot struct {
	Requests       map[string]map[string]uint64 `json:"requests"`
	CacheHits      uint64                       `json:"cache_hits"`
	CacheMisses    uint64                       `json:"cache_misses"`
	CacheEntries   int                          `json:"cache_entries"`
	CacheBytes     int64                        `json:"cache_bytes"`
	CacheEvictions uint64                       `json:"cache_evictions"`
	InFlight       int64                        `json:"in_flight"`
	QueueDepth     int                          `json:"queue_depth"`
	SweepPending   int64                        `json:"sweep_pending"`
	Executions     uint64                       `json:"executions"`
	Shed           uint64                       `json:"shed"`
	// Store holds the durable result store's counters when one is
	// configured; Jobs holds the async job subsystem's counters and
	// gauges.
	Store   *store.Stats    `json:"store,omitempty"`
	Jobs    *jobs.Stats     `json:"jobs,omitempty"`
	Latency []latencyBucket `json:"latency_ms"`
}

// Snapshot copies the counters; queue depth and cache sizing are the
// caller's to fill (they live in the pool and the cache).
func (m *metrics) Snapshot() snapshot {
	s := snapshot{
		Requests:     make(map[string]map[string]uint64),
		CacheHits:    m.cacheHits.Load(),
		CacheMisses:  m.cacheMisses.Load(),
		InFlight:     m.inFlight.Load(),
		SweepPending: m.sweepPending.Load(),
		Executions:   m.executions.Load(),
		Shed:         m.shed.Load(),
	}
	m.mu.Lock()
	for ep, byStatus := range m.requests {
		out := make(map[string]uint64, len(byStatus))
		for status, n := range byStatus {
			out[strconv.Itoa(status)] = n
		}
		s.Requests[ep] = out
	}
	m.mu.Unlock()
	s.Latency = make([]latencyBucket, len(m.latency))
	for i := range m.latency {
		le := "inf"
		if i < len(latencyBoundsMs) {
			le = strconv.FormatInt(latencyBoundsMs[i], 10)
		}
		s.Latency[i] = latencyBucket{LE: le, Count: m.latency[i].Load()}
	}
	return s
}
