// Package service is the HTTP serving layer over the simulator: a
// deterministic-simulation service with result caching, admission
// control and metrics, built to serve many clients from one process.
//
// Four POST endpoints accept the declarative scenario JSON of
// internal/scenario as their wire format, and each runs the document as
// a scenario.Plan of its kind (the plan /v1/jobs runs point by point):
//
//   - /v1/run — a single broadcast (exactly one source), optionally
//     with a Monte Carlo reliability study (a "reliability" section:
//     seeded replications under packet loss and node failures,
//     aggregated into confidence-interval curves by internal/mc)
//   - /v1/scenario — a full scenario document (pipelining, failures,
//     lifetime, convergecast)
//   - /v1/sweep — an all-sources sweep on the parallel sweep engine,
//     one row per source plus the paper's best/worst/max-delay summary
//   - /v1/lifetime — a multi-round lifetime study (internal/life), one
//     cell per (strategy, churn rate, replication)
//
// Because every simulation is a pure function of its canonicalized
// request, responses are perfectly cacheable: requests are normalized
// (scenario.Canonical) and hashed, byte-different but semantically
// identical documents map to one cache key, and a size-bounded LRU
// serves repeats without simulating. Concurrent identical requests are
// deduplicated in flight — a burst of N equal requests costs exactly
// one execution. Admission control bounds the work accepted: jobs run
// on a fixed worker pool behind a bounded queue, a full queue sheds
// load with 429 + Retry-After, request deadlines propagate through
// context into the simulation layers, and Drain stops admission and
// waits for in-flight work during graceful shutdown. /healthz and
// /metrics expose liveness and the counters in metrics.go; every
// request is access-logged as one JSON line.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsnbcast/internal/jobs"
	"wsnbcast/internal/scenario"
	"wsnbcast/internal/store"
)

// Config sizes the service; zero values mean the stated defaults.
type Config struct {
	// Workers is the simulation worker pool size (<= 0: GOMAXPROCS).
	Workers int
	// QueueCap is the bounded job queue in front of the pool; a job
	// arriving to a full queue is shed with 429. 0 means 64; negative
	// means no queue (admit only onto an idle worker).
	QueueCap int
	// CacheEntries bounds the result cache (0: 1024; negative:
	// caching disabled). CacheBytes bounds the cached body bytes
	// (<= 0: 64 MiB).
	CacheEntries int
	CacheBytes   int64
	// DefaultTimeout is the per-request deadline when the client sets
	// none (0: 30s); a client may lower or raise it with ?timeout_ms=
	// up to MaxTimeout (0: 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps the request body (<= 0: 1 MiB) and MaxNodes
	// caps the requested mesh size (<= 0: 131072 nodes); both reject
	// with 413.
	MaxBodyBytes int64
	MaxNodes     int
	// MaxReliabilityJobs caps the total simulation jobs one reliability
	// study may request — replications x loss rates x failure rates
	// (<= 0: 65536); larger studies reject with 413.
	MaxReliabilityJobs int
	// MaxLifetimeRounds caps the total broadcast rounds one lifetime
	// study may request — cells x max_rounds (<= 0: 4194304); larger
	// studies reject with 413.
	MaxLifetimeRounds int
	// SweepWorkers sizes the per-request worker pool every synchronous
	// miss runs its plan on: /v1/sweep's sources, /v1/run and
	// /v1/scenario's reliability points, /v1/lifetime's cells
	// (<= 0: GOMAXPROCS).
	SweepWorkers int
	// Store, when non-nil, is the durable content-addressed result
	// store: an L2 behind the LRU shared by every instance pointed at
	// the same directory, and the durability layer of the job
	// subsystem. The server owns it from here — Drain closes it last.
	Store *store.Store
	// Jobs, when non-nil, is the async job manager behind /v1/jobs.
	// Nil constructs one over Store with JobWorkers worker loops.
	// Either way the server owns it: Drain checkpoints and closes it.
	Jobs *jobs.Manager
	// JobWorkers sizes the constructed job manager's worker loops
	// (<= 0: GOMAXPROCS); ignored when Jobs is supplied.
	JobWorkers int
	// AccessLog, when non-nil, receives one JSON line per request.
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 17
	}
	if c.MaxReliabilityJobs <= 0 {
		c.MaxReliabilityJobs = 1 << 16
	}
	if c.MaxLifetimeRounds <= 0 {
		c.MaxLifetimeRounds = 1 << 22
	}
	return c
}

// Server is the HTTP simulation service. Construct with New; it
// implements http.Handler and is safe for concurrent use.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *cache
	flight   flightGroup
	pool     *pool
	jobs     *jobs.Manager
	metrics  *metrics
	draining atomic.Bool
	logMu    sync.Mutex

	// hookBeforeJob, when non-nil, runs inside the worker at the start
	// of every admitted job. Tests use it to hold jobs in flight.
	hookBeforeJob func()
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   newCache(cfg.CacheEntries, cfg.CacheBytes),
		pool:    newPool(cfg.Workers, cfg.QueueCap),
		metrics: newMetrics(),
	}
	s.jobs = cfg.Jobs
	if s.jobs == nil {
		s.jobs = jobs.NewManager(jobs.Config{Store: cfg.Store, Workers: cfg.JobWorkers})
	}
	s.mux.HandleFunc("POST /v1/run", s.handleSim(scenario.KindRun, prepRun))
	s.mux.HandleFunc("POST /v1/scenario", s.handleSim(scenario.KindScenario, prepScenario))
	s.mux.HandleFunc("POST /v1/sweep", s.handleSim(scenario.KindSweep, prepSweep))
	s.mux.HandleFunc("POST /v1/lifetime", s.handleSim(scenario.KindLifetime, prepLifetime))
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Drain stops admitting jobs, marks the server unhealthy — subsequent
// simulation requests answer 503, /healthz reports draining — and
// waits for every admitted job to finish or for ctx to expire. Call
// it during graceful shutdown, after http.Server.Shutdown has stopped
// accepting connections. Once /healthz reports draining, admission is
// guaranteed closed.
//
// The shutdown order is: close pool admission, mark draining, stop
// the job subsystem (its in-flight points drain to the store and
// every unfinished job is checkpointed for the next process's
// Recover), await the request pool, and only then close the store —
// nothing writes to it after both the job workers and the pool are
// idle.
func (s *Server) Drain(ctx context.Context) error {
	s.pool.CloseAdmission()
	s.draining.Store(true)
	jerr := s.jobs.Close(ctx)
	perr := s.pool.AwaitIdle(ctx)
	var serr error
	if s.cfg.Store != nil {
		serr = s.cfg.Store.Close()
	}
	return errors.Join(jerr, perr, serr)
}

// ServeHTTP dispatches to the endpoint handlers, wrapped in the
// in-flight gauge, the per-endpoint request counters, the latency
// histogram and the access log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.metrics.inFlight.Add(1)
	rec := &responseRecorder{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(rec, r)
	s.metrics.inFlight.Add(-1)
	elapsed := time.Since(start)
	s.metrics.ObserveRequest(endpointLabel(r.URL.Path), rec.status, elapsed)
	s.logAccess(r, rec, elapsed)
}

func endpointLabel(path string) string {
	switch path {
	case "/v1/run":
		return "run"
	case "/v1/scenario":
		return "scenario"
	case "/v1/sweep":
		return "sweep"
	case "/v1/lifetime":
		return "lifetime"
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	default:
		if path == "/v1/jobs" || strings.HasPrefix(path, "/v1/jobs/") {
			return "jobs"
		}
		return "other"
	}
}

// responseRecorder captures the status and body size for metrics and
// the access log.
type responseRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *responseRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *responseRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// Unwrap exposes the wrapped writer to http.ResponseController, so
// streaming handlers can flush through the middleware.
func (r *responseRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (s *Server) logAccess(r *http.Request, rec *responseRecorder, elapsed time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	line, err := json.Marshal(struct {
		Time   string  `json:"time"`
		Method string  `json:"method"`
		Path   string  `json:"path"`
		Status int     `json:"status"`
		DurMs  float64 `json:"dur_ms"`
		Bytes  int     `json:"bytes"`
		Cache  string  `json:"cache,omitempty"`
	}{
		Time:   time.Now().UTC().Format(time.RFC3339Nano),
		Method: r.Method,
		Path:   r.URL.Path,
		Status: rec.status,
		DurMs:  float64(elapsed.Microseconds()) / 1000,
		Bytes:  rec.bytes,
		Cache:  rec.Header().Get("X-Cache"),
	})
	if err != nil {
		return
	}
	s.logMu.Lock()
	s.cfg.AccessLog.Write(append(line, '\n'))
	s.logMu.Unlock()
}

// prep functions enforce each endpoint's request shape on the
// canonicalized scenario before any simulation work is admitted.
func prepRun(sc scenario.Scenario) error {
	if len(sc.Sources) != 1 {
		return fmt.Errorf("POST /v1/run needs exactly one source (got %d); use /v1/sweep for all-sources sweeps", len(sc.Sources))
	}
	if sc.Pipeline != nil || sc.BudgetJ > 0 || sc.Convergecast {
		return errors.New("POST /v1/run is a single broadcast; use /v1/scenario for pipeline, budget or convergecast runs")
	}
	if sc.Lifetime != nil {
		return errors.New("POST /v1/run is a single broadcast; run lifetime studies through /v1/lifetime")
	}
	return nil
}

func prepScenario(sc scenario.Scenario) error {
	if sc.Lifetime != nil {
		return errors.New("POST /v1/scenario runs single-shot documents; run lifetime studies through /v1/lifetime")
	}
	return nil
}

func prepSweep(sc scenario.Scenario) error {
	if len(sc.Sources) != 0 {
		return fmt.Errorf("POST /v1/sweep broadcasts from every node; drop the %d explicit sources or use /v1/run", len(sc.Sources))
	}
	if sc.Pipeline != nil || sc.BudgetJ > 0 || sc.Convergecast {
		return errors.New("POST /v1/sweep is a plain all-sources sweep; use /v1/scenario for pipeline, budget or convergecast runs")
	}
	if sc.Reliability != nil {
		return errors.New("POST /v1/sweep is deterministic; run reliability studies through /v1/run or /v1/scenario")
	}
	if sc.Lifetime != nil {
		return errors.New("POST /v1/sweep is a plain all-sources sweep; run lifetime studies through /v1/lifetime")
	}
	return nil
}

func prepLifetime(sc scenario.Scenario) error {
	if sc.Lifetime == nil {
		return errors.New(`POST /v1/lifetime needs a "lifetime" section; single-shot documents go to /v1/run or /v1/scenario`)
	}
	return nil
}

// handleSim is the shared request path of the simulation endpoints:
// decode and canonicalize, check the request shape, consult the LRU,
// enforce the limits while compiling the kind's plan, consult the
// store, deduplicate in flight, admit to the pool, run the plan, cache,
// respond. The LRU answers before checkLimits compiles the document:
// every entry in it was computed by this process after passing the same
// limits, so a hit never rebuilds the topology, and a miss compiles
// exactly once.
func (s *Server) handleSim(kind string, prep func(scenario.Scenario) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		sc, err := scenario.Load(r.Body)
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				s.fail(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
				return
			}
			s.fail(w, http.StatusBadRequest, err.Error())
			return
		}
		sc = sc.Canonical()
		if err := prep(sc); err != nil {
			s.fail(w, http.StatusBadRequest, err.Error())
			return
		}
		timeout, err := s.requestTimeout(r)
		if err != nil {
			s.fail(w, http.StatusBadRequest, err.Error())
			return
		}

		key, err := requestKey(kind, sc)
		if err != nil {
			s.fail(w, http.StatusInternalServerError, err.Error())
			return
		}
		if body, ok := s.cache.Get(key); ok {
			s.metrics.cacheHits.Add(1)
			s.writeBody(w, "hit", body)
			return
		}
		pl, status, msg := s.checkLimits(kind, sc)
		if status != 0 {
			s.fail(w, status, msg)
			return
		}
		s.metrics.cacheMisses.Add(1)
		// The durable store is the L2 behind the LRU: results computed
		// by a previous process, a finished /v1/jobs job, or another
		// instance sharing the directory serve without simulating.
		if s.cfg.Store != nil {
			if body, ok := s.cfg.Store.Get(key); ok {
				s.cache.Put(key, body)
				s.writeBody(w, "store", body)
				return
			}
		}

		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		body, joined, err := s.flight.Do(ctx, key, func() ([]byte, error) {
			// Re-check the cache as the flight leader: a request that
			// missed the cache just before a previous leader for the
			// same key stored its result must not simulate again.
			if body, ok := s.cache.Get(key); ok {
				return body, nil
			}
			if s.cfg.Store != nil {
				if body, ok := s.cfg.Store.Get(key); ok {
					return body, nil
				}
			}
			return s.pool.Do(ctx, func(ctx context.Context) ([]byte, error) {
				if s.hookBeforeJob != nil {
					s.hookBeforeJob()
				}
				s.metrics.executions.Add(1)
				rep, err := pl.Run(ctx, s.cfg.SweepWorkers, s.metrics.SweepGauge())
				if err != nil {
					return nil, err
				}
				return store.EncodeBody(rep)
			})
		})
		if err != nil {
			s.failJob(w, err)
			return
		}
		if !joined {
			s.cache.Put(key, body)
			if s.cfg.Store != nil {
				// Write-through; a full or failing disk degrades the
				// store to a cache layer, never the response.
				s.cfg.Store.Put(key, body)
			}
		}
		s.writeBody(w, "miss", body)
	}
}

// checkLimits enforces the size caps shared by the synchronous
// endpoints and job submission on a canonicalized scenario, and
// compiles the kind's plan. It returns the plan for an admissible
// document, else the HTTP status and message to reject with.
func (s *Server) checkLimits(kind string, sc scenario.Scenario) (*scenario.Plan, int, string) {
	// The node cap applies to the document's dimensions, before Compile
	// builds anything: an irregular mesh materializes its whole
	// adjacency at construction. The scenario is canonical, so L is
	// zero on every kind but 3D-6. Non-positive dimensions pass here
	// and fail Compile's validation with a 400.
	t, l := sc.Topology, max(sc.Topology.L, 1)
	if t.M > 0 && t.N > 0 && !withinLimit(s.cfg.MaxNodes, t.M, t.N, l) {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("mesh too large: %d x %d x %d nodes (limit %d)", t.M, t.N, l, s.cfg.MaxNodes)
	}
	pl, err := scenario.NewPlan(kind, sc)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	if rel := sc.Reliability; rel != nil {
		// The grids are canonical here, so the product is the exact
		// number of simulation jobs the study would admit.
		if !withinLimit(s.cfg.MaxReliabilityJobs, rel.Replications, len(rel.LossRates), len(rel.FailureRates)) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("reliability study too large: %d replications x %d loss rates x %d failure rates (limit %d simulation jobs)",
					rel.Replications, len(rel.LossRates), len(rel.FailureRates), s.cfg.MaxReliabilityJobs)
		}
	}
	if sc.Lifetime != nil {
		// Every lifetime round is one full broadcast, so cells x
		// max_rounds is the study's worst-case simulation count.
		if !withinLimit(s.cfg.MaxLifetimeRounds, pl.Points(), pl.RoundBound()) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("lifetime study too large: %d cells x %d rounds (limit %d broadcasts)",
					pl.Points(), pl.RoundBound(), s.cfg.MaxLifetimeRounds)
		}
	}
	return pl, 0, ""
}

// withinLimit reports whether the product of non-negative factors is
// at most limit. It divides the limit by each factor rather than
// multiplying the factors, so no product can wrap past the limit; a
// negative factor fails closed.
func withinLimit(limit int, factors ...int) bool {
	for _, f := range factors {
		if f <= 0 {
			return f == 0
		}
		limit /= f
	}
	return limit >= 1
}

// requestTimeout resolves the per-request deadline: ?timeout_ms=
// overrides the default, clamped to MaxTimeout.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	d := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			return 0, fmt.Errorf("invalid timeout_ms %q: need a positive integer", v)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// requestKey is the cache/singleflight identity of a canonicalized
// request: the endpoint (the three endpoints answer different shapes)
// plus the SHA-256 of the canonical JSON encoding. It delegates to
// store.Key so the synchronous path, the durable store and the job
// subsystem share one identity — a finished job IS a cache entry for
// the equivalent synchronous request.
func requestKey(endpoint string, sc scenario.Scenario) (string, error) {
	return store.Key(endpoint, sc)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.Snapshot()
	snap.QueueDepth = s.pool.QueueDepth()
	snap.CacheEntries = s.cache.Len()
	snap.CacheBytes = s.cache.Bytes()
	snap.CacheEvictions = s.cache.Evictions()
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		snap.Store = &st
	}
	js := s.jobs.Stats()
	snap.Jobs = &js
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}

func (s *Server) writeBody(w http.ResponseWriter, cacheState string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheState)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// failJob maps an admission or execution failure to its HTTP status:
// shed load answers 429 with a Retry-After hint, a draining server
// 503, an expired deadline 504; anything else is a genuine execution
// failure, 500.
func (s *Server) failJob(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errQueueFull):
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, "server overloaded: job queue full")
	case errors.Is(err, errDraining):
		s.fail(w, http.StatusServiceUnavailable, "server draining")
	case errors.Is(err, context.DeadlineExceeded):
		s.fail(w, http.StatusGatewayTimeout, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		s.fail(w, http.StatusGatewayTimeout, "request cancelled")
	default:
		s.fail(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{Error: msg})
	w.Write(append(body, '\n'))
}
