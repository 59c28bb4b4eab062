// Command wsnserved serves the simulator over HTTP: single broadcasts,
// full scenario documents and all-sources sweeps, with result caching,
// admission control and metrics (internal/service).
//
// Endpoints (request bodies are internal/scenario JSON documents):
//
//	POST /v1/run       one broadcast (exactly one source)
//	POST /v1/scenario  a full scenario document
//	POST /v1/sweep     broadcast from every node (parallel sweep engine)
//	POST /v1/lifetime  a multi-round lifetime study (battery depletion, churn, rotation)
//	POST /v1/jobs      submit an async job: {"kind": "run|scenario|sweep|lifetime", "scenario": {...}}
//	GET  /v1/jobs/{id}         poll a job (state, done/total points)
//	GET  /v1/jobs/{id}/result  fetch the merged result (byte-identical to POST /v1/{kind})
//	GET  /v1/jobs/{id}/events  stream progress as Server-Sent Events
//	GET  /healthz      liveness (503 while draining)
//	GET  /metrics      JSON counters: requests, cache, store, jobs, queue, latency
//
// Identical requests — byte-different encodings included — are served
// from an LRU result cache, and concurrent identical requests cost one
// simulation. When the bounded job queue is full the server sheds load
// with 429 + Retry-After. A client may set a per-request deadline with
// ?timeout_ms=. On SIGINT/SIGTERM the server drains gracefully: it
// stops accepting work, finishes what was admitted (up to -drain) and
// exits.
//
// Usage:
//
//	wsnserved                        # serve on :8080
//	wsnserved -addr :9000 -workers 4 -queue 128
//	wsnserved -cache-entries 4096 -cache-mb 128
//	wsnserved -timeout 10s -max-nodes 65536 -quiet
//	wsnserved -store /var/lib/wsn/store  # durable results; jobs survive restarts
//	wsnserved -store /var/lib/wsn/store -store-max-bytes 268435456  # cap the store at 256 MiB
//	wsnserved -pprof localhost:6060  # expose net/http/pprof separately
//
// With -store, every computed result is also written to a durable
// content-addressed store in that directory (an L2 behind the in-memory
// LRU, shareable between instances), and /v1/jobs jobs checkpoint
// there: a job interrupted by a shutdown or crash resumes on the next
// start, recomputing only its unfinished grid points. The same
// directory can be handed to wsnmc/wsnsweep via their -store flag.
// With -store-max-bytes, the store's object area is size-capped:
// exceeding the cap evicts the oldest results first (they are caches
// of deterministic computations, so eviction costs at most a
// recomputation); job records are exempt.
//
// The -pprof flag starts a second HTTP listener serving only the
// net/http/pprof handlers (/debug/pprof/...). It is off by default and
// must stay off in production-facing deployments: the profile
// endpoints expose internals and can perturb latency while sampling.
// Bind it to localhost when profiling a live instance.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wsnbcast/internal/jobs"
	"wsnbcast/internal/service"
	"wsnbcast/internal/store"
)

type options struct {
	addr          string
	workers       int
	queue         int
	cacheEntries  int
	cacheMB       int
	timeout       time.Duration
	maxTimeout    time.Duration
	maxBodyKB     int
	maxNodes      int
	sweepWorkers  int
	storeDir      string
	storeMaxBytes int64
	jobWorkers    int
	drain         time.Duration
	quiet         bool
	pprofAddr     string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.IntVar(&o.workers, "workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&o.queue, "queue", 64, "job queue capacity; a full queue sheds load with 429")
	flag.IntVar(&o.cacheEntries, "cache-entries", 1024, "result cache entry bound (negative disables caching)")
	flag.IntVar(&o.cacheMB, "cache-mb", 64, "result cache size bound in MiB")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "default per-request deadline")
	flag.DurationVar(&o.maxTimeout, "max-timeout", 2*time.Minute, "largest deadline a client may request via ?timeout_ms=")
	flag.IntVar(&o.maxBodyKB, "max-body-kb", 1024, "request body limit in KiB")
	flag.IntVar(&o.maxNodes, "max-nodes", 1<<17, "largest mesh (in nodes) a request may ask for")
	flag.IntVar(&o.sweepWorkers, "sweep-workers", 0, "per-request worker pool size of synchronous misses (0 = GOMAXPROCS)")
	flag.StringVar(&o.storeDir, "store", "", "durable content-addressed result store directory (shared across instances; makes /v1/jobs jobs resumable)")
	flag.Int64Var(&o.storeMaxBytes, "store-max-bytes", 0, "store object area size cap in bytes; exceeding it evicts oldest results first (0 = unbounded)")
	flag.IntVar(&o.jobWorkers, "job-workers", 0, "async job worker loops behind /v1/jobs (0 = GOMAXPROCS)")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "graceful shutdown budget after SIGTERM")
	flag.BoolVar(&o.quiet, "quiet", false, "disable the access log")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this extra address (off by default; not for production)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, nil, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wsnserved:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled (the signal handler) or the
// listener fails, then drains gracefully. A nil ln listens on
// opts.addr; tests pass their own listener and cancel ctx instead of
// sending signals.
func run(ctx context.Context, o options, ln net.Listener, logw io.Writer) error {
	if o.workers < 0 {
		return fmt.Errorf("invalid -workers %d: must be >= 0 (0 means GOMAXPROCS)", o.workers)
	}
	if o.sweepWorkers < 0 {
		return fmt.Errorf("invalid -sweep-workers %d: must be >= 0 (0 means GOMAXPROCS)", o.sweepWorkers)
	}
	if o.jobWorkers < 0 {
		return fmt.Errorf("invalid -job-workers %d: must be >= 0 (0 means GOMAXPROCS)", o.jobWorkers)
	}
	var accessLog io.Writer
	if !o.quiet {
		accessLog = logw
	}
	if o.pprofAddr != "" {
		// The profiler gets its own listener and its own mux: the
		// service mux never exposes /debug/pprof, and the explicit
		// handler registration below keeps anything else that may have
		// landed on http.DefaultServeMux off the debug port.
		pln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		psrv := &http.Server{Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
		fmt.Fprintf(logw, "wsnserved: pprof on http://%s/debug/pprof/ (debug listener, do not expose publicly)\n", pln.Addr())
		go psrv.Serve(pln)
		defer psrv.Close()
	}
	// With -store, results and job state are durable: the store fronts
	// the LRU as an L2 shared by every instance pointed at the
	// directory, and jobs interrupted by a previous shutdown or crash
	// resume before the listener opens.
	var st *store.Store
	var mgr *jobs.Manager
	if o.storeDir != "" {
		var err error
		st, err = store.Open(o.storeDir)
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		if o.storeMaxBytes > 0 {
			if err := st.SetMaxBytes(o.storeMaxBytes); err != nil {
				return fmt.Errorf("store size cap: %w", err)
			}
		}
		mgr = jobs.NewManager(jobs.Config{Store: st, Workers: o.jobWorkers})
		resumed, err := mgr.Recover()
		if err != nil {
			return fmt.Errorf("recover jobs: %w", err)
		}
		if resumed > 0 {
			fmt.Fprintf(logw, "wsnserved: resumed %d unfinished job(s) from %s\n", resumed, o.storeDir)
		}
	}
	svc := service.New(service.Config{
		Workers:        o.workers,
		QueueCap:       o.queue,
		CacheEntries:   o.cacheEntries,
		CacheBytes:     int64(o.cacheMB) << 20,
		DefaultTimeout: o.timeout,
		MaxTimeout:     o.maxTimeout,
		MaxBodyBytes:   int64(o.maxBodyKB) << 10,
		MaxNodes:       o.maxNodes,
		SweepWorkers:   o.sweepWorkers,
		Store:          st,
		Jobs:           mgr,
		JobWorkers:     o.jobWorkers,
		AccessLog:      accessLog,
	})
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", o.addr)
		if err != nil {
			return err
		}
	}
	srv := &http.Server{Handler: svc, ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(logw, "wsnserved: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections and let in-flight
	// requests finish, then stop the job pool.
	fmt.Fprintf(logw, "wsnserved: draining (budget %s)\n", o.drain)
	dctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	shutErr := srv.Shutdown(dctx)
	drainErr := svc.Drain(dctx)
	if shutErr != nil {
		return fmt.Errorf("shutdown: %w", shutErr)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintf(logw, "wsnserved: drained cleanly\n")
	return nil
}

// pprofMux builds a mux carrying exactly the net/http/pprof handlers.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
