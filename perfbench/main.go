// Command perfbench is the repository's end-to-end benchmark: one
// closed-loop client drives the simulation service (internal/service)
// in process through ServeHTTP, on one of four workloads, and prints
// every end-to-end metric with its unit; with -trace 1 it also replays
// each request through the layers' public functions and prints a
// per-layer table whose rows add up to the request's wall time.
//
//	bash perfbench/run.sh --workload serve-sweep --seed 1 --seconds 10 --trace 0
//
// Each workload's output ends with one JSON line, {"correct",
// "attempted", "failed", "metrics"}, the last line of standard output
// when one workload runs; --workload all runs the four in turn in one
// process. Every response is
// checked (see checks.go); a wrong one counts as failed and makes the
// run incorrect. METRICS.md lists the metrics and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"wsnbcast/internal/jobs"
	"wsnbcast/internal/service"
	"wsnbcast/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setups is how many times a run sets a server up; setup_s is the
// median, so one cold first set-up does not set it.
const setups = 9

type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	smoke        bool
	setups       int
	workDir      string
	writeDigests string
}

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: serve-sweep, lifetime-static, lifetime-churn, jobs-reliability, or all four in turn")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed generates the same documents")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced replay and per-layer metrics instead of end-to-end metrics")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny documents, for the package test")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for the run's stores (removed afterwards)")
	fs.StringVar(&o.writeDigests, "write-digests", "", "serve the first documents of seeds 1 and 1009 of every workload and write their digests to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	o.setups = setups
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	if o.writeDigests != "" {
		return writeDigests(o, sz)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = []string{"serve-sweep", "lifetime-static", "lifetime-churn", "jobs-reliability"}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	failed := 0
	for _, name := range names {
		w, ok := workloads(sz)[name]
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		dir, err := os.MkdirTemp(o.workDir, "run-")
		if err != nil {
			return err
		}
		res, err := measure(o, w, sz, dir)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		res.print(stdout, o.trace)
		if !res.correct() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed their checks", failed, len(names))
	}
	return nil
}

// nproc sizes every pool of the server: request workers, sweep workers
// and job workers all equal GOMAXPROCS, which equals the CPU count.
func nproc() int { return runtime.NumCPU() }

// harness is one server over a fresh store directory.
type harness struct {
	dir string
	srv *service.Server
}

func startServer(dir string) (*harness, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	mgr := jobs.NewManager(jobs.Config{Store: st, Workers: nproc()})
	if _, err := mgr.Recover(); err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	srv := service.New(service.Config{
		Workers: nproc(), SweepWorkers: nproc(), JobWorkers: nproc(),
		Store: st, Jobs: mgr,
	})
	return &harness{dir: dir, srv: srv}, nil
}

func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(h.srv.Drain(ctx), os.RemoveAll(h.dir))
}

//go:embed digests.json
var digestsJSON []byte

// committedDigests returns the SHA-256 digests of the first documents'
// bodies for (workload, seed), or nil when none are committed.
func committedDigests(workload string, seed uint64) []string {
	var all map[string][]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil
	}
	return all[fmt.Sprintf("%s/%d", workload, seed)]
}

// sample is one served request.
type sample struct {
	hit        bool
	wall       time.Duration
	broadcasts int
	trip       *jobTrip
	trace      *tracer
}

// result is everything one run measured.
type result struct {
	workload  string
	attempted int
	failed    int
	setupS    float64
	elapsed   time.Duration
	samples   []sample
	windows   []window
	gcCPU     float64
	maxRSSMiB float64
	probeMs   [2]float64
	metrics0  metricsDoc
	metrics1  metricsDoc
	layers    *layerStats
}

// The measured time is cut into windows; each end-to-end metric is
// computed per window and reported as the median over windows, so a
// stretch of host contention shorter than half the run cannot move it.
const windows = 5

// window is the process state at the end of one measured window;
// samples[prev.n:n] were served in it.
type window struct {
	end   time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint32
	n     int
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// measure sets a server up o.setups times — start it over a fresh
// store and serve its first request, the paper anchor — and reports
// the median as setup_s. On the last server it serves the warm-up
// documents, untimed, then drives the workload for o.seconds.
func measure(o options, w workload, sz sizes, dir string) (*result, error) {
	res := &result{workload: w.name}
	res.probeMs[0] = hostProbe()
	rn := &runner{w: w, seed: o.seed, docs: map[int]request{}, digests: map[int][32]byte{},
		want: committedDigests(w.name, o.seed)}
	if o.smoke {
		rn.want = nil
	}

	var setups []float64
	var h *harness
	for i := 0; i < o.setups; i++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		h, err = startServer(filepath.Join(dir, fmt.Sprintf("store-%d", i)))
		if err != nil {
			return nil, err
		}
		if err := serveAnchor(h); err != nil {
			h.close()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer h.close()
	res.setupS = median(setups)
	if err := rn.warm(h); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rn.h = h
	if o.trace {
		rp, err := newReplayer(filepath.Join(dir, "replay-store"))
		if err != nil {
			return nil, err
		}
		rn.rp = rp
	}

	var err error
	if res.metrics0, err = readMetrics(h.srv); err != nil {
		return nil, err
	}
	runtime.GC()
	gc0 := gcCPU()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stream := newOpStream(o.seed)
	limit := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	res.windows = []window{{end: start, cpu: cpuTime(), alloc: ms0.TotalAlloc, gcs: ms0.NumGC}}
	for k := 1; k <= windows; k++ {
		until := start.Add(limit * time.Duration(k) / windows)
		for time.Now().Before(until) {
			res.samples = append(res.samples, rn.serve(stream.Next()))
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.windows = append(res.windows, window{end: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc,
			gcs: ms.NumGC, n: len(res.samples)})
	}
	res.elapsed = time.Since(start)
	if gc1 := gcCPU(); gc1[1] > gc0[1] {
		res.gcCPU = (gc1[0] - gc0[0]) / (gc1[1] - gc0[1])
	}
	if res.metrics1, err = readMetrics(h.srv); err != nil {
		return nil, err
	}
	if err := checkCacheCounts(w, res); err != nil {
		rn.fail(err)
	}
	res.attempted, res.failed = len(res.samples), rn.failed
	for _, e := range rn.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	res.maxRSSMiB = maxRSSMiB()
	res.probeMs[1] = hostProbe()
	if o.trace {
		res.layers = summarize(res, rn.rp)
	}
	return res, nil
}

// runner serves the stream and checks every response.
type runner struct {
	w       workload
	seed    uint64
	h       *harness
	rp      *replayer
	docs    map[int]request
	digests map[int][32]byte
	want    []string
	failed  int
	errs    []string
}

func (rn *runner) doc(i int) request {
	if r, ok := rn.docs[i]; ok {
		return r
	}
	r := rn.w.doc(rn.seed, i)
	rn.docs[i] = r
	return r
}

func (rn *runner) fail(err error) {
	rn.failed++
	if len(rn.errs) < 10 {
		rn.errs = append(rn.errs, err.Error())
	}
}

// serveAnchor is a server's first request: the paper anchor sweep.
func serveAnchor(h *harness) error {
	rec := call(h.srv, "POST", "/v1/sweep", anchorDoc)
	if rec.Code != 200 {
		return fmt.Errorf("anchor: status %d", rec.Code)
	}
	return checkAnchor(rec.Body.Bytes())
}

// warm serves one warm-up document per shape of the workload (negative
// indices, so they never collide with the measured stream).
func (rn *runner) warm(h *harness) error {
	for i := 1; i <= rn.w.warm; i++ {
		req := rn.w.doc(rn.seed, -i)
		body, _, err := rn.do(h, req, false)
		if err != nil {
			return err
		}
		if _, err := checkBody(rn.w.kind, req, body); err != nil {
			return err
		}
	}
	return nil
}

// do sends one request and checks its transport-level outcome: status,
// the designed cache state, and for jobs the event stream.
func (rn *runner) do(h *harness, req request, hit bool) ([]byte, *jobTrip, error) {
	if rn.w.kind == "job" {
		trip, err := runJob(h.srv, req.body)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", req.name, err)
		}
		// A fresh document must queue; a repeat must attach to the
		// finished job.
		fresh := trip.state == "queued" || trip.state == "running"
		if fresh == hit || trip.resultCache != "job" {
			return nil, nil, fmt.Errorf("%s: submit answered %q (repeat %v), result X-Cache %q", req.name, trip.state, hit, trip.resultCache)
		}
		points := 1 + len(req.loss)*len(req.fail)
		if len(trip.events) != points+1 {
			return nil, nil, fmt.Errorf("%s: %d events for %d points", req.name, len(trip.events), points)
		}
		return trip.body, &trip, nil
	}
	rec := call(h.srv, "POST", "/v1/"+rn.w.kind, req.body)
	want := "miss"
	if hit {
		want = "hit"
	}
	if rec.Code != 200 || rec.Header().Get("X-Cache") != want {
		return nil, nil, fmt.Errorf("%s: status %d X-Cache %q, want 200 %q", req.name, rec.Code, rec.Header().Get("X-Cache"), want)
	}
	return rec.Body.Bytes(), nil, nil
}

func (rn *runner) serve(o op) sample {
	req := rn.doc(o.miss)
	t0 := time.Now()
	body, trip, err := rn.do(rn.h, req, o.hit)
	s := sample{hit: o.hit, wall: time.Since(t0), trip: trip}
	if err == nil {
		s.broadcasts, err = rn.verify(o, req, body)
	}
	if err == nil && rn.rp != nil {
		s.trace, err = rn.rp.replay(rn.w.kind, req, o.hit, body)
	}
	if err != nil {
		rn.fail(err)
	}
	return s
}

// verify checks a body: a miss against its document and the committed
// digest, a hit byte-for-byte against the miss it repeats.
func (rn *runner) verify(o op, req request, body []byte) (int, error) {
	sum := sha256sum(body)
	if o.hit {
		if sum != rn.digests[o.miss] {
			return 0, fmt.Errorf("%s: repeated body differs from the first answer", req.name)
		}
		return 0, nil
	}
	if o.miss < len(rn.want) && fmt.Sprintf("%x", sum) != rn.want[o.miss] {
		return 0, fmt.Errorf("%s: body digest %x differs from the committed %s", req.name, sum, rn.want[o.miss])
	}
	rn.digests[o.miss] = sum
	return checkBody(rn.w.kind, req, body)
}

// checkCacheCounts holds the server's /metrics cache counters to the
// designed mix: over the measured stream, one LRU miss per distinct
// document and one hit per repeat on the synchronous endpoints, and no
// LRU traffic at all for jobs.
func checkCacheCounts(w workload, r *result) error {
	var hits, misses uint64
	if w.kind != "job" {
		for _, s := range r.samples {
			if s.hit {
				hits++
			} else {
				misses++
			}
		}
	}
	gotHits := r.metrics1.CacheHits - r.metrics0.CacheHits
	gotMisses := r.metrics1.CacheMisses - r.metrics0.CacheMisses
	if gotHits != hits || gotMisses != misses {
		return fmt.Errorf("/metrics counted %d cache hits and %d misses, the stream was designed for %d and %d",
			gotHits, gotMisses, hits, misses)
	}
	return nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPU returns the runtime's cumulative GC CPU seconds and total CPU
// seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var out [2]float64
	for i, x := range s {
		if x.Value.Kind() == metrics.KindFloat64 {
			out[i] = x.Value.Float64()
		}
	}
	return out
}

// hostProbe times a fixed integer kernel that touches nothing of the
// program: the median of five passes, in milliseconds. It tracks host
// speed drift and is reported, never used to scale other metrics.
func hostProbe() float64 {
	var ts []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		x := uint64(i)
		for j := 0; j < 1<<22; j++ {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			x ^= z >> 31
		}
		probeSink = x
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ts)
}

var probeSink uint64

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the untraced metrics: each the median over
// windows of its per-window values, which it also returns.
func (r *result) endToEnd() (map[string]metricValue, map[string][]float64) {
	per := map[string][]float64{}
	for k := 1; k < len(r.windows); k++ {
		w0, w1 := r.windows[k-1], r.windows[k]
		n := float64(w1.n - w0.n)
		if n == 0 {
			continue
		}
		var miss, hit []float64
		broadcasts := 0
		for _, s := range r.samples[w0.n:w1.n] {
			ms := float64(s.wall.Nanoseconds()) / 1e6
			if s.hit {
				hit = append(hit, ms)
			} else {
				miss = append(miss, ms)
			}
			broadcasts += s.broadcasts
		}
		sec := w1.end.Sub(w0.end).Seconds()
		add := func(name string, v float64) { per[name] = append(per[name], v) }
		add("requests_per_s", n/sec)
		add("sim_broadcasts_per_s", float64(broadcasts)/sec)
		add("cpu_ms_per_req", float64((w1.cpu-w0.cpu).Nanoseconds())/1e6/n)
		add("alloc_kib_per_req", float64(w1.alloc-w0.alloc)/1024/n)
		if len(miss) > 0 {
			add("latency_p50_ms", quantile(miss, 0.5))
			add("latency_p90_ms", quantile(miss, 0.9))
		}
		if len(hit) > 0 {
			add("hit_latency_p50_ms", quantile(hit, 0.5))
			add("hit_latency_p90_ms", quantile(hit, 0.9))
		}
	}
	units := map[string]string{
		"requests_per_s": "1/s", "sim_broadcasts_per_s": "1/s", "cpu_ms_per_req": "ms", "alloc_kib_per_req": "KiB",
		"latency_p50_ms": "ms", "latency_p90_ms": "ms", "hit_latency_p50_ms": "ms", "hit_latency_p90_ms": "ms",
	}
	out := map[string]metricValue{
		"max_rss_mib": {r.maxRSSMiB, "MiB"},
		"setup_s":     {r.setupS, "s"},
	}
	for name, unit := range units {
		out[name] = metricValue{median(per[name]), unit}
	}
	return out, per
}

func (r *result) print(w io.Writer, traced bool) {
	misses := 0
	for _, s := range r.samples {
		if !s.hit {
			misses++
		}
	}
	fmt.Fprintf(w, "workload %s: %d requests (%d misses, %d hits) in %.2f s, %d failed (failed_ratio %.4f); host.probe_ms before %.3f after %.3f\n",
		r.workload, r.attempted, misses, r.attempted-misses, r.elapsed.Seconds(), r.failed,
		float64(r.failed)/float64(max(r.attempted, 1)), r.probeMs[0], r.probeMs[1])
	var ms map[string]metricValue
	if traced {
		r.layers.printTable(w)
		ms = r.layers.metrics
	} else {
		var per map[string][]float64
		ms, per = r.endToEnd()
		for _, k := range []string{"requests_per_s", "latency_p50_ms"} {
			fmt.Fprintf(w, "windows %-20s %.4g\n", k, per[k])
		}
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "metric %-28s %14.6f %s\n", k, ms[k].Value, ms[k].Unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, ms})
	fmt.Fprintln(w, string(out))
}

// writeDigests serves the first documents of the default seed and the
// held-out seed on a fresh server and records their body digests.
func writeDigests(o options, sz sizes) error {
	all := map[string][]string{}
	names := make([]string, 0, 4)
	for name := range workloads(sz) {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := workloads(sz)[name]
		for _, seed := range []uint64{1, 1009} {
			dir, err := os.MkdirTemp(o.workDir, "digests-")
			if err != nil {
				return err
			}
			h, err := startServer(dir)
			if err != nil {
				return err
			}
			rn := &runner{w: w, seed: seed, h: h, docs: map[int]request{}, digests: map[int][32]byte{}}
			var list []string
			for i := 0; i < w.digests; i++ {
				if rn.serve(op{miss: i}); rn.failed > 0 {
					h.close()
					return fmt.Errorf("%s seed %d: %s", name, seed, strings.Join(rn.errs, "; "))
				}
				list = append(list, fmt.Sprintf("%x", rn.digests[i]))
			}
			if err := h.close(); err != nil {
				return err
			}
			all[fmt.Sprintf("%s/%d", name, seed)] = list
			fmt.Fprintf(os.Stderr, "%s seed %d: %d digests\n", name, seed, len(list))
		}
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.writeDigests, append(b, '\n'), 0o644)
}
