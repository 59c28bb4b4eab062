package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

func sha256sum(b []byte) [32]byte { return sha256.Sum256(b) }

// A tracer records the spans of one replayed request in memory. Span 0
// is the request itself; every other span names its layer as the
// prefix of its name ("sim.run" is layer sim) and its parent span.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	name       string
	parent     int
	start, end time.Time
}

func newTracer() *tracer {
	return &tracer{spans: []span{{name: "request", parent: -1, start: time.Now()}}}
}

// run records f as a child span of parent; f receives its own span id,
// so calls it makes (on any goroutine) can nest under it.
func (t *tracer) run(parent int, name string, f func(id int) error) error {
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	t.mu.Unlock()
	err := f(id)
	end := time.Now()
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
	return err
}

// finish closes the request span.
func (t *tracer) finish() { t.spans[0].end = time.Now() }

func (t *tracer) wall() time.Duration { return t.spans[0].end.Sub(t.spans[0].start) }

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "residual"
}

// selfTimes splits the request's wall time among layers. Every instant
// belongs to the innermost spans running then: a span's self time is
// its duration minus the part of it its children cover, and when
// several innermost spans run at once (a worker pool) they share the
// instant equally. Instants covered only by the request span are the
// residual. The parts therefore add up to the wall time exactly.
func (t *tracer) selfTimes() map[string]time.Duration {
	type edge struct {
		at time.Time
		id int
		in bool
	}
	edges := make([]edge, 0, 2*len(t.spans))
	for id, s := range t.spans {
		edges = append(edges, edge{s.start, id, true}, edge{s.end, id, false})
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].at.Before(edges[j].at) })
	active := make([]int, len(t.spans)) // active children per span
	open := map[int]bool{}
	out := map[string]time.Duration{}
	for i, e := range edges {
		if i > 0 && e.at.After(edges[i-1].at) && len(open) > 0 {
			var leaves []int
			for id := range open {
				if active[id] == 0 {
					leaves = append(leaves, id)
				}
			}
			d := e.at.Sub(edges[i-1].at)
			share := d / time.Duration(len(leaves))
			for k, id := range leaves {
				part := share
				if k == 0 {
					part += d - share*time.Duration(len(leaves))
				}
				out[layerOf(t.spans[id].name)] += part
			}
		}
		p := t.spans[e.id].parent
		if e.in {
			open[e.id] = true
			if p >= 0 {
				active[p]++
			}
		} else {
			delete(open, e.id)
			if p >= 0 {
				active[p]--
			}
		}
	}
	return out
}

// durations sums the spans of one name and counts them.
func (t *tracer) durations(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.name == name {
			d += s.end.Sub(s.start)
			n++
		}
	}
	return d, n
}

// layers are the table's rows, in call order.
var layers = []string{"service", "scenario", "store", "jobs", "sweep", "sim", "life", "mc", "residual"}

// layerStats is the traced run's summary: the per-layer table per
// request class and the per-layer metrics.
type layerStats struct {
	rows    [2]map[string]float64 // ms per request, [0] misses, [1] hits
	replay  [2]float64            // replayed request wall, ms
	real    [2]float64            // served request wall, ms
	count   [2]int
	metrics map[string]metricValue
}

func (l *layerStats) printTable(w io.Writer) {
	fmt.Fprintf(w, "per-layer self time, ms per request (traced replay; rows add up to the replayed wall time)\n")
	fmt.Fprintf(w, "%-34s %14s %14s\n", "layer", "miss", "hit")
	for _, name := range layers {
		label := name
		if name == "residual" {
			label = "residual (replay glue)"
		}
		fmt.Fprintf(w, "%-34s %14.4f %14.4f\n", label, l.rows[0][name], l.rows[1][name])
	}
	fmt.Fprintf(w, "%-34s %14.4f %14.4f\n", "= replayed wall", l.replay[0], l.replay[1])
	fmt.Fprintf(w, "%-34s %14.4f %14.4f\n", "+ service self (est.: served-replay)", l.real[0]-l.replay[0], l.real[1]-l.replay[1])
	fmt.Fprintf(w, "%-34s %14.4f %14.4f\n", "= served wall", l.real[0], l.real[1])
	fmt.Fprintf(w, "%-34s %14d %14d\n", "requests", l.count[0], l.count[1])
}

// summarize builds the table and the per-layer metrics of a traced run.
func summarize(r *result, rp *replayer) *layerStats {
	l := &layerStats{rows: [2]map[string]float64{{}, {}}, metrics: map[string]metricValue{}}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	type acc struct {
		d time.Duration
		n int
	}
	spans := map[string]*acc{}
	var fan, fanChildren time.Duration
	var jobSubmit, jobWait, jobGap, jobMerge, jobResult []float64
	for _, s := range r.samples {
		if s.trace == nil {
			continue
		}
		c := 0
		if s.hit {
			c = 1
		}
		l.count[c]++
		for layer, d := range s.trace.selfTimes() {
			l.rows[c][layer] += ms(d)
		}
		l.replay[c] += ms(s.trace.wall())
		l.real[c] += ms(s.wall)
		for _, sp := range s.trace.spans[1:] {
			a := spans[sp.name]
			if a == nil {
				a = &acc{}
				spans[sp.name] = a
			}
			a.d += sp.end.Sub(sp.start)
			a.n++
		}
		for _, name := range []string{"sweep.report", "sweep.cells", "jobs.points"} {
			d, n := s.trace.durations(name)
			if n > 0 {
				fan += d
				for _, sp := range s.trace.spans {
					if sp.parent >= 0 && s.trace.spans[sp.parent].name == name {
						fanChildren += sp.end.Sub(sp.start)
					}
				}
			}
		}
		if t := s.trip; t != nil && !s.hit {
			jobSubmit = append(jobSubmit, ms(t.submitted.Sub(t.start)))
			jobResult = append(jobResult, ms(t.end.Sub(t.streamed)))
			var points []time.Time
			var done time.Time
			for _, e := range t.events {
				if e.Type == "point" {
					points = append(points, e.At)
				} else if e.Type == "done" {
					done = e.At
				}
			}
			if len(points) > 0 {
				jobWait = append(jobWait, ms(points[0].Sub(t.submitted)))
				jobMerge = append(jobMerge, ms(done.Sub(points[len(points)-1])))
				for i := 1; i < len(points); i++ {
					jobGap = append(jobGap, ms(points[i].Sub(points[i-1])))
				}
			}
		}
	}
	for c := 0; c < 2; c++ {
		if n := float64(l.count[c]); n > 0 {
			for k := range l.rows[c] {
				l.rows[c][k] /= n
			}
			l.replay[c] /= n
			l.real[c] /= n
		}
	}
	all := float64(max(l.count[0]+l.count[1], 1))
	misses := float64(max(l.count[0], 1))
	perSpan := func(name string) float64 {
		if a := spans[name]; a != nil && a.n > 0 {
			return ms(a.d) / float64(a.n)
		}
		return 0
	}
	perRequest := func(name string, n float64) float64 {
		if a := spans[name]; a != nil {
			return ms(a.d) / n
		}
		return 0
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	set := func(name, unit string, v float64) { l.metrics[name] = metricValue{v, unit} }

	set("service.request_ms", "ms", l.real[0])
	set("service.self_ms", "ms", l.real[0]-l.replay[0])
	set("service.hit_request_ms", "ms", l.real[1])
	set("service.hit_self_ms", "ms", l.real[1]-l.replay[1])
	set("service.marshal_ms", "ms", perRequest("service.marshal", misses))
	m0, m1 := r.metrics0, r.metrics1
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set("service.cache_hit_ratio", "ratio", ratio(float64(m1.CacheHits-m0.CacheHits),
		float64(m1.CacheHits-m0.CacheHits+m1.CacheMisses-m0.CacheMisses)))
	set("scenario.decode_ms", "ms", perRequest("scenario.decode", all))
	set("scenario.canonical_ms", "ms", perRequest("scenario.canonical", all))
	set("scenario.compile_ms", "ms", perRequest("scenario.compile", all))
	set("store.key_ms", "ms", perRequest("store.key", all))
	set("store.put_ms", "ms", perSpan("store.put"))
	if m0.Store != nil && m1.Store != nil {
		set("store.writes", "count", float64(m1.Store.Puts-m0.Store.Puts)/misses)
		set("store.write_kib", "KiB", float64(m1.Store.Bytes-m0.Store.Bytes)/1024/misses)
	}
	set("sweep.report_ms", "ms", (perRequest("sweep.report", misses) + perRequest("sweep.cells", misses)))
	set("sweep.parallel_efficiency", "ratio", ratio(float64(fanChildren), float64(nproc())*float64(fan)))
	set("sim.run_us", "us", perSpan("sim.run")*1000)
	set("sim.tx_per_run", "count", ratio(float64(rp.simTx), float64(rp.simRuns)))
	set("sim.repairs_per_run", "count", ratio(float64(rp.simRepairs), float64(rp.simRuns)))
	sessUs := 0.0
	if len(rp.sessionProbe) > 0 {
		sessUs = median(rp.sessionProbe)
	}
	set("sim.session_run_us", "us", sessUs)
	cellMs := perSpan("life.cell")
	set("life.cell_ms", "ms", cellMs)
	if a := spans["life.cell"]; a != nil && a.d > 0 {
		set("life.rounds_per_s", "1/s", float64(rp.rounds)/a.d.Seconds())
		set("life.self_ms", "ms", cellMs-float64(rp.rounds)/float64(a.n)*sessUs/1000)
	} else {
		set("life.rounds_per_s", "1/s", 0)
		set("life.self_ms", "ms", 0)
	}
	hitRatio := -1.0 // absent: the server does not export the counters
	if m0.DeltaHits != nil && m1.DeltaHits != nil && m0.DeltaFalls != nil && m1.DeltaFalls != nil {
		h := float64(*m1.DeltaHits - *m0.DeltaHits)
		hitRatio = ratio(h, h+float64(*m1.DeltaFalls-*m0.DeltaFalls))
	}
	set("life.delta_hit_ratio", "ratio", hitRatio)
	set("mc.point_ms", "ms", perSpan("mc.point"))
	if a := spans["mc.point"]; a != nil && a.d > 0 {
		set("mc.replications_per_s", "1/s", float64(rp.mcReps)/a.d.Seconds())
	} else {
		set("mc.replications_per_s", "1/s", 0)
	}
	set("jobs.submit_ms", "ms", mean(jobSubmit))
	set("jobs.queue_wait_ms", "ms", mean(jobWait))
	set("jobs.point_gap_ms", "ms", mean(jobGap))
	set("jobs.merge_ms", "ms", mean(jobMerge))
	set("jobs.result_ms", "ms", mean(jobResult))
	retries := 0.0
	if m0.Jobs != nil && m1.Jobs != nil {
		retries = float64(m1.Jobs.Retries - m0.Jobs.Retries)
	}
	set("jobs.retries", "count", retries)
	first, last := r.windows[0], r.windows[len(r.windows)-1]
	set("go.gc_cycles_per_req", "count", float64(last.gcs-first.gcs)/all)
	set("go.gc_cpu_fraction", "ratio", r.gcCPU)
	set("host.probe_ms", "ms", (r.probeMs[0]+r.probeMs[1])/2)
	set("trace.residual_ms", "ms", (l.rows[0]["residual"]*float64(l.count[0])+l.rows[1]["residual"]*float64(l.count[1]))/all)
	set("trace.replay_ratio", "ratio", ratio(l.replay[0], l.real[0]))
	return l
}
