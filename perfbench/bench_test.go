package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmokeEmitsEveryMetric runs every workload on tiny documents, untraced
// and traced, and checks the last output line: correct, and exactly the
// metrics BENCHMARK.json declares for that mode.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for name := range workloads(smokeSizes) {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			args := []string{"--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", trace,
				"--smoke", "--workdir", t.TempDir()}
			if err := run(args, &out); err != nil {
				t.Fatalf("%s trace %s: %v\n%s", name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", name, trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", name, trace, last.Correct, last.Failed, last.Attempted)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer
			}
			var got []string
			for k := range last.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			w := append([]string(nil), want...)
			sort.Strings(w)
			if strings.Join(got, ",") != strings.Join(w, ",") {
				t.Errorf("%s trace %s: metrics\n got %v\nwant %v", name, trace, got, w)
			}
		}
	}
}

// TestTracedTableAddsUp checks, request by request, that the layers'
// self times plus the residual equal the replayed wall time and that the
// residual is never negative.
func TestTracedTableAddsUp(t *testing.T) {
	o := options{seed: 5, seconds: 0.3, trace: true, smoke: true, setups: 1}
	for name, w := range workloads(smokeSizes) {
		res, err := measure(o, w, smokeSizes, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.correct() {
			t.Fatalf("%s: %d of %d requests failed", name, res.failed, res.attempted)
		}
		for i, s := range res.samples {
			var sum time.Duration
			parts := s.trace.selfTimes()
			for _, d := range parts {
				sum += d
			}
			if sum != s.trace.wall() {
				t.Errorf("%s request %d: layers sum to %v, wall %v", name, i, sum, s.trace.wall())
			}
			if parts["residual"] < 0 {
				t.Errorf("%s request %d: residual %v < 0", name, i, parts["residual"])
			}
		}
	}
}

// TestSelfTimesSharesConcurrentChildren pins the attribution rule on a
// hand-built trace: two children running at once on a pool share the
// instants they overlap, and the parent keeps only uncovered time.
func TestSelfTimesSharesConcurrentChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{spans: []span{
		{name: "request", parent: -1, start: at(0), end: at(100)},
		{name: "scenario.decode", parent: 0, start: at(0), end: at(10)},
		{name: "sweep.report", parent: 0, start: at(20), end: at(90)},
		{name: "sim.run", parent: 2, start: at(30), end: at(70)},
		{name: "sim.run", parent: 2, start: at(50), end: at(80)},
	}}
	got := tr.selfTimes()
	ms := time.Millisecond
	want := map[string]time.Duration{
		"scenario": 10 * ms,
		"sweep":    20 * ms, // 20-30 and 80-90
		"sim":      50 * ms, // 30-80, shared 50-70
		"residual": 20 * ms, // 10-20 and 90-100
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: got %v, want %v", k, got[k], v)
		}
	}
}
