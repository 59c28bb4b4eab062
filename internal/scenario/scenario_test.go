package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wsnbcast/internal/sim"
)

func load(t *testing.T, doc string) Scenario {
	t.Helper()
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSingleBroadcast(t *testing.T) {
	s := load(t, `{
		"name": "fig5",
		"topology": {"kind": "2d4", "m": 16, "n": 16},
		"sources": [{"x": 6, "y": 8}]
	}`)
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d", len(rep.Runs))
	}
	r := rep.Runs[0]
	if r.Reached != r.Total || r.Total != 256 {
		t.Errorf("reach %d/%d", r.Reached, r.Total)
	}
	if rep.Protocol != "paper-2d4" {
		t.Errorf("protocol = %q", rep.Protocol)
	}
}

func TestSweepScenario(t *testing.T) {
	s := load(t, `{
		"name": "sweep",
		"topology": {"kind": "2d8", "m": 8, "n": 6}
	}`)
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BestEnergyJ <= 0 || rep.WorstEnergyJ < rep.BestEnergyJ {
		t.Errorf("sweep summary: %+v", rep)
	}
	if len(rep.Runs) != 0 {
		t.Error("sweep should not list per-run reports")
	}
}

func TestPipelineAndLifetimeAndConverge(t *testing.T) {
	s := load(t, `{
		"name": "full",
		"topology": {"kind": "2d4", "m": 10, "n": 8},
		"sources": [{"x": 5, "y": 4}],
		"pipeline": {"packets": 5},
		"budget_j": 0.5,
		"convergecast": true
	}`)
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PipelineDelivered || rep.PipelineInterval < 1 {
		t.Errorf("pipeline: %+v", rep)
	}
	if rep.LifetimeRounds <= 0 || rep.MaxNodeEnergyJ <= 0 {
		t.Errorf("lifetime: %+v", rep)
	}
	if rep.ConvergeEnergyJ <= 0 || rep.ConvergeSlots <= 0 {
		t.Errorf("converge: %+v", rep)
	}
}

func TestIrregularScenario(t *testing.T) {
	s := load(t, `{
		"name": "rgg",
		"topology": {"kind": "irregular", "m": 10, "n": 10, "jitter": 0.3, "radius": 1.5, "seed": 7},
		"protocol": "flooding-jitter",
		"sources": [{"x": 5, "y": 5}]
	}`)
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].Reached != rep.Runs[0].Total {
		t.Errorf("reach %d/%d", rep.Runs[0].Reached, rep.Runs[0].Total)
	}
}

func TestDownNodesScenario(t *testing.T) {
	s := load(t, `{
		"name": "damage",
		"topology": {"kind": "2d4", "m": 8, "n": 8},
		"sources": [{"x": 1, "y": 1}],
		"down": [{"x": 4, "y": 4}, {"x": 5, "y": 5}]
	}`)
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].Total != 62 {
		t.Errorf("total = %d, want 62 live nodes", rep.Runs[0].Total)
	}
}

func TestScenarioErrors(t *testing.T) {
	cases := []string{
		`{"topology": {"kind": "hex", "m": 4, "n": 4}}`,
		`{"topology": {"kind": "2d4"}}`,
		`{"topology": {"kind": "irregular", "m": 4, "n": 4}}`,
		`{"topology": {"kind": "2d4", "m": 4, "n": 4}, "protocol": "bogus"}`,
		`{"topology": {"kind": "irregular", "m": 4, "n": 4, "radius": 1.2}, "protocol": "paper"}`,
		`{"topology": {"kind": "2d4", "m": 4, "n": 4}, "packet_bits": -2, "sources": [{"x":1,"y":1}]}`,
		`{"topology": {"kind": "2d4", "m": 8589934592, "n": 2147483648}, "sources": [{"x":1,"y":1}]}`,
		`{"topology": {"kind": "3d6", "m": 2048, "n": 2048, "l": 1024}, "sources": [{"x":1,"y":1}]}`,
		`{"topology": {"kind": "irregular", "m": 4, "n": 4, "radius": 1.2, "jitter": -0.5}, "protocol": "flooding", "sources": [{"x":1,"y":1}]}`,
		`{"topology": {"kind": "irregular", "m": 4, "n": 4, "radius": 3000}, "protocol": "flooding", "sources": [{"x":1,"y":1}]}`,
		`{"topology": {"kind": "2d4", "m": 4, "n": 4}, "sources": [{"x":2,"y":2}], "down": [{"x":2,"y":2}]}`,
		`{"topology": {"kind": "2d4", "m": 4, "n": 4}, "down": [{"x":2,"y":2}]}`,
	}
	for _, doc := range cases {
		s := load(t, doc)
		if _, err := s.Run(); err == nil {
			t.Errorf("scenario %s should fail", doc)
		}
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"nope": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`{invalid`)); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	s := load(t, `{
		"name": "rt",
		"topology": {"kind": "2d4", "m": 6, "n": 4},
		"sources": [{"x": 3, "y": 2}]
	}`)
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.Write(&sb); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "rt" || len(back.Runs) != 1 || back.Runs[0].Tx != rep.Runs[0].Tx {
		t.Errorf("round trip mismatch: %+v", back)
	}
}

func TestPacketOverride(t *testing.T) {
	s := load(t, `{
		"topology": {"kind": "2d4", "m": 6, "n": 4},
		"sources": [{"x": 3, "y": 2}],
		"packet_bits": 1024, "spacing_m": 1.0
	}`)
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	s2 := load(t, `{
		"topology": {"kind": "2d4", "m": 6, "n": 4},
		"sources": [{"x": 3, "y": 2}]
	}`)
	rep2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].EnergyJ <= rep2.Runs[0].EnergyJ {
		t.Errorf("bigger packets should cost more: %g vs %g",
			rep.Runs[0].EnergyJ, rep2.Runs[0].EnergyJ)
	}
}

func TestLoadAllAndRunAll(t *testing.T) {
	docs := `[
		{"name": "a", "topology": {"kind": "2d4", "m": 6, "n": 4}, "sources": [{"x": 3, "y": 2}]},
		{"name": "b", "topology": {"kind": "2d8", "m": 6, "n": 4}, "sources": [{"x": 1, "y": 1}]},
		{"name": "c", "topology": {"kind": "2d3", "m": 6, "n": 4}, "sources": [{"x": 3, "y": 2}]}
	]`
	list, err := LoadAll(strings.NewReader(docs))
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("scenarios = %d", len(list))
	}
	reports, err := RunAll(list)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep.Name != list[i].Name {
			t.Errorf("report %d out of order: %q", i, rep.Name)
		}
		if rep.Runs[0].Reached != rep.Runs[0].Total {
			t.Errorf("%q incomplete", rep.Name)
		}
	}
	var sb strings.Builder
	if err := WriteAll(&sb, reports); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(sb.String()), "[") {
		t.Error("WriteAll should emit an array")
	}
}

// RunAll runs each document as its canonical plan, so a raw document
// that omits a source's z reports it as z 1, exactly as the served
// /v1/scenario body does. These bytes are what wsnrun prints.
func TestRunAllReportsCanonicalSources(t *testing.T) {
	list, err := LoadAll(strings.NewReader(`{"name": "z", "topology": {"kind": "2D4", "m": 4, "n": 4}, "sources": [{"x": 1, "y": 1}]}`))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := RunAll(list)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(reports[0])
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"name":"z","topology":"2d4","protocol":"paper-2d4","runs":[{"source":{"x":1,"y":1,"z":1},` +
		`"tx":11,"rx":29,"energy_j":0.0010241408,"delay":6,"reached":16,"total":16,"collisions":2,"duplicates":10,"repairs":0}]}`
	if string(got) != want {
		t.Errorf("RunAll report =\n%s\nwant\n%s", got, want)
	}
}

func TestLoadAllSingleObject(t *testing.T) {
	list, err := LoadAll(strings.NewReader(`{"topology": {"kind": "2d4", "m": 4, "n": 4}}`))
	if err != nil || len(list) != 1 {
		t.Fatalf("single object: %v, %v", list, err)
	}
}

func TestRunAllPropagatesError(t *testing.T) {
	list := []Scenario{
		{Name: "ok", Topology: TopologySpec{Kind: "2d4", M: 4, N: 4}},
		{Name: "bad", Topology: TopologySpec{Kind: "hex", M: 4, N: 4}},
	}
	if _, err := RunAll(list); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestCanonicalIdentity(t *testing.T) {
	// Byte-different documents describing the same experiment must
	// canonicalize to identical values (and hence identical JSON).
	a := load(t, `{
		"topology": {"kind": "2D4", "m": 6, "n": 4, "l": 3},
		"jitter_slots": 5,
		"sources": [{"x": 1, "y": 2}]
	}`)
	b := load(t, `{
		"sources": [{"x": 1, "y": 2, "z": 1}],
		"protocol": "PAPER",
		"packet_bits": 512,
		"spacing_m": 0.5,
		"topology": {"kind": "2d4", "n": 4, "m": 6, "seed": 7}
	}`)
	ja, err := json.Marshal(a.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("canonical forms differ:\n%s\n%s", ja, jb)
	}
	// A genuinely different experiment must not collapse.
	c := load(t, `{"topology": {"kind": "2d4", "m": 6, "n": 4}, "sources": [{"x": 2, "y": 2}]}`)
	jc, _ := json.Marshal(c.Canonical())
	if string(jc) == string(ja) {
		t.Error("different sources canonicalized to the same form")
	}
}

func TestCanonicalDefaults(t *testing.T) {
	s := load(t, `{"topology": {"kind": "3d6", "m": 4, "n": 4}, "protocol": "flooding-jitter"}`)
	c := s.Canonical()
	if c.Topology.L != 1 {
		t.Errorf("3d6 L = %d, want 1", c.Topology.L)
	}
	if c.JitterSlots != 8 {
		t.Errorf("jitter slots = %d, want 8", c.JitterSlots)
	}
	if c.Protocol != "flooding-jitter" {
		t.Errorf("protocol = %q", c.Protocol)
	}
}

func TestCompileRejectsOutsideSource(t *testing.T) {
	s := load(t, `{"topology": {"kind": "2d4", "m": 4, "n": 4}, "sources": [{"x": 9, "y": 0}]}`)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("err = %v, want outside-mesh error", err)
	}
	s = load(t, `{"topology": {"kind": "2d4", "m": 4, "n": 4}, "down": [{"x": 0, "y": 9}]}`)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("err = %v, want outside-mesh error", err)
	}
	s = load(t, `{"topology": {"kind": "2d4", "m": 4, "n": 4}, "sources": [{"x": 1, "y": 1}], "pipeline": {"packets": 0}}`)
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "packets") {
		t.Errorf("err = %v, want pipeline-packets error", err)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := load(t, `{"topology": {"kind": "2d4", "m": 8, "n": 8}, "sources": [{"x": 1, "y": 1}]}`)
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunAllContextCancelledUpFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scenarios := []Scenario{
		load(t, `{"topology": {"kind": "2d4", "m": 4, "n": 4}, "sources": [{"x": 1, "y": 1}]}`),
		load(t, `{"topology": {"kind": "2d3", "m": 4, "n": 4}, "sources": [{"x": 1, "y": 1}]}`),
	}
	reports, err := RunAllContext(ctx, scenarios)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "cancelled after 0/2") {
		t.Errorf("err = %v, want partial-results message", err)
	}
	if len(reports) != 2 {
		t.Errorf("reports = %d, want index-aligned slice", len(reports))
	}
}

func TestRunAllContextCancelMidBatch(t *testing.T) {
	// A batch far too heavy to finish inside the deadline — each
	// scenario is a full 512-source sweep: the call must come back
	// promptly with a partial-results error rather than grinding
	// through all 256 sweeps.
	doc := `{"topology": {"kind": "2d8", "m": 32, "n": 16}}`
	scenarios := make([]Scenario, 256)
	for i := range scenarios {
		scenarios[i] = load(t, doc)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	reports, err := RunAllContext(ctx, scenarios)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "cancelled after") {
		t.Errorf("err = %v, want cancelled-after message", err)
	}
	if len(reports) != 256 {
		t.Errorf("reports = %d, want index-aligned slice", len(reports))
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

func TestReliabilityScenario(t *testing.T) {
	s := load(t, `{
		"name": "lossy",
		"topology": {"kind": "2d4", "m": 10, "n": 6},
		"sources": [{"x": 5, "y": 3}],
		"disable_repair": true,
		"reliability": {
			"seed": 11,
			"replications": 10,
			"loss_rates": [0, 0.2],
			"failure_rates": [0, 0.1]
		}
	}`)
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("runs = %d, want the deterministic baseline run", len(rep.Runs))
	}
	if len(rep.Reliability) != 4 {
		t.Fatalf("reliability points = %d, want 4", len(rep.Reliability))
	}
	if rep.ReliabilitySeed != 11 {
		t.Errorf("reliability_seed = %d", rep.ReliabilitySeed)
	}
	p0 := rep.Reliability[0]
	if p0.LossRate != 0 || p0.FailureRate != 0 || p0.Reachability.Mean != 1 {
		t.Errorf("zero-rate point: %+v", p0)
	}
	lossy := rep.Reliability[1]
	if lossy.LossRate != 0.2 || lossy.Reachability.Mean >= 1 {
		t.Errorf("lossy point did not degrade: %+v", lossy)
	}
}

// Plan.Run's pool is a reliability request's whole concurrency budget:
// the grid points in flight split it for their replications instead of
// each starting a GOMAXPROCS pool of its own. Each replication runs on
// a sim.Session, so the plan may hold at most `workers` sessions at
// once, where nested pools would hold up to points x workers. The
// sessions are counted through sim's session hook, so pooled reuse of
// sessions across points cannot hide a nested pool as bytes could.
func TestPlanRunSharesOneWorkerBudget(t *testing.T) {
	const workers = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	s := load(t, `{
		"topology": {"kind": "2d4", "m": 64, "n": 64},
		"sources": [{"x": 32, "y": 32}],
		"reliability": {
			"seed": 5,
			"replications": 8,
			"loss_rates": [0, 0.05, 0.1, 0.2],
			"failure_rates": [0, 0.1]
		}
	}`)
	p, err := NewPlan(KindScenario, s)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	held, peak := 0, 0
	defer sim.SetSessionHook(sim.SetSessionHook(func(d int) {
		mu.Lock()
		held += d
		peak = max(peak, held)
		mu.Unlock()
	}))
	if _, err := p.Run(context.Background(), workers, nil); err != nil {
		t.Fatal(err)
	}
	t.Logf("Plan.Run at %d workers held at most %d sessions at once", workers, peak)
	if peak > workers {
		t.Errorf("Plan.Run at %d workers held %d sessions at once: the grid points nest their own pools",
			workers, peak)
	}
	if held != 0 {
		t.Errorf("Plan.Run kept %d sessions after it returned", held)
	}
}

func TestReliabilityValidation(t *testing.T) {
	for name, doc := range map[string]string{
		"no source": `{"topology": {"kind": "2d4", "m": 4, "n": 4},
			"reliability": {"replications": 3}}`,
		"two sources": `{"topology": {"kind": "2d4", "m": 4, "n": 4},
			"sources": [{"x": 1, "y": 1}, {"x": 2, "y": 2}],
			"reliability": {"replications": 3}}`,
		"zero replications": `{"topology": {"kind": "2d4", "m": 4, "n": 4},
			"sources": [{"x": 1, "y": 1}], "reliability": {"replications": 0}}`,
		"negative replications": `{"topology": {"kind": "2d4", "m": 4, "n": 4},
			"sources": [{"x": 1, "y": 1}], "reliability": {"replications": -2}}`,
		"loss rate above 1": `{"topology": {"kind": "2d4", "m": 4, "n": 4},
			"sources": [{"x": 1, "y": 1}],
			"reliability": {"replications": 3, "loss_rates": [1.5]}}`,
		"negative failure rate": `{"topology": {"kind": "2d4", "m": 4, "n": 4},
			"sources": [{"x": 1, "y": 1}],
			"reliability": {"replications": 3, "failure_rates": [-0.1]}}`,
		"combined with pipeline": `{"topology": {"kind": "2d4", "m": 4, "n": 4},
			"sources": [{"x": 1, "y": 1}], "pipeline": {"packets": 2},
			"reliability": {"replications": 3}}`,
	} {
		if err := load(t, doc).Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Equivalent reliability documents — unsorted, duplicated rate grids,
// empty grids vs explicit {0} — canonicalize to one identity, so the
// service cache and singleflight treat them as the same request.
func TestReliabilityCanonicalIdentity(t *testing.T) {
	a := load(t, `{
		"topology": {"kind": "2d4", "m": 6, "n": 4},
		"sources": [{"x": 1, "y": 1}],
		"reliability": {"seed": 5, "replications": 4, "loss_rates": [0.2, 0, 0.2]}
	}`).Canonical()
	b := load(t, `{
		"topology": {"kind": "2d4", "m": 6, "n": 4},
		"sources": [{"x": 1, "y": 1, "z": 1}],
		"protocol": "paper",
		"reliability": {"seed": 5, "replications": 4, "loss_rates": [0, 0.2], "failure_rates": [0]}
	}`).Canonical()
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("equivalent reliability docs canonicalize differently:\n%s\n%s", ja, jb)
	}
}

// The strict decoder names the offending field and suggests the real
// one for near misses, at any nesting level.
func TestLoadUnknownFieldSuggestions(t *testing.T) {
	cases := []struct {
		doc  string
		want []string
	}{
		{`{"topology": {"kind": "2d4", "m": 4, "n": 4}, "lossrate": 0.1}`,
			[]string{`"lossrate"`, `"loss_rates"`}},
		{`{"topology": {"kind": "2d4", "m": 4, "n": 4}, "sources": [{"x": 1, "y": 1}],
			"reliability": {"replications": 3, "loss_rate": [0.1]}}`,
			[]string{`"loss_rate"`, `"loss_rates"`}},
		{`{"topology": {"kind": "2d4", "m": 4, "n": 4}, "disablerepair": true}`,
			[]string{`"disablerepair"`, `"disable_repair"`}},
		{`{"topology": {"kind": "2d4", "m": 4, "n": 4}, "zzqx": 1}`,
			[]string{`"zzqx"`}},
	}
	for _, c := range cases {
		_, err := Load(strings.NewReader(c.doc))
		if err == nil {
			t.Errorf("doc with unknown field accepted: %s", c.doc)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("error %q missing %s", err, w)
			}
		}
	}
	// The far-off typo must not get a misleading suggestion.
	_, err := Load(strings.NewReader(`{"topology": {"kind": "2d4", "m": 4, "n": 4}, "zzqx": 1}`))
	if err != nil && strings.Contains(err.Error(), "did you mean") {
		t.Errorf("far-off typo got a suggestion: %v", err)
	}
}

func TestLoadRejectsTrailingContent(t *testing.T) {
	for _, doc := range []string{
		`{"topology": {"kind": "2d4", "m": 4, "n": 4}} {"x": 1}`,
		`{"topology": {"kind": "2d4", "m": 4, "n": 4}} trailing`,
	} {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("trailing content accepted: %s", doc)
		}
	}
	// A trailing newline stays fine.
	if _, err := Load(strings.NewReader("{\"topology\": {\"kind\": \"2d4\", \"m\": 4, \"n\": 4}}\n")); err != nil {
		t.Errorf("trailing newline rejected: %v", err)
	}
	if _, err := LoadAll(strings.NewReader(`[{"topology": {"kind": "2d4", "m": 4, "n": 4}}] x`)); err == nil {
		t.Error("trailing content after array accepted")
	}
}

func TestDisableRepairScenario(t *testing.T) {
	s := load(t, `{
		"topology": {"kind": "2d4", "m": 8, "n": 8},
		"protocol": "flooding",
		"sources": [{"x": 1, "y": 1}],
		"disable_repair": true
	}`)
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].Repairs != 0 {
		t.Errorf("disable_repair still repaired %d times", rep.Runs[0].Repairs)
	}
}
