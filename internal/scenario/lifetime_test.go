package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"wsnbcast/internal/life"
)

// A small lifetime study that dies within its round budget.
const lifetimeDoc = `{
  "topology": {"kind": "2d4", "m": 10, "n": 10},
  "sources": [{"x": 5, "y": 5}],
  "lifetime": {
    "budget_j": 0.002,
    "max_rounds": 96,
    "seed": 7,
    "replications": 2,
    "strategies": ["static", "residual"],
    "churn_rates": [0, 0.02],
    "p_new": 0.25
  }
}`

func loadLifetime(t *testing.T) Scenario {
	t.Helper()
	s, err := Load(strings.NewReader(lifetimeDoc))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLifetimeDecodeStrict(t *testing.T) {
	s := loadLifetime(t)
	if s.Lifetime == nil || s.Lifetime.BudgetJ != 0.002 || len(s.Lifetime.Strategies) != 2 {
		t.Fatalf("lifetime section lost in decoding: %+v", s.Lifetime)
	}
	bad := strings.Replace(lifetimeDoc, `"churn_rates"`, `"churnrates"`, 1)
	_, err := Load(strings.NewReader(bad))
	if err == nil {
		t.Fatal("typo'd lifetime field accepted")
	}
	if !strings.Contains(err.Error(), `did you mean "churn_rates"`) {
		t.Errorf("no did-you-mean hint: %v", err)
	}
}

func TestLifetimeCanonicalDefaults(t *testing.T) {
	s := Scenario{
		Topology: TopologySpec{Kind: "2D4", M: 8, N: 8},
		Sources:  []Point{{X: 4, Y: 4}},
		Lifetime: &LifetimeSpec{Strategies: []string{"Static"}},
	}
	c := s.Canonical()
	l := c.Lifetime
	if l.BudgetJ != 0.05 || l.MaxRounds != 4096 || l.Replications != 1 {
		t.Errorf("defaults not explicit: %+v", l)
	}
	if len(l.Strategies) != 1 || l.Strategies[0] != "static" {
		t.Errorf("strategy not lowercased: %v", l.Strategies)
	}
	if len(l.ChurnRates) != 1 || l.ChurnRates[0] != 0 {
		t.Errorf("empty churn grid not canonicalized to {0}: %v", l.ChurnRates)
	}
	// Canonicalization is idempotent — the cache identity is stable.
	if c2 := c.Canonical(); !bytes.Equal(mustMarshal(t, c), mustMarshal(t, c2)) {
		t.Error("canonicalization not idempotent")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLifetimeValidation(t *testing.T) {
	base := loadLifetime(t)
	cases := map[string]func(*Scenario){
		"two sources":   func(s *Scenario) { s.Sources = append(s.Sources, Point{X: 1, Y: 1}) },
		"no sources":    func(s *Scenario) { s.Sources = nil },
		"with budget":   func(s *Scenario) { s.BudgetJ = 0.1 },
		"with pipeline": func(s *Scenario) { s.Pipeline = &PipelineSpec{Packets: 2} },
		"with reliability": func(s *Scenario) {
			s.Reliability = &ReliabilitySpec{Seed: 1, Replications: 10}
		},
		"bad churn rate":  func(s *Scenario) { s.Lifetime.ChurnRates = []float64{2} },
		"bad p_new":       func(s *Scenario) { s.Lifetime.PNew = 1.5 },
		"bad burn-in":     func(s *Scenario) { s.Lifetime.BurnInRounds = -1 },
		"with down nodes": func(s *Scenario) { s.Down = []Point{{X: 1, Y: 1}} },
	}
	for name, mut := range cases {
		s := base
		l := *base.Lifetime
		s.Lifetime = &l
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// burnin_rounds decodes strictly (typos are named, with a hint) and
// survives canonicalization: a zero burn-in is omitted from the
// canonical form, so pre-existing documents keep their cache identity.
func TestLifetimeBurnInDecodeAndCanonical(t *testing.T) {
	doc := strings.Replace(lifetimeDoc, `"p_new": 0.25`, `"p_new": 0.25,
    "burnin_rounds": 32`, 1)
	s, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Lifetime.BurnInRounds != 32 {
		t.Fatalf("burnin_rounds = %d, want 32", s.Lifetime.BurnInRounds)
	}
	bad := strings.Replace(doc, `"burnin_rounds"`, `"burn_in_rounds"`, 1)
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("typo'd burn-in field accepted")
	} else if !strings.Contains(err.Error(), `did you mean "burnin_rounds"`) {
		t.Errorf("no did-you-mean hint: %v", err)
	}
	c := s.Canonical()
	if c.Lifetime.BurnInRounds != 32 {
		t.Errorf("canonicalization dropped burn-in: %+v", c.Lifetime)
	}
	if c2 := c.Canonical(); !bytes.Equal(mustMarshal(t, c), mustMarshal(t, c2)) {
		t.Error("canonicalization not idempotent with burn-in set")
	}
	// Zero burn-in is omitted, keeping historical document bytes stable.
	if b := mustMarshal(t, loadLifetime(t).Canonical()); bytes.Contains(b, []byte("burnin_rounds")) {
		t.Errorf("zero burn-in serialized into the canonical form: %s", b)
	}
}

func TestLifetimeStrategyHint(t *testing.T) {
	s := loadLifetime(t)
	l := *s.Lifetime
	l.Strategies = []string{"residul"}
	s.Lifetime = &l
	err := s.Validate()
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if !strings.Contains(err.Error(), `did you mean "residual"`) {
		t.Errorf("no strategy hint: %v", err)
	}
}

// The scenario runner refuses lifetime sections: they run through the
// dedicated lifetime path.
func TestLifetimeRejectedByRunContext(t *testing.T) {
	s := loadLifetime(t)
	if _, err := s.RunContext(context.Background()); err == nil {
		t.Fatal("RunContext ran a lifetime study")
	}
}

func TestLifetimeReportWorkersIdentical(t *testing.T) {
	s := loadLifetime(t)
	var want []byte
	p, err := NewPlan(KindLifetime, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		rep, err := p.Run(context.Background(), workers, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := mustMarshal(t, rep)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: report differs", workers)
		}
	}
}

// Cell-by-cell execution plus LifetimeMerge must reproduce the
// synchronous report byte for byte, including a JSON round trip of
// every cell (how the store serves points).
func TestLifetimeMergeMatchesSync(t *testing.T) {
	s := loadLifetime(t)
	p, err := NewPlan(KindLifetime, s)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := p.Run(context.Background(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := s.LifetimeCellCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(sync.Lifetime) {
		t.Fatalf("LifetimeCellCount = %d, sync report has %d cells", n, len(sync.Lifetime))
	}
	cells := make([]life.CellReport, n)
	for i := 0; i < n; i++ {
		c, err := p.Exec(context.Background(), i, nil, 0)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		raw := mustMarshal(t, c)
		if err := json.Unmarshal(raw, &cells[i]); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := s.LifetimeMerge(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustMarshal(t, merged), mustMarshal(t, sync); !bytes.Equal(got, want) {
		t.Errorf("merged report differs from sync:\n got %s\nwant %s", got, want)
	}
}
