package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"wsnbcast/internal/scenario"
	"wsnbcast/internal/store"
)

// smallStudy is a fast study whose batteries die within the cap: an
// 8x8 2d4 mesh on a 4 mJ budget.
func smallStudy() options {
	return options{
		topo:       "2d4",
		m:          8,
		n:          8,
		budgetJ:    0.004,
		rounds:     32,
		seed:       11,
		reps:       1,
		strategies: "static,residual",
		churn:      "0",
		workers:    2,
	}
}

func TestStudyTable(t *testing.T) {
	var out bytes.Buffer
	if err := run(smallStudy(), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2d4", "lifetime", "First death", "static", "residual"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
}

// TestStudyJSONMatchesService: -json emits exactly the bytes wsnserved
// serves for the equivalent POST /v1/lifetime document.
func TestStudyJSONMatchesService(t *testing.T) {
	o := smallStudy()
	o.jsonOut = true
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	sc := scenario.Scenario{
		Name:     "wsnlife",
		Topology: scenario.TopologySpec{Kind: "2d4", M: 8, N: 8},
		Sources:  []scenario.Point{{X: 4, Y: 4}},
		Lifetime: &scenario.LifetimeSpec{
			BudgetJ:    0.004,
			MaxRounds:  32,
			Seed:       11,
			Strategies: []string{"static", "residual"},
			ChurnRates: []float64{0},
		},
	}
	pl, err := scenario.NewPlan(scenario.KindLifetime, sc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.Run(context.Background(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.EncodeBody(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Error("-json output differs from the /v1/lifetime body")
	}
}

// TestStudyAllTopologiesJSON: an empty -topo runs all four canonical
// meshes and -json emits them as a JSON array.
func TestStudyAllTopologiesJSON(t *testing.T) {
	o := smallStudy()
	o.topo, o.m, o.n = "", 0, 0
	o.rounds = 4
	o.strategies = "static"
	o.jsonOut = true
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	var reps []scenario.Report
	if err := json.Unmarshal(out.Bytes(), &reps); err != nil {
		t.Fatalf("not a JSON array of reports: %v", err)
	}
	if len(reps) != 4 {
		t.Fatalf("got %d reports, want 4", len(reps))
	}
	for _, rep := range reps {
		if len(rep.Lifetime) == 0 {
			t.Errorf("%s report has no lifetime cells", rep.Topology)
		}
	}
}

func TestStaticTable(t *testing.T) {
	o := smallStudy()
	o.static = true
	var out bytes.Buffer
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2D-4", "Rounds (rotated)", "Imbalance"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}
}

// TestBadTopoSuggestion: a near-miss -topo gets a did-you-mean hint,
// a far one lists the choices.
func TestBadTopoSuggestion(t *testing.T) {
	o := smallStudy()
	o.topo = "2d44"
	err := run(o, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), `did you mean "2d4"`) {
		t.Errorf("near-miss topo error = %v, want a 2d4 suggestion", err)
	}
	o.topo = "hex"
	err = run(o, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "2d3, 2d4, 2d8 or 3d6") {
		t.Errorf("unknown topo error = %v, want the choice list", err)
	}
}

// TestBadStrategyHint: strategy validation (with its did-you-mean
// hint) flows up from the scenario layer.
func TestBadStrategyHint(t *testing.T) {
	o := smallStudy()
	o.strategies = "residul"
	err := run(o, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "residual") {
		t.Errorf("bad strategy error = %v, want a residual hint", err)
	}
}

func TestBadChurn(t *testing.T) {
	o := smallStudy()
	o.churn = "0,nope"
	if err := run(o, &bytes.Buffer{}); err == nil {
		t.Error("malformed -churn accepted")
	}
	o.churn = "1.5"
	if err := run(o, &bytes.Buffer{}); err == nil {
		t.Error("out-of-range churn rate accepted")
	}
}
