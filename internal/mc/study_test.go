package mc

import (
	"context"
	"errors"
	"strings"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

// studyFixture exercises the full stochastic engine — loss, failures
// and the repair planner all on — over 67 replications at each of six
// grid points.
func studyFixture() Spec {
	topo := grid.New(grid.Mesh2D4, 8, 6, 1)
	return Spec{
		Topology: topo, Protocol: core.ForTopology(grid.Mesh2D4), Source: center(topo),
		Seed:         99,
		Replications: 67,
		LossRates:    []float64{0, 0.08, 0.2},
		FailureRates: []float64{0, 0.1},
		Workers:      3,
	}
}

// A trace observer must never change what a study reports: the traced
// and untraced studies are byte-identical, aggregates and records.
func TestTracedStudyMatchesUntraced(t *testing.T) {
	plain, err := Run(context.Background(), studyFixture())
	if err != nil {
		t.Fatal(err)
	}
	tracedSpec := studyFixture()
	tracedSpec.Config.Trace = func(sim.Event) {}
	traced, err := Run(context.Background(), tracedSpec)
	if err != nil {
		t.Fatal(err)
	}
	plainAgg, plainRec := marshalled(t, plain)
	tracedAgg, tracedRec := marshalled(t, traced)
	if plainAgg != tracedAgg {
		t.Error("traced aggregate report differs from untraced")
	}
	if plainRec != tracedRec {
		t.Error("traced per-replication records differ from untraced")
	}
}

// A cancelled study reports how far it got: the partial-report error
// names completed vs total replications and wraps the context error.
func TestCancellationPartialReportError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, studyFixture())
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "mc: cancelled after ") ||
		!strings.Contains(err.Error(), "/402 replications") {
		t.Errorf("partial-report error missing progress counts: %v", err)
	}
}
