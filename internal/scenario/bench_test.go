package scenario

import (
	"context"
	"strings"
	"testing"
)

// reliabilityDoc is one jobs-reliability document of the repository
// benchmark (perfbench): a 64-replication study over a 4 loss x 2
// failure grid on the canonical 32x16 2D-4 mesh.
const reliabilityDoc = `{
  "name": "plan-bench-reliability",
  "topology": {"kind": "2d4", "m": 32, "n": 16},
  "sources": [{"x": 9, "y": 5}],
  "reliability": {"seed": 1000, "replications": 64, "loss_rates": [0, 0.05, 0.1, 0.2], "failure_rates": [0, 0.1]}
}`

// BenchmarkPlanReliability runs the document as the synchronous
// endpoint does: compile the plan, then run its points (the
// deterministic broadcast and one mc.RunPoint per grid point) on
// GOMAXPROCS workers and merge in memory. Run:
//
//	go test ./internal/scenario -bench=PlanReliability -benchmem -run=^$
func BenchmarkPlanReliability(b *testing.B) {
	sc, err := Load(strings.NewReader(reliabilityDoc))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewPlan(KindScenario, sc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(context.Background(), 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
