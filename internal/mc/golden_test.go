package mc

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"wsnbcast/internal/core"
	"wsnbcast/internal/grid"
	"wsnbcast/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestStudyGolden pins the exact bytes of a reliability study — the
// aggregate report followed by every replication record as JSONL — on
// each of the paper's four mesh kinds under its paper protocol and
// under flooding, across loss {0, .08, .2} x failure {0, .1} with 67
// replications per point. Any drift in the loss channel, the failure
// sampler, the engine or the aggregation order shows up as a diff.
// Regenerate with: go test ./internal/mc -run Golden -update
func TestStudyGolden(t *testing.T) {
	for _, k := range grid.Kinds() {
		for _, p := range []sim.Protocol{core.ForTopology(k), core.NewFlooding()} {
			name := k.String() + "-paper"
			if p.Name() == "flooding" {
				name = k.String() + "-flooding"
			}
			k, p := k, p
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				topo := grid.New(k, 8, 6, 2)
				rep, err := Run(context.Background(), Spec{
					Topology: topo, Protocol: p, Source: center(topo),
					Seed:         99,
					Replications: 67,
					LossRates:    []float64{0, 0.08, 0.2},
					FailureRates: []float64{0, 0.1},
					Workers:      3,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := studyBytes(t, rep)
				path := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden file (run with -update): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("study differs from %s (or -update if intended)", path)
				}
			})
		}
	}
}

// studyBytes renders a report as its aggregate JSON line followed by
// one JSON line per replication record.
func studyBytes(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Records {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}
