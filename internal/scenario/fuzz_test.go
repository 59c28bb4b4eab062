package scenario_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"wsnbcast/internal/scenario"
	"wsnbcast/internal/store"
)

// fuzzMaxNodes mirrors the HTTP service's default node cap: the service
// never hands Compile a document whose dimensions exceed it, so
// Compile's promptness is only a property below it.
const fuzzMaxNodes = 1 << 17

// compileBudget bounds one Compile call. Compiling builds a topology
// and validates sections; it runs no simulation, so milliseconds are
// typical even for an irregular mesh at the node cap.
const compileBudget = 2 * time.Second

// FuzzScenarioDecode feeds arbitrary bytes to the document decoder and
// checks the properties the service relies on:
//
//   - Load never panics;
//   - Canonical is idempotent;
//   - a canonical document survives marshal -> Load -> Canonical with
//     the same store.Key, so a cached result is found again;
//   - Compile returns (with an error or not) within compileBudget for
//     every document inside the service's node cap.
//
// The seed corpus holds the service tests' documents and the hostile
// ones the service rejects: wrapping node counts, a huge irregular
// radius, negative jitter, and down-list conflicts.
func FuzzScenarioDecode(f *testing.F) {
	for _, doc := range []string{
		`{"topology": {"kind": "2d4", "m": 8, "n": 8}, "sources": [{"x": 3, "y": 3}]}`,
		`{"topology": {"kind": "2d4", "m": 6, "n": 6}}`,
		`{"topology": {"kind": "3D6", "m": 4, "n": 4, "l": 3}, "protocol": "Flooding-Jitter", "sources": [{"x": 1, "y": 1}]}`,
		`{"topology": {"kind": "irregular", "m": 4, "n": 4, "radius": 1.2}, "sources": [{"x": 1, "y": 1}]}`,
		`{"topology": {"kind": "2d4", "m": 8, "n": 6}, "sources": [{"x": 4, "y": 3}], "disable_repair": true,
		  "reliability": {"seed": 9, "replications": 8, "loss_rates": [0.2, 0, 0.2]}}`,
		`{"topology": {"kind": "2d4", "m": 8, "n": 8}, "sources": [{"x": 4, "y": 4}],
		  "lifetime": {"budget_j": 0.004, "max_rounds": 32, "seed": 11, "strategies": ["static", "residual"],
		  "churn_rates": [0, 0.05], "p_new": 0.3}}`,
		`{"topology": {"kind": "2d8", "m": 5, "n": 5}, "sources": [{"x": 2, "y": 2}], "pipeline": {"packets": 3, "interval": -1},
		  "budget_j": 1, "convergecast": true, "packet_bits": 512, "spacing_m": 0.5}`,
		`{"topology": {"kind": "2d4", "m": 8589934592, "n": 2147483648}, "sources": [{"x": 1, "y": 1}]}`,
		`{"topology": {"kind": "irregular", "m": 8, "n": 8, "radius": 3000}, "protocol": "flooding", "sources": [{"x": 1, "y": 1}]}`,
		`{"topology": {"kind": "irregular", "m": 1500, "n": 1500, "radius": 1.2}, "protocol": "flooding", "sources": [{"x": 1, "y": 1}]}`,
		`{"topology": {"kind": "irregular", "m": 8, "n": 8, "radius": 1.2, "jitter": -0.5}, "protocol": "flooding", "sources": [{"x": 1, "y": 1}]}`,
		`{"topology": {"kind": "2d4", "m": 6, "n": 6}, "sources": [{"x": 3, "y": 3}], "down": [{"x": 3, "y": 3}]}`,
		`{"topology": {"kind": "2d4", "m": 6, "n": 6}, "down": [{"x": 2, "y": 2}]}`,
		`{"topology": {"kind": "2d4", "m": 6, "n": 6}, "sources": [{"x": 3, "y": 3}], "down": [{"x": 1, "y": 1}],
		  "lifetime": {"budget_j": 0.004, "max_rounds": 8, "seed": 11}}`,
		`{"topology": {`,
		`{"nope": 1}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := scenario.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		c := sc.Canonical()
		cj := mustMarshal(t, c)
		if again := mustMarshal(t, c.Canonical()); !bytes.Equal(cj, again) {
			t.Fatalf("Canonical is not idempotent:\nonce  %s\ntwice %s", cj, again)
		}
		back, err := scenario.Load(bytes.NewReader(cj))
		if err != nil {
			t.Fatalf("canonical document %s does not load: %v", cj, err)
		}
		if k1, k2 := mustKey(t, c), mustKey(t, back.Canonical()); k1 != k2 {
			t.Fatalf("store key changed across marshal/Load/Canonical: %s -> %s\ndoc %s", k1, k2, cj)
		}
		if !withinNodeCap(c.Topology) {
			return
		}
		start := time.Now()
		_, _, _, _ = c.Compile()
		if took := time.Since(start); took > compileBudget {
			t.Fatalf("Compile took %v (budget %v) on %s", took, compileBudget, cj)
		}
	})
}

// withinNodeCap applies the service's node cap to a canonical
// document's dimensions without multiplying them.
func withinNodeCap(t scenario.TopologySpec) bool {
	if t.M < 1 || t.N < 1 {
		return true // Compile rejects these before building anything
	}
	l := 1
	if strings.EqualFold(t.Kind, "3d6") && t.L > 1 {
		l = t.L
	}
	return t.M <= fuzzMaxNodes/t.N && t.M*t.N <= fuzzMaxNodes/l
}

func mustMarshal(t *testing.T, sc scenario.Scenario) []byte {
	t.Helper()
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

func mustKey(t *testing.T, sc scenario.Scenario) string {
	t.Helper()
	k, err := store.Key("run", sc)
	if err != nil {
		t.Fatalf("store.Key: %v", err)
	}
	return k
}
