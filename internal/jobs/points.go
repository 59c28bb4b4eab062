package jobs

import (
	"fmt"

	"wsnbcast/internal/scenario"
	"wsnbcast/internal/store"
)

// A job's kind is one of the scenario.Kind* request kinds: its merged
// result is byte-identical to the corresponding POST /v1/<kind>
// response body, and is stored under the same content-addressed key. A
// job executes its kind's scenario.Plan point by point; the plan
// carries the determinism argument.

// pointKey is the content-addressed store key of one point's payload,
// derived from the canonical scenario plus the point index so finished
// points survive restarts and are shared across instances.
func pointKey(kind string, sc scenario.Scenario, index int) (string, error) {
	return store.Key(fmt.Sprintf("jobpoint/%s/%d", kind, index), sc)
}

// resultKey is the store key of the merged job result — the same key
// the synchronous endpoint uses for this document, so a completed job
// is an L2 cache hit for later synchronous requests and vice versa.
func resultKey(kind string, sc scenario.Scenario) (string, error) {
	return store.Key(kind, sc)
}

// checkpointKey is the store key of a lifetime point's mid-run round
// state. It is derived from the canonical scenario plus the point
// index — like pointKey but in its own namespace — so a restarted
// process finds the checkpoint its predecessor saved. The object is
// transient: it is deleted once the point's payload is durable.
func checkpointKey(kind string, sc scenario.Scenario, index int) (string, error) {
	return store.Key(fmt.Sprintf("lifeckpt/%s/%d", kind, index), sc)
}
