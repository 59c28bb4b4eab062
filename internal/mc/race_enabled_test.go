//go:build race

package mc

// raceEnabled reports whether this test binary was built with -race.
// The race detector defeats sync.Pool reuse and its instrumentation
// allocates, so the allocation-budget test measures nothing real under
// it and skips itself.
const raceEnabled = true
