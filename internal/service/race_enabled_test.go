//go:build race

package service

// raceEnabled reports whether this test binary was built with -race.
// The race detector defeats sync.Pool reuse and its instrumentation
// allocates, so a test that compares warm-engine allocations measures
// nothing real under it and skips itself.
const raceEnabled = true
