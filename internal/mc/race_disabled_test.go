//go:build !race

package mc

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
