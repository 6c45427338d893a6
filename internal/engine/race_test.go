//go:build race

package engine

// raceEnabled reports whether the test binary runs under the race
// detector, which randomly drops sync.Pool items.
const raceEnabled = true
