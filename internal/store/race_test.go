//go:build race

package store

// raceEnabled reports whether the race detector is on: under it,
// sync.Pool drops pooled values at random, so allocation pins skip.
const raceEnabled = true
