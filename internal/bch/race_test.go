//go:build race

package bch

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of the items put back, so pooled scratch is reallocated.
const raceEnabled = true
