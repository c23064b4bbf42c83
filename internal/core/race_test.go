//go:build race

package core

// raceEnabled: the race detector's sync.Pool drops a random share of the
// records put back, so allocation counts taken under it mean nothing.
const raceEnabled = true
