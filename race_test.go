//go:build race

package smappic_test

// raceEnabled: the race detector changes what allocates (its sync.Pool
// drops records on purpose), so allocation budgets mean nothing under it.
const raceEnabled = true
