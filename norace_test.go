//go:build !race

package smappic_test

const raceEnabled = false
