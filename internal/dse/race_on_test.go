//go:build race

package dse

// raceEnabled: see race_off_test.go.
const raceEnabled = true
