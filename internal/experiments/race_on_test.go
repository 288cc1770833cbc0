//go:build race

package experiments

// raceEnabled reports a race-detector build; see race_off_test.go.
const raceEnabled = true
