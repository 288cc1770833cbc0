//go:build race

package replay_test

// raceEnabled reports a race-detector build; see race_off_test.go.
const raceEnabled = true
