//go:build !race

package replay_test

// raceEnabled reports a race-detector build, which runs replay roughly
// ten times slower; single-goroutine sweeps over every space skip under
// it.
const raceEnabled = false
