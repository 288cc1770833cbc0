//go:build !race

package experiments

// raceEnabled reports a race-detector build, which runs the engine
// roughly ten times slower; full-size sweeps skip under it.
const raceEnabled = false
