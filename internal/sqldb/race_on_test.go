//go:build race

package sqldb

// raceEnabled reports a -race build, whose sync.Pool drops pooled values at
// random: a fixed allocation budget does not hold there.
const raceEnabled = true
