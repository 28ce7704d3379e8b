//go:build race

package experiments_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
