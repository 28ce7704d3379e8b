//go:build !race

package experiments_test

// raceEnabled reports whether the race detector instruments this build.
// TestCommittedOutputs skips itself under the detector (the figures are
// single-threaded loops over tables too small to parallelise, so its
// ~15x slowdown, about four minutes, adds little race coverage), and
// TestHeavyExperimentsRun runs only under it.
const raceEnabled = false
