package main

import (
	"math"
	"sort"
	"time"
)

// rateWindows is the number of equal windows a timed phase is cut into
// for its rate: the reported rate is the median window's, so a stall
// or a burst in one part of the phase moves it less than it moves the
// whole-phase mean, and a cost that recurs every few windows is still
// inside it.
const rateWindows = 6

// Tail-eligibility thresholds: a p95 resolves a real tail only with
// enough samples beyond it and a value the loopback stack's own jitter
// does not dominate.
const (
	tailMinSamples = 200
	tailMinMs      = 1.0
)

// percentile returns the p-quantile (0 <= p <= 1) of an ascending
// slice, interpolating linearly between closest ranks. It returns NaN
// for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// windowRate cuts [0, phase) into rateWindows equal windows, counts the
// completions falling into each, and returns the median window's
// completions per second. Completions at or past the phase end belong
// to no window.
func windowRate(done []time.Duration, phase time.Duration) float64 {
	if phase <= 0 {
		return math.NaN()
	}
	counts := make([]float64, rateWindows)
	for _, d := range done {
		if d >= 0 && d < phase {
			counts[int64(d)*rateWindows/int64(phase)]++
		}
	}
	return median(counts) / (phase.Seconds() / rateWindows)
}

// tailEligible reports whether a class's p95 resolves a service-time
// tail: at least tailMinSamples samples and a p95 of at least tailMinMs.
// A class that is sub-millisecond up to its 95th percentile fails it:
// that p95 is mostly scheduler and loopback jitter. hot_small passes by
// construction: one request in ten misses the result cache and costs a
// millisecond-scale scan, so its p95 lies inside the miss population.
func tailEligible(samples int, p95Ms float64) bool {
	return samples >= tailMinSamples && p95Ms >= tailMinMs
}

// dueLatency is an operation's latency as its issuer experienced it:
// measured from when the operation was due, not from when the generator
// got round to sending it, so the wait a stall imposes on every later
// request of an open loop is counted. A closed loop's due time is its
// send time.
func dueLatency(due, done time.Duration) time.Duration { return done - due }

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (exclusive
// method), which is what the driver's acceptance check uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		nan := math.NaN()
		return nan, nan, nan
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// iqrSpread is the distance between the first and third quartile as a
// share of the median — the steadiness figure the acceptance check
// bounds.
func iqrSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}
