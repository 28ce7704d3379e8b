// Package histogram provides equi-width histograms and the
// total-variation distance amnesiadb uses to quantify how far an
// amnesiac active set has drifted from the full data distribution — the
// concern behind §4.4's "we attempt to forget tuples that do not change
// the data distribution for all active records" and the paper's remark
// that the data distribution itself evolves as tuples are ingested and
// forgotten.
package histogram

import (
	"fmt"
	"math"
)

// Hist is a fixed-bucket equi-width histogram over [0, max].
type Hist struct {
	counts []int64
	total  int64
	width  float64
}

// New returns a histogram with buckets bins over the value range
// [0, max]. It panics if bins < 1 or max < 0.
func New(bins int, max int64) *Hist {
	if bins < 1 {
		panic("histogram: need at least one bin")
	}
	if max < 0 {
		panic("histogram: negative max")
	}
	return &Hist{counts: make([]int64, bins), width: float64(max+1) / float64(bins)}
}

// FromValues builds a histogram of vals with the given bin count over
// [0, max].
func FromValues(vals []int64, bins int, max int64) *Hist {
	h := New(bins, max)
	for _, v := range vals {
		h.Add(v)
	}
	return h
}

// Add counts one value. Values outside [0, max] clamp to the edge
// buckets.
func (h *Hist) Add(v int64) {
	b := 0
	if v > 0 {
		b = min(int(float64(v)/h.width), len(h.counts)-1)
	}
	h.counts[b]++
	h.total++
}

// Fraction returns bucket b's share of the mass, 0 for an empty
// histogram.
func (h *Hist) Fraction(b int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[b]) / float64(h.total)
}

// TVDistance returns the total-variation distance between the two
// normalised histograms: ½·Σ|p_i − q_i| ∈ [0, 1]. 0 means identical
// shapes, 1 disjoint support. It panics unless both have as many bins.
func (h *Hist) TVDistance(o *Hist) float64 {
	if len(h.counts) != len(o.counts) {
		panic(fmt.Sprintf("histogram: bin mismatch %d vs %d", len(h.counts), len(o.counts)))
	}
	var d float64
	for b := range h.counts {
		d += math.Abs(h.Fraction(b) - o.Fraction(b))
	}
	return d / 2
}
