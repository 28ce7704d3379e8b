// Package workload generates the paper's query workloads (§2.2, §4.2): the
// range-query template
//
//	WHERE attr >= v - S/2*RANGE AND attr < v + S/2*RANGE
//
// with candidate value v drawn from the data seen so far and a selectivity
// factor S. It only draws windows; the simulator fires them at the
// database.
package workload

import (
	"fmt"

	"amnesiadb/internal/xrand"
)

// DefaultSelectivity is the ±1% window of Figure 3's query generator
// ("attr >= v - 0.01*RANGE and attr < v + 0.01*RANGE"), i.e. a total
// width of 2% of the observed value range.
const DefaultSelectivity = 0.02

// CandidateMode selects where the range-query centre value v comes from.
// The paper's §4.2 generator "selects a candidate value v from all active
// tuples"; the same section also stresses that the workload "addresses all
// tuples ever inserted", so all three readings are provided.
type CandidateMode int

const (
	// CandidateActive draws v as the value of a uniformly chosen active
	// tuple — the paper's literal generator. Queries then follow the
	// data distribution of what the database still remembers.
	CandidateActive CandidateMode = iota
	// CandidateStored draws v from a uniformly chosen stored tuple,
	// active or forgotten — "all data being inserted".
	CandidateStored
	// CandidateUniform draws v uniformly over [0, max]; the
	// distribution-agnostic upper bound on amnesia damage.
	CandidateUniform
)

// String names the mode.
func (m CandidateMode) String() string {
	switch m {
	case CandidateActive:
		return "active"
	case CandidateStored:
		return "stored"
	case CandidateUniform:
		return "uniform"
	default:
		return fmt.Sprintf("CandidateMode(%d)", int(m))
	}
}

// RangeGen produces range windows following §4.2: a candidate value v
// (see CandidateMode) with the window [v - S/2*RANGE, v + S/2*RANGE),
// where RANGE is the maximum value inserted so far.
type RangeGen struct {
	src    *xrand.Source
	stored []int64
	max    int64
	// Selectivity is the fraction of the observed value range covered by
	// each query (total window width).
	Selectivity float64
	// Candidates selects the source of the centre value v.
	Candidates CandidateMode
}

// NewRangeGen returns a generator with the paper's default ±1% window and
// active-tuple candidates.
func NewRangeGen(src *xrand.Source) *RangeGen {
	if src == nil {
		panic("workload: NewRangeGen with nil source")
	}
	return &RangeGen{src: src, Selectivity: DefaultSelectivity}
}

// Insert records a batch of inserted values: they raise RANGE and join
// the stored-candidate pool.
func (g *RangeGen) Insert(vals []int64) {
	for _, v := range vals {
		g.max = max(g.max, v)
	}
	g.stored = append(g.stored, vals...)
}

// Inserted returns the count and sum of the values inserted so far that
// lie in [lo, hi).
func (g *RangeGen) Inserted(lo, hi int64) (n int, sum int64) {
	for _, v := range g.stored {
		if v >= lo && v < hi {
			n++
			sum += v
		}
	}
	return n, sum
}

// Next returns the next window [lo, hi). active holds the values still
// active, which CandidateActive draws from. ok is false when nothing was
// inserted yet or, under CandidateActive, nothing is active.
func (g *RangeGen) Next(active []int64) (lo, hi int64, ok bool) {
	if len(g.stored) == 0 {
		return 0, 0, false
	}
	var v int64
	switch g.Candidates {
	case CandidateActive:
		if len(active) == 0 {
			return 0, 0, false
		}
		v = active[g.src.Intn(len(active))]
	case CandidateStored:
		v = g.stored[g.src.Intn(len(g.stored))]
	case CandidateUniform:
		v = g.src.Int63n(g.max + 1)
	default:
		panic(fmt.Sprintf("workload: invalid candidate mode %d", int(g.Candidates)))
	}
	half := int64(g.Selectivity / 2 * float64(g.max))
	// hi admits at least the candidate value itself.
	return max(v-half, 0), v + half + 1, true
}
